"""Self-test of the benchmark's checks: they must be able to fail.

Usage::

    python3 perfbench/selftest.py [--seed 1]

Runs one pass of each workload (the ``cli`` jobs in fresh interpreters),
then feeds every job's check first its own result, which must pass, and
then each perturbed copy listed with the job (masses scaled by 1 + 1e-9, an
eigenvalue dropped, one CSV cell moved, ...), which must fail.  Prints one
line per check and exits with code 1 if any check accepts a perturbed
result or rejects a good one.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ["PYTHONPATH"] = str(ROOT / "src")

import jobs as workload_jobs  # noqa: E402
from specs import WORKLOADS, make_inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for workload in WORKLOADS:
            job_list = workload_jobs.build(make_inputs(workload, args.seed),
                                           workload_jobs.CliRunner(workdir))
            results = {job.name: job.call() for job in job_list}
            for job in job_list:
                problems = job.check(results[job.name], results)
                status = "passes" if not problems else f"REJECTS the good result: {problems}"
                bad += bool(problems)
                print(f"{workload:10s} {job.name:45s} {status}")
                for label, perturb in job.perturb:
                    caught = job.check(perturb(results[job.name]), results)
                    bad += not caught
                    verdict = f"fails: {caught[0]}" if caught else "ACCEPTS it"
                    print(f"{'':10s}   {label:42s} {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
