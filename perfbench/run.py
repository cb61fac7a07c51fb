"""Benchmark of the lqspectra chain: levels, partitions, cli.

Usage::

    python3 perfbench/run.py --workload levels --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/lqspectra`` must exist; the
package is imported from there, nothing is installed).  The run

1. writes the workload's seeded inputs under ``perfbench/out/``,
2. starts ``worker.py`` with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and
   ``LQSPECTRA_WORKERS`` unset, which runs and checks the passes,
3. times fresh interpreters that import ``lqspectra`` and parse and validate
   those inputs (``setup_s``, the median), half of them before the worker
   and half after it, so that they do not all fall into one slow spell of
   the host,
4. prints one JSON line: with ``--trace 0`` the end-to-end metrics
   ``setup_s``, ``pass_s`` and ``peak_rss_mb``; with ``--trace 1`` the
   per-layer metrics.  A readable summary goes to standard error.

Exits with code 1, printing no result, if the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from specs import WORKLOADS, make_inputs  # noqa: E402

ROOT = HERE.parent
SETUP_SAMPLES = 8  # half before and half after the worker
DEADLINE_S = 170.0


def measured_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LQSPECTRA_WORKERS"}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def setup_sample(inputs_file: Path, env: dict[str, str]) -> tuple[float, float]:
    """(wall time from interpreter start to ready, import time) of one probe."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(inputs_file)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready, json.loads(line)["import_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (ROOT / "src" / "lqspectra" / "__init__.py").is_file():
        print(f"error: no lqspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs_file = workdir / "inputs.json"
    inputs_file.write_text(json.dumps(make_inputs(args.workload, args.seed)), encoding="utf-8")
    env = measured_env()

    try:
        setup_sample(inputs_file, env)  # untimed: compiles bytecode, warms the file cache
        samples = [setup_sample(inputs_file, env) for _ in range(SETUP_SAMPLES // 2)]
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(inputs_file), str(workdir),
             repr(args.seconds), str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)))
        samples += [setup_sample(inputs_file, env) for _ in range(SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not worker.stdout.strip():
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    shutil.rmtree(workdir / "cli", ignore_errors=True)

    if args.trace:
        layers = dict(report["layers"])
        layers["cli.import_s"] = statistics.median(imp for _, imp in samples)
        layers["host.calib_s"] = statistics.fmean(report["calib_s"])
        layers["trace.overhead_s"] = (statistics.median(report["traced_pass_s"])
                                      - statistics.median(report["pass_s"]))
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(ready for ready, _ in samples), "unit": "s"},
            "pass_s": {"value": statistics.median(report["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": report["wrong"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    detail = dict(report, setup_s=[ready for ready, _ in samples],
                  import_s=[imp for _, imp in samples], result=result)
    (workdir / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    _summary(args, report, metrics)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _summary(args, report, metrics) -> None:
    err = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['attempted']} operations, {report['failed']} failed, "
          f"passes {len(report['pass_s'])}+{len(report.get('traced_pass_s', []))}, "
          f"host.calib_s {report['calib_s'][0]:.4f}/{report['calib_s'][1]:.4f}", file=err)
    for problem in report["problems"]:
        print(f"  problem: {problem}", file=err)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=err)
    for layer, share in sorted(report.get("shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"  share {layer:28s} {100 * share:6.1f}%", file=err)
    if report.get("probed"):
        print(f"  from the probe: {', '.join(report['probed'])}", file=err)


if __name__ == "__main__":
    sys.exit(main())
