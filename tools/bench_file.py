"""Write a BENCH_<n>.json file: fixed-size timings of two source trees.

Usage (from the root of a source checkout)::

    git archive <parent commit> | tar -x -C /tmp/parent
    python3 tools/bench_file.py --parent /tmp/parent --number 7 --reps 7

times the checkout it runs from (``change``) against another checkout of
the package (``parent``), alternating the two trees on every repetition so
that a slow spell of the host falls on both, and writes ``BENCH_<n>.json``
at the root of this checkout.  Every row is

    {"layer", "case", "size", "median_s": {"parent", "change"}, "reps"}

with one row for ``import lqspectra`` (time inside a fresh interpreter),
one per ``lqspectra`` subcommand at the arguments of the ``cli`` workload of
``perfbench`` (wall time of a fresh interpreter, as that workload times
it), and one for ``split_counting_check`` at level 12 (in-process, after
one untimed call).  The children run single-threaded BLAS, as perfbench's
do.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from jobs import cli_jobs  # noqa: E402
from specs import make_inputs  # noqa: E402

IMPORT_CHILD = """
import time
start = time.perf_counter()
import lqspectra
print(time.perf_counter() - start)
"""

SPLIT_CHILD = """
import time
import numpy as np
import lqspectra as lq

spec = lq.binomial_ifs(0.7)
lam = lq.solve_eigen(lq.discretize(spec, 12)).eigenvalues
xs = np.geomspace(lam[-1] * 0.9, lam[0] * 1.1, 50)  # the eigen subcommand's grid
lq.split_counting_check(spec, 12, [0.25, 0.75], xs)
start = time.perf_counter()
lq.split_counting_check(spec, 12, [0.25, 0.75], xs)
print(time.perf_counter() - start)
"""


class _ArgvRecorder:
    """Stands in for perfbench's CLI runner and keeps each job's arguments."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.argv: dict[str, list[str]] = {}

    def run(self, name, argv, outputs):
        self.argv[name] = argv


def bench_cli_arguments(workdir: Path, seed: int) -> dict[str, list[str]]:
    """The argument list of every subcommand of the ``cli`` workload."""
    recorder = _ArgvRecorder(workdir)
    for job in cli_jobs(make_inputs("cli", seed), recorder):
        job.call()
    return recorder.argv


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LQSPECTRA_WORKERS"}
    env.update({"PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return env


def _child_seconds(tree: Path, code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return float(out.split()[-1])


def _cli_seconds(tree: Path, argv: list[str], out: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "lqspectra.cli", *argv, "--out", str(out)],
                   env=_env(tree), check=True, stdout=subprocess.DEVNULL, timeout=300)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout (holds src/lqspectra)")
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1, help="seed of the cli workload inputs")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "src" / "lqspectra").is_dir():
            parser.error(f"{tree} holds no src/lqspectra")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = bench_cli_arguments(work, args.seed)
        cases = [("import", "import lqspectra", None,
                  lambda tree: _child_seconds(tree, IMPORT_CHILD))]
        for name, cmd in argv.items():
            cases.append(("cli", name, " ".join(cmd).replace(str(work), "<tmp>"),
                          lambda tree, cmd=cmd: _cli_seconds(tree, cmd, work / "out")))
        cases.append(("kreinfeller",
                      "split_counting_check(binomial_ifs(0.7), 12, cuts [0.25, 0.75], 50 x)",
                      4096, lambda tree: _child_seconds(tree, SPLIT_CHILD)))

        times = {(case[1], side): [] for case in cases for side in trees}
        for rep in range(args.reps):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for _, case, _, measure in cases:
                for side in order:
                    times[case, side].append(measure(trees[side]))
            print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr)

    import numpy
    import scipy

    doc = {
        "number": args.number,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "machine": platform.machine()},
        "rows": [{"layer": layer, "case": case, "size": size,
                  "median_s": {side: round(statistics.median(times[case, side]), 4)
                               for side in trees},
                  "reps": args.reps}
                 for layer, case, size, _ in cases],
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in doc["rows"]:
        print(f"{row['layer']:12s} {row['case'][:40]:40s} "
              f"{row['median_s']['parent']:8.4f} -> {row['median_s']['change']:8.4f}")


if __name__ == "__main__":
    main()
