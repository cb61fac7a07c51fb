"""Re-measure the single-call reference cases of the ROADMAP baseline table.

Usage: ``python3 perfbench/reference_cases.py`` from the root of a source
checkout.  Each case is timed three times in one process with
single-threaded BLAS, and the median is printed next to ``host.calib_s``
(the benchmark's calibration kernel) timed before and after.  These figures
are for reading a run of ``run.py`` against; they are not part of it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPS = 3
if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                      PYTHONPATH=str(ROOT / "src"))
    os.execv(sys.executable, [sys.executable, *sys.argv])
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import lqspectra as lq  # noqa: E402
from worker import calibrate  # noqa: E402


def _import_time() -> float:
    code = "import time; t = time.perf_counter(); import lqspectra; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(out.stdout)


def main() -> int:
    binomial = lq.binomial_ifs(0.7)
    cantor = lq.cantor_measure()
    atoms = {n: lq.discretize(binomial, n) for n in (13, 14)}
    part = lq.budget_partition(binomial, 1.0, 256)
    u = lq.FunctionHandle(lambda pts: np.exp(pts.sum(axis=1)))
    approx = lq.piecewise_project(u, part, 1)
    cases = [
        ("support_masses(cantor_measure(), 14)", lambda: lq.support_masses(cantor, 14)),
        ("gamma_dyadic_vector(binomial 0.7, a=1, k=256)",
         lambda: lq.gamma_dyadic_vector(binomial, 1.0, 256)),
        ("gamma_dyadic_vector(binomial 0.7, a=1, k=1024)",
         lambda: lq.gamma_dyadic_vector(binomial, 1.0, 1024)),
        ("solve_eigen binomial level 13 (N = 8192)", lambda: lq.solve_eigen(atoms[13])),
        ("solve_eigen binomial level 14 (N = 16384)", lambda: lq.solve_eigen(atoms[14])),
        (f"error_Lq binomial, 1e5 samples, {part.cardinality}-cube partition",
         lambda: lq.error_Lq(u, approx, binomial, 2.0, n_samples=100_000, seed=0)),
        ("import lqspectra (fresh interpreter)", None),
    ]
    calib = [calibrate()]
    print(f"{'case':58s} {'median_s':>9s}  runs")
    for name, call in cases:
        times = []
        for _ in range(REPS):
            if call is None:
                times.append(_import_time())
                continue
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        print(f"{name:58s} {statistics.median(times):9.3f}  "
              + " ".join(f"{t:.3f}" for t in times), flush=True)
    calib.append(calibrate())
    print(f"host.calib_s before/after: {calib[0]:.4f} / {calib[1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
