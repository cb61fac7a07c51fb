"""Importing lqspectra loads numpy only: scipy is imported by the eigen
solves, so only the ``eigen`` and ``order`` subcommands load it.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lqspectra as lq

SRC = str(Path(lq.__file__).resolve().parents[1])

CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import lqspectra
report = {"import lqspectra": scipy_modules()}
import lqspectra.cli
report["import lqspectra.cli"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    code = lqspectra.cli.main(argv + ["--out", sys.argv[2]])
    report[argv[0]] = [code, scipy_modules()]
print(json.dumps(report))
"""


def run_fresh(runs, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_numpy_only_subcommands_load_no_scipy(tmp_path):
    report = run_fresh([
        ["spectrum", "--measure", "binomial_07_03", "--levels", "1..4", "--s-grid", "0:2:5"],
        ["fixedpoint", "--measure", "binomial_07_03", "--levels", "2..5"],
        ["partition", "--measure", "binomial_07_03", "--a", "1", "--t", "1e-3"],
        ["entropy", "--measure", "binomial_07_03", "--t-grid", "10,10,4", "--levels", "2..5"],
        ["project", "--measure", "binomial_07_03", "--n-list", "2,4", "--samples", "2000"],
        ["demo", "fig1"],
    ], tmp_path)
    assert report == {
        "import lqspectra": [],
        "import lqspectra.cli": [],
        **{name: [0, []] for name in
           ("spectrum", "fixedpoint", "partition", "entropy", "project", "demo")},
    }


def test_eigen_and_order_load_scipy_when_they_run(tmp_path):
    for argv in (["eigen", "--measure", "binomial_07_03", "--level", "5", "--cuts", "0.5"],
                 ["order", "--measure", "lebesgue_1d", "--levels", "6..7"]):
        report = run_fresh([argv], tmp_path)
        assert report["import lqspectra"] == report["import lqspectra.cli"] == []
        code, loaded = report[argv[0]]
        assert code == 0
        assert "scipy.linalg" in loaded
