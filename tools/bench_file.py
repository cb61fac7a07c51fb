"""Write a BENCH_<n>.json file: fixed-size timings of two source trees.

Usage (from the root of a source checkout)::

    git archive <parent commit> | tar -x -C /tmp/parent
    python3 tools/bench_file.py --parent /tmp/parent --number 7 --reps 7

times the checkout it runs from (``change``) against another checkout of
the package (``parent``), alternating the two trees on every repetition so
that a slow spell of the host falls on both, and writes ``BENCH_<n>.json``
at the root of this checkout.  Every row is

    {"layer", "case", "size", "median_s": {"parent", "change"},
     "units_per_s": {"parent", "change"} or null, "reps"}

with one row for ``import lqspectra`` (time inside a fresh interpreter),
one per ``lqspectra`` subcommand at the arguments of the ``cli`` workload of
``perfbench`` (wall time of a fresh interpreter, as that workload times
it), one for ``split_counting_check`` at level 12 (in-process, after one
untimed call), five for discretization, the eigen solve and the fit (see
:func:`eigen_cases`), and eight for the partition layer, seven at the
sizes of the ``partitions`` workload (in-process, the median of five calls
after one untimed call): ``adaptive_partition`` on the binomial and the
tetrahedron, ``gamma_adaptive_profile`` of the tetrahedron to 32,768 cubes,
``entropy_estimate`` of the binomial, and ``budget_partition`` at the
budgets of the workload's two error chains and of its tetrahedron
polynomial reproduction, and one that reads ``Partition.cubes`` of
``adaptive_partition(binomial_ifs(0.7), 1.0, 1e-5)`` (377 DyadicCube
objects built per read, 100 reads per call); five for the exact oracle (see
:func:`oracle_cases`); and eight for the spectrum layer at the
sizes of the ``levels`` workload, timed the same way: ``s_nb`` of the
binomial at level 18 and of the tetrahedron at level 9, ``s_b_estimate`` of
the binomial at levels 14, 16 and 18 and of the workload's 1000-atom spec
at levels 8, 12 and 16, and ``spectrum_curve`` of the binomial at level 18
and of the tetrahedron at level 9 on the workload's 20-point s grids, and
two more on a 2-D density at depth 9 whose 262,144 level-9 masses are all
distinct: ``spectrum_curve`` on the grid and ``s_nb`` at the b of the
workload's density; five for the mass engine (see
:func:`measures_cases`); and seven for the polyapprox
layer at the sizes of the ``partitions`` workload, timed the same way:
``sample_measure`` of the binomial, the density, the tetrahedron and the
Cantor measure at 10^5 points, the ell = 1 ``evaluate`` of the binomial's
budget partition at 10^5 points, and each of the workload's two
budget_partition -> piecewise_project -> error_Lq chains.  Rows with a count of work also carry ``units`` and
``units_per_s`` (cubes, atoms, roots, s-grid points, samples or points
per second of the median).
The children run single-threaded BLAS, as perfbench's do.
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

# one in-process case: prints its work units and the median time
CASE_CHILD = """
import statistics
import time
import numpy as np
import lqspectra as lq

spec = {spec}
{setup}
run = lambda: {run}
run()
times = []
for _ in range(5):
    start = time.perf_counter()
    result = run()
    times.append(time.perf_counter() - start)
print({units}, statistics.median(times))
"""

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
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return env


def _child_seconds(tree: Path, code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return float(out.split()[-1])


def _child_units(tree: Path, code: str) -> tuple[float, int]:
    """(seconds, work units) printed by a child as ``units seconds``."""
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    units, seconds = out.split()[-2:]
    return float(seconds), int(float(units))


def _cli_seconds(tree: Path, argv: list[str], out: Path) -> float:
    # the output is piped so that run() returns when the pipes close: without
    # pipes, a wait with a timeout polls at up to 50 ms intervals, and the
    # measured times come in 50 ms steps
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "lqspectra.cli", *argv, "--out", str(out)],
                   env=_env(tree), check=True, capture_output=True, timeout=300)
    return time.perf_counter() - start


def _case_code(entry: dict, run: str, units: str, setup: str = "") -> str:
    """Child code timing ``run`` on the spec built by a workload's spec entry
    (a constructor call or a spec document) or by a Python expression."""
    spec = (f"lq.parse_spec({entry['doc']!r})" if "doc" in entry
            else entry["expr"] if "expr" in entry
            else f"lq.{entry['call']}(*{entry['args']!r})")
    return CASE_CHILD.format(spec=spec, setup=setup, run=run, units=units)


def spectrum_cases(seed: int) -> list[tuple[str, str]]:
    """(case, child code) of the spectrum rows, at the sizes of the ``levels``
    workload with this seed."""
    inputs = make_inputs("levels", seed)
    specs, prm = inputs["specs"], inputs["params"]
    binomial, tetra, atomic = prm["binomial"], prm["tetra"], prm["atomic"]
    density = prm["density2d"]
    p = specs["binomial"]["args"][0]
    n_bin, n_tet, levels = binomial["nb_level"], tetra["nb_level"], binomial["est_levels"]
    n_curve, grid = binomial["curve_level"], binomial["s_grid"]
    n_tet_curve, tet_grid = tetra["curve_level"], tetra["s_grid"]
    return [
        (f"s_nb(binomial_ifs({p:.4g}), {n_bin}, b={binomial['b_nb']}); roots",
         _case_code(specs["binomial"], f"lq.s_nb(spec, {n_bin}, {binomial['b_nb']!r})", "1")),
        (f"s_nb(tetra, {n_tet}, b={tetra['b_nb']}); roots",
         _case_code(specs["tetra"], f"lq.s_nb(spec, {n_tet}, {tetra['b_nb']!r})", "1")),
        (f"s_b_estimate(binomial_ifs({p:.4g}), b={binomial['b_est']}, {levels}); roots",
         _case_code(specs["binomial"], f"lq.s_b_estimate(spec, {binomial['b_est']!r}, {levels})",
                    str(len(levels)))),
        (f"s_b_estimate(atomic, 1000 atoms, b={atomic['b_est']}, {atomic['est_levels']}); roots",
         _case_code(specs["atomic"],
                    f"lq.s_b_estimate(spec, {atomic['b_est']!r}, {atomic['est_levels']})",
                    str(len(atomic["est_levels"])))),
        (f"spectrum_curve(binomial_ifs({p:.4g}), {n_curve}, {len(grid)}-point s grid); "
         "s-grid points",
         _case_code(specs["binomial"], f"lq.spectrum_curve(spec, {n_curve}, {grid!r})",
                    str(len(grid)))),
        (f"spectrum_curve(tetra, {n_tet_curve}, {len(tet_grid)}-point s grid); s-grid points",
         _case_code(specs["tetra"], f"lq.spectrum_curve(spec, {n_tet_curve}, {tet_grid!r})",
                    str(len(tet_grid)))),
        # every level-9 mass of this density differs from the others: one
        # group per cube, the case where grouping the masses saves nothing
        (f"spectrum_curve(2-D density, depth 9, 262,144 distinct masses, 9, "
         f"{len(density['s_grid'])}-point s grid); s-grid points",
         _case_code(DISTINCT_DENSITY, f"lq.spectrum_curve(spec, 9, {density['s_grid']!r})",
                    str(len(density["s_grid"])))),
        (f"s_nb(2-D density, depth 9, 262,144 distinct masses, 9, b={density['b_nb']}); roots",
         _case_code(DISTINCT_DENSITY, f"lq.s_nb(spec, 9, {density['b_nb']!r})", "1")),
    ]


# a 2-D density at depth 9 with 262,144 distinct level-9 masses
DISTINCT_DENSITY = {"expr": "(lambda v: lq.DyadicDensity(9, v / v.mean()))("
                            "np.random.default_rng(0).uniform(0.5, 1.5, (512, 512)))"}


def measures_cases(seed: int) -> list[tuple[str, str]]:
    """(case, child code) of the mass engine rows: ``support_masses`` of the
    ``levels`` workload's 1000-atom spec at its mass level, of its binomial
    at level 18, its tetrahedron at level 9 and its Cantor measure at level
    10, and of the 2/5-3/5 GeneralIFS1D at level 16."""
    inputs = make_inputs("levels", seed)
    specs = inputs["specs"]
    n = inputs["params"]["atomic"]["mass_level"]
    p = specs["binomial"]["args"][0]
    cases = [(f"support_masses(atomic, 1000 atoms, {n}); cubes", specs["atomic"], n),
             (f"support_masses(binomial_ifs({p:.4g}), 18); cubes", specs["binomial"], 18),
             ("support_masses(tetra, 9); cubes", specs["tetra"], 9),
             ("support_masses(cantor_measure(), 10); cubes", specs["cantor"], 10),
             ("support_masses(GeneralIFS1D 2/5 x, 3/5 x + 2/5, 16); cubes", TWO_FIFTHS, 16)]
    return [(case, _case_code(entry, f"lq.support_masses(spec, {level})", "len(result)"))
            for case, entry, level in cases]


def partition_cases(seed: int) -> list[tuple[str, str]]:
    """(case, child code) of the partition rows, at the sizes of the
    ``partitions`` workload with this seed."""
    inputs = make_inputs("partitions", seed)
    specs, prm = inputs["specs"], inputs["params"]
    adaptive = {item["spec"]: item for item in prm["adaptive"]}
    ent = next(item for item in prm["entropy"] if item["spec"] == "binomial")
    wd = prm["widths"]
    cases = []

    def add(case, name, run, units, setup=""):
        cases.append((case, _case_code(specs[name], run, units, setup)))

    for name in ("binomial", "tetra"):
        a, t = adaptive[name]["a"], adaptive[name]["t"]
        add(f"adaptive_partition({name}, a={a}, t={t:.4g}); cubes", name,
            f"lq.adaptive_partition(spec, {a!r}, {t!r})", "result.cardinality")
    # width_upper_sequence's call: budgets kappa * 2^k, a = rho / m
    add(f"gamma_adaptive_profile({wd['spec']}, kappa * 2^k for k = 1..{wd['log2_n_max']}); "
        "cubes of the finest state", wd["spec"],
        "lq.gamma_adaptive_profile(spec, a, budgets)",
        "int(lq.refinement_profile(spec, a, max(budgets))[-1, 0])",
        f"params = lq.OrderParams({wd['p']!r}, {wd['q']!r}, {wd['ell']}, spec.dim)\n"
        "a = params.rho / params.m\n"
        f"budgets = [lq.kappa(spec.dim, {wd['ell']}) * 2 ** k "
        f"for k in range(1, {wd['log2_n_max'] + 1})]")
    add(f"entropy_estimate(binomial, a={ent['a']}, geomspace(1e2, {ent['t_max']:.4g}, 11)); "
        "cubes of the 11 partitions", "binomial",
        f"lq.entropy_estimate(spec, {ent['a']!r}, np.geomspace(1e2, {ent['t_max']!r}, 11))",
        "int(result.cards.sum())")
    # the partitions of the workload's error chains and polynomial
    # reproduction, without the projection
    for item in prm["project"] + [prm["poly"]]:
        add(f"budget_partition({item['spec']}, a={item['a']:.4g}, {item['budget']}); cubes",
            item["spec"], f"lq.budget_partition(spec, {item['a']!r}, {item['budget']})",
            "result.cardinality")
    # a partition builds its DyadicCube objects on the first read of
    # ``cubes``; each shallow copy of an unread one builds them again
    cases.append(("Partition.cubes of adaptive_partition(binomial_ifs(0.7), a=1.0, t=1e-05), "
                  "100 reads; cubes",
                  _case_code({"call": "binomial_ifs", "args": [0.7]},
                             "[copy.copy(part).cubes for _ in range(100)]",
                             "sum(map(len, result))",
                             "import copy\npart = lq.adaptive_partition(spec, 1.0, 1e-5)")))
    return cases


# the GeneralIFS1D with maps 2/5 x and 3/5 x + 2/5 and weights 1/2
TWO_FIFTHS = {"doc": {"type": "ifs_1d", "weights": [0.5, 0.5],
                      "maps": [{"ratio": {"num": 2, "den": 5}, "offset": {"num": 0, "den": 1}},
                               {"ratio": {"num": 3, "den": 5}, "offset": {"num": 2, "den": 5}}]}}


def oracle_cases(seed: int) -> list[tuple[str, str]]:
    """(case, child code) of the oracle rows: ``gamma_dyadic_vector`` of the
    binomial at the size of the ``partitions`` workload's profile and oracle
    jobs, that workload's 12 ``minimal_dyadic_cardinality`` calls as one row
    (their adaptive partitions are built untimed), the 2/5-3/5
    GeneralIFS1D at k = 16, and the workload's tetrahedron at a = 0.5, k =
    400 and 2-D Lebesgue measure at a = 1, k = 300, where a split cube has 8
    and 4 children.  The work units are budget cubes (k_max, or the sum of
    the k_cap values)."""
    inputs = make_inputs("partitions", seed)
    specs, prm = inputs["specs"], inputs["params"]
    pf = prm["profile"]
    items = [(specs[item["spec"]]["doc"], item["a"], item["t"]) for item in prm["minimality"]]
    minimality = ("cases = []\n"
                  f"for doc, a, t in {items!r}:\n"
                  "    s = lq.parse_spec(doc)\n"
                  "    part = lq.adaptive_partition(s, a, t, max_depth=100)\n"
                  "    cases.append((s, a, t, part.cardinality + 2, part.max_level + 2))")
    return [
        (f"gamma_dyadic_vector({pf['spec']}, a={pf['a']}, {pf['k_max']}); budget cubes",
         _case_code(specs[pf["spec"]], f"lq.gamma_dyadic_vector(spec, {pf['a']!r}, {pf['k_max']})",
                    str(pf["k_max"]))),
        (f"minimal_dyadic_cardinality x {len(items)} (partitions minimality jobs); budget cubes",
         _case_code(specs[prm["minimality"][0]["spec"]],
                    "[lq.minimal_dyadic_cardinality(s, a, t, k_cap=k, max_depth=d) "
                    "for s, a, t, k, d in cases]", "sum(case[3] for case in cases)", minimality)),
        ("gamma_dyadic_vector(GeneralIFS1D 2/5 x, 3/5 x + 2/5, a=1.0, 16); budget cubes",
         _case_code(TWO_FIFTHS, "lq.gamma_dyadic_vector(spec, 1.0, 16)", "16")),
    ] + [(f"gamma_dyadic_vector({name}, a={a}, {k}); budget cubes",
          _case_code(specs[name], f"lq.gamma_dyadic_vector(spec, {a!r}, {k})", str(k)))
         for name, a, k in (("tetra", 0.5, 400), ("lebesgue2", 1.0, 300))]


def eigen_cases() -> list[tuple[str, str]]:
    """(case, child code) of the Krein-Feller rows, timed like the partition
    rows: ``discretize(binomial_ifs(0.7), 18)``, which builds and checks a
    262,144-atom AtomicApprox, and ``solve_eigen(discretize(binomial_ifs(0.7),
    n))`` and ``order_fit(binomial_ifs(0.7), [n])`` at n = 13 and 14, where
    every one of the 2^n atoms has positive mass and every eigenvalue is
    solved for.  The work units are atoms."""
    binomial = {"call": "binomial_ifs", "args": [0.7]}
    return [("discretize(binomial_ifs(0.7), 18); atoms",
             _case_code(binomial, "lq.discretize(spec, 18)", "result.size"))] + [
        case for n in (13, 14) for case in (
        (f"solve_eigen(discretize(binomial_ifs(0.7), {n})); atoms",
         _case_code(binomial, f"lq.solve_eigen(lq.discretize(spec, {n}))", "result.size")),
        (f"order_fit(binomial_ifs(0.7), [{n}]); atoms",
         _case_code(binomial, f"lq.order_fit(spec, [{n}])", str(1 << n))))]


def polyapprox_cases(seed: int) -> list[tuple[str, str]]:
    """(case, child code) of the polyapprox rows, at the sizes of the
    ``partitions`` workload with this seed: the workload's two
    budget_partition -> piecewise_project -> error_Lq chains, their parts on
    the binomial and the density, and the sampler on the workload's
    tetrahedron and on the Cantor measure."""
    inputs = make_inputs("partitions", seed)
    specs, prm = inputs["specs"], inputs["params"]
    expsum = "u = lambda pts: np.exp(pts.sum(axis=1))\n"
    cases = []
    for item in prm["project"]:
        name, n = item["spec"], item["samples"]
        chain = (f"lq.error_Lq(u, lq.piecewise_project(u, lq.budget_partition(spec, {item['a']!r}, "
                 f"{item['budget']}), 1), spec, {item['q']!r}, n_samples={n}, seed={item['seed']})")
        cases.append((f"sample_measure({name}, {n}); samples",
                      _case_code(specs[name], f"lq.sample_measure(spec, {n}, np.random.default_rng(1))",
                                 str(n))))
        if name == "binomial":
            cases.append((f"evaluate(ell=1 on budget_partition({name}, {item['budget']}), {n} points); "
                          "points",
                          _case_code(specs[name], "approx.evaluate(pts)", str(n), expsum +
                                     f"approx = lq.piecewise_project(u, lq.budget_partition(spec, "
                                     f"{item['a']!r}, {item['budget']}), 1)\n"
                                     f"pts = lq.sample_measure(spec, {n}, np.random.default_rng(1))")))
        cases.append((f"budget_partition -> piecewise_project -> error_Lq({name}, budget "
                       f"{item['budget']}, q={item['q']}, {n} samples); samples",
                       _case_code(specs[name], chain, str(n), expsum)))
    # the sampler on four maps in 3-D and on a GeneralIFS1D, at the size of
    # the first chain
    n = prm["project"][0]["samples"]
    for name, entry in (("tetra", specs["tetra"]), ("cantor", {"call": "cantor_measure", "args": []})):
        cases.append((f"sample_measure({name}, {n}); samples",
                      _case_code(entry, f"lq.sample_measure(spec, {n}, np.random.default_rng(1))",
                                 str(n))))
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout (holds src/lqspectra)")
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the cli, partitions and levels workload inputs")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "src" / "lqspectra").is_dir():
            parser.error(f"{tree} holds no src/lqspectra")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = bench_cli_arguments(work, args.seed)
        # each measure returns (seconds, work units or None)
        cases = [("import", "import lqspectra", None,
                  lambda tree: (_child_seconds(tree, IMPORT_CHILD), None))]
        for name, cmd in argv.items():
            cases.append(("cli", name, " ".join(cmd).replace(str(work), "<tmp>"),
                          lambda tree, cmd=cmd: (_cli_seconds(tree, cmd, work / "out"), None)))
        cases.append(("kreinfeller",
                      "split_counting_check(binomial_ifs(0.7), 12, cuts [0.25, 0.75], 50 x); atoms",
                      4096, lambda tree: (_child_seconds(tree, SPLIT_CHILD), 4096)))
        for case, code in eigen_cases():
            cases.append(("kreinfeller", case, None,
                          lambda tree, code=code: _child_units(tree, code)))
        for layer, layer_cases in (("partition", partition_cases), ("oracle", oracle_cases),
                                   ("measures", measures_cases), ("spectrum", spectrum_cases),
                                   ("polyapprox", polyapprox_cases)):
            for case, code in layer_cases(args.seed):
                cases.append((layer, case, None,
                              lambda tree, code=code: _child_units(tree, code)))

        times = {(case[1], side): [] for case in cases for side in trees}
        units = {}
        for rep in range(args.reps):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for _, case, _, measure in cases:
                for side in order:
                    seconds, units[case] = measure(trees[side])
                    times[case, side].append(seconds)
            print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr)

    import numpy
    import scipy

    doc = {
        "number": args.number,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "machine": platform.machine()},
        "rows": [],
    }
    for layer, case, size, _ in cases:
        median = {side: statistics.median(times[case, side]) for side in trees}
        doc["rows"].append({
            "layer": layer, "case": case, "size": size if size is not None else units[case],
            "median_s": {side: round(median[side], 4) for side in trees},
            "units_per_s": None if units[case] is None else
            {side: round(units[case] / median[side]) for side in trees},
            "reps": args.reps})
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in doc["rows"]:
        print(f"{row['layer']:12s} {row['case'][:40]:40s} "
              f"{row['median_s']['parent']:8.4f} -> {row['median_s']['change']:8.4f}")


if __name__ == "__main__":
    main()
