"""Batch front door: parse measure specs, dispatch computations, emit CSV/JSON.

All outputs are plain CSV (plot-tool agnostic) or JSON dumps; nothing is
rendered.  Every table carries a header naming the emitted quantities, and
identical configuration plus seed produces byte-identical files.

Exit codes: 0 on success, 1 on parameter errors (bad flags, malformed or
invalid measure files, a partition deeper than --max-depth, levels too deep
for the memory at hand), 2 on failed internal assertions.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import _checks, measures
from .kreinfeller import discretize, order_fit, solve_eigen, split_counting_check
from .measures import MeasureSpec, load_spec
from .partition import (
    MaxDepthExceeded,
    adaptive_partition,
    budget_partition,
    entropy_estimate,
)
from .polyapprox import FunctionHandle, error_from_sample, error_sample, kappa, piecewise_project
from .spectrum import (
    OrderParams,
    _fixed_points,
    s_b_estimate,
    selfsimilar_s_rho,
    spectrum_curve,
)


class ParameterError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ParameterError(message)


# ---------------------------------------------------------------------------
# Flag types: argparse applies them, so a malformed value names its flag
# ---------------------------------------------------------------------------

def _flag_type(parse):
    """The argparse type that reports a ValueError of ``parse`` as its flag's error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _nonempty(out: list, text: str) -> list:
    if not out:
        raise ParameterError(f"the list {text!r} is empty")
    return out


@_flag_type
def _ints(text: str) -> list[int]:
    """'4..8' or '4,6,8' -> nonempty list of ints >= 1."""
    lo, dots, hi = text.partition("..")
    ints = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",") if x]
    if min(_nonempty(ints, text)) < 1:
        raise ParameterError(f"{text!r} is not a list of integers >= 1")
    return ints


@_flag_type
def _levels(text: str) -> list[int]:
    """Strictly increasing :func:`_ints`."""
    return list(_checks.levels("levels", _ints(text)))


@_flag_type
def _count(text: str) -> int:
    """'50' -> an integer >= 1."""
    count = int(text)
    if count < 1:
        raise ParameterError(f"{text!r} is not an integer >= 1")
    return count


def _max_depth(text: str) -> int:
    depth = int(text)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {depth})")
    return depth


@_flag_type
def _floats(text: str) -> list[float]:
    """'0.5,1' -> nonempty list of floats."""
    return _nonempty([float(x) for x in text.split(",") if x], text)


@_flag_type
def _grid(text: str) -> np.ndarray:
    """Geometric grid 'start,factor,count'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError("geometric grids are written start,factor,count")
    start, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < start < math.inf and 1 < factor < math.inf and count >= 2):
        raise ParameterError("need finite start > 0, finite factor > 1, count >= 2")
    with np.errstate(over="ignore"):
        grid = start * factor ** np.arange(count)
    if not np.all(np.isfinite(grid)):
        raise ParameterError(f"the grid {text!r} overflows to inf")
    return grid


@_flag_type
def _sgrid(text: str) -> np.ndarray:
    """Uniform grid 'start:stop:count'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError("s grids are written start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop) and count >= 1):
        raise ParameterError(f"s grid {text!r}: start and stop must be finite values, count >= 1")
    return np.linspace(start, stop, count)


@_flag_type
def _window(text: str) -> tuple[int, int]:
    """Eigenvalue index window 'lo,hi'."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"--window is written lo,hi (got {text!r})")
    return _checks.count("lo", int(parts[0])), int(parts[1])


def _resolve_measure(name: str) -> MeasureSpec:
    path = Path(name)
    if path.exists():
        return load_spec(path)
    res = resources.files("lqspectra").joinpath(f"data/{name}.json")
    if not res.is_file():
        raise ParameterError(
            f"measure {name!r}: no such file, and no shipped spec of that name"
        )
    return measures.parse_spec(json.loads(res.read_text()))


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> None:
    spec = _resolve_measure(args.measure)
    rows = []
    for n in args.levels:
        curve = spectrum_curve(spec, n, args.s_grid)
        for s, beta in zip(curve.s_grid, curve.values):
            rows.append((curve.level, s, beta))
    _write_csv(Path(args.out) / "spectrum.csv", ["level", "s", "beta_n"], rows)


def _cmd_fixedpoint(args) -> None:
    spec = _resolve_measure(args.measure)
    rows = []
    for b, fp in zip(args.b, _fixed_points(spec, args.b, args.levels)):
        for lvl, root, res in zip(fp.levels, fp.roots, fp.residuals):
            rows.append((lvl, b, root, res))
        print(f"b={b}: s_hat = {fp.s_hat!r} (tail max of {len(fp.levels)} levels)")
    _write_csv(Path(args.out) / "fixedpoint.csv",
               ["level", "b", "s_nb", "residual"], rows)


def _cmd_partition(args) -> None:
    spec = _resolve_measure(args.measure)
    if args.t is None and args.t_grid is None:
        raise ParameterError("give --t or --t-grid")
    thresholds = [args.t] if args.t is not None else list(args.t_grid)
    rows = []
    for t in thresholds:
        part = adaptive_partition(spec, args.a, t, max_depth=args.max_depth)
        rows.append((t, part.cardinality, part.max_j, part.max_level))
    _write_csv(Path(args.out) / "partition_stats.csv",
               ["t", "cardinality", "max_J_a", "depth_max"], rows)
    if args.dump:  # the partition of the last threshold
        out = Path(args.out) / "partition.json"
        out.write_text(json.dumps(part.to_records(), indent=1) + "\n", encoding="utf-8")


def _cmd_entropy(args) -> None:
    spec = _resolve_measure(args.measure)
    fits = [entropy_estimate(spec, a, args.t_grid, max_depth=args.max_depth) for a in args.a]
    fixed_points = _fixed_points(spec, [a * spec.dim for a in args.a], args.levels)
    samples = []
    summary = []
    for a, fit, fp in zip(args.a, fits, fixed_points):
        s_am = fp.s_hat
        for t, card in zip(fit.t_grid, fit.cards):
            samples.append((a, t, int(card)))
        summary.append((a, fit.slope, s_am, fit.r_squared, fit.slope - s_am))
        print(f"a={a}: h_hat = {fit.slope:.4f}  s_am_hat = {s_am:.4f}  "
              f"(h_hat - s_am_hat = {fit.slope - s_am:+.4f})")
    _write_csv(Path(args.out) / "entropy_samples.csv", ["a", "t", "cardinality"], samples)
    _write_csv(Path(args.out) / "entropy_summary.csv",
               ["a", "h_a_hat", "s_am_hat", "r_squared", "excess_over_s_am"], summary)


_TEST_FUNCTIONS = {
    "expsum": lambda pts: np.exp(pts.sum(axis=1)),
    "sinpi": lambda pts: np.sin(np.pi * pts.sum(axis=1)),
    "sqrtnorm": lambda pts: np.sqrt(pts.sum(axis=1)),
}


def _cmd_project(args) -> None:
    spec = _resolve_measure(args.measure)
    params = OrderParams(p=args.p, q=args.q, ell=args.ell, m=spec.dim)
    if args.function not in _TEST_FUNCTIONS:
        raise ParameterError(f"unknown test function {args.function!r}")
    u = FunctionHandle(_TEST_FUNCTIONS[args.function])
    a = params.rho / params.m
    kap = kappa(params.m, params.ell)
    # one sample for every budget: error_Lq with this seed draws the same
    # points for each of them
    sample = error_sample(u, spec, args.q, n_samples=args.samples, seed=args.seed)
    rows = []
    for n in args.n_list:
        try:
            part = budget_partition(spec, a, n, max_depth=args.max_depth)
        except MaxDepthExceeded as exc:
            raise ParameterError(
                f"budget {n} needs cubes deeper than --max-depth {args.max_depth} "
                f"(a cube at depth {exc.cube.level} still has J_a = {exc.j_value!r}); "
                "raise --max-depth or lower the budget"
            ) from exc
        approx = piecewise_project(u, part, args.ell)
        err, se = error_from_sample(sample, approx)
        bound = part.max_j ** (1.0 / args.q)
        rows.append((kap * n, part.max_j, bound, err, se))
    _write_csv(Path(args.out) / "projection_errors.csv",
               ["n", "max_J_a", "bound", "measured_error", "stderr"], rows)


def _cmd_eigen(args) -> None:
    spec = _resolve_measure(args.measure)
    atoms = discretize(spec, args.level)
    eigs = solve_eigen(atoms)
    if args.cuts:  # checked before any file is written
        lam = eigs.eigenvalues
        xs = np.geomspace(lam[-1] * 0.9, lam[0] * 1.1, args.x_count)
        report = split_counting_check(atoms, args.level, args.cuts, xs)
    rows = [(i + 1, lam, math.sqrt(lam)) for i, lam in enumerate(eigs.eigenvalues)]
    _write_csv(Path(args.out) / "eigen.csv", ["n", "lambda_n", "sqrt_lambda"], rows)
    if args.cuts:
        _write_csv(Path(args.out) / "sandwich.csv",
                   ["x", "N_full", "N_split_sum", "gap"],
                   zip(report.x_grid, report.n_full, report.n_split_sum, report.gaps))
        if not report.passed:
            raise RuntimeError("counting-function sandwich violated")
        print(f"sandwich ok at {len(xs)} grid points (cuts {args.cuts})")


def _cmd_order(args) -> None:
    spec = _resolve_measure(args.measure)
    fit = order_fit(spec, args.levels, index_window=args.window)
    rows = []
    for lvl, slope in fit.per_level:
        err = fit.stderr if lvl == fit.level else ""
        rows.append((lvl, slope, err, fit.reference_slope))
    _write_csv(Path(args.out) / "order.csv",
               ["level", "slope", "stderr", "target_slope"], rows)
    print(f"slope at level {fit.level}: {fit.slope:.4f} +- {fit.stderr:.4f} "
          f"(target -1/s_1 = {fit.reference_slope:.4f}, drift {fit.drift:.4f})")


def _cmd_demo(args) -> None:
    if args.name != "fig1":
        raise ParameterError(f"unknown demo {args.name!r} (available: fig1)")
    spec = _resolve_measure("fig1_tetraeder")
    weights = list(spec.weights)
    ratios = [0.5] * 4
    rho = 2.0
    m = 3
    sgrid = np.linspace(0.0, 1.4, 57)
    curve = spectrum_curve(spec, 6, sgrid)
    _write_csv(Path(args.out) / "fig1_curve.csv", ["s", "beta_n"],
               zip(curve.s_grid, curve.values))
    beta0 = float(curve.values[0])
    s_rho = selfsimilar_s_rho(weights, ratios, rho)
    s_n2 = s_b_estimate(spec, rho, [4, 6, 8, 10]).s_hat
    rows = [
        ("beta_n(0)", beta0, 2.0, abs(beta0 - 2.0) < 1e-12),
        # 0.425 is the figure's axis label, read at its 0.01 tick resolution;
        # the exact value is the root of sum_i (p_i r_i^rho)^s = 1 (0.419354...).
        ("s_rho", s_rho, 0.425, abs(s_rho - 0.425) <= 0.01),
        ("s_n_rho_level10", s_n2, s_rho, abs(s_n2 - s_rho) <= 0.01),
        ("lebesgue_intersection m/(m+rho)", m / (m + rho), 0.6,
         m / (m + rho) == 0.6),
    ]
    _write_csv(Path(args.out) / "fig1_markers.csv",
               ["quantity", "computed", "reference", "matches_figure"], rows)
    for name, computed, ref, ok in rows:
        print(f"{name}: computed {computed!r} vs reference {ref!r} -> "
              f"{'match' if ok else 'MISMATCH'}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="lqspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, measure=True, max_depth=False):
        if measure:
            p.add_argument("--measure", required=True,
                           help="measure spec JSON path, or a shipped name like lebesgue_1d")
        p.add_argument("--out", default=".", help="output directory")
        if max_depth:
            p.add_argument("--max-depth", type=_max_depth, default=60)

    p = sub.add_parser("spectrum", help="level spectra beta_n over an s grid")
    common(p)
    p.add_argument("--levels", type=_levels, default="1..6", help="'a..b' or comma list")
    p.add_argument("--s-grid", type=_sgrid, default="0:2:9", help="start:stop:count")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fixedpoint", help="roots s_nb of beta_n(s) = b s")
    common(p)
    p.add_argument("--levels", type=_levels, default="1..8")
    p.add_argument("--b", type=_floats, default="1", help="comma list of slopes b > 0")
    p.set_defaults(func=_cmd_fixedpoint)

    p = sub.add_parser("partition", help="adaptive threshold partitions")
    common(p, max_depth=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", type=_grid, default=None, help="start,factor,count of thresholds")
    p.add_argument("--dump", action="store_true", help="write partition.json")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("entropy", help="partition-entropy fits vs fixed points")
    common(p, max_depth=True)
    p.add_argument("--a", type=_floats, default="1", help="comma list of exponents")
    p.add_argument("--t-grid", type=_grid, default="100,10,7")
    p.add_argument("--levels", type=_levels, default="1..8", help="levels for the s_am estimate")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("project", help="piecewise-polynomial error vs width bound")
    common(p, max_depth=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the Monte Carlo sample")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n-list", type=_ints, default="2,4,8,16,32,64", help="cube budgets")
    p.add_argument("--function", default="expsum",
                   help=f"test oracle, one of {sorted(_TEST_FUNCTIONS)}")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("eigen", help="atomic eigenvalues; optional counting sandwich")
    common(p)
    p.add_argument("--level", type=int, default=8)
    p.add_argument("--cuts", type=_floats, default=None, help="comma list of cut points in (0,1)")
    p.add_argument("--x-count", type=_count, default=50)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("order", help="eigenvalue decay order vs -1/s_1")
    common(p)
    p.add_argument("--levels", type=_levels, default="8..11")
    p.add_argument("--window", type=_window, default=None, help="lo,hi eigenvalue index window")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("demo", help="reproduce shipped reference computations")
    p.add_argument("name", help="demo name (fig1)")
    common(p, measure=False)
    p.set_defaults(func=_cmd_demo)

    return parser


def _out_of_memory(args) -> str:
    """The error text of a subcommand that ran out of memory: the deepest
    level it was asked for and the flag that sets it."""
    if args.command == "eigen":
        return f"out of memory at level {args.level}; lower --level"
    if args.command in ("partition", "project"):
        return (f"out of memory in a walk that may reach depth {args.max_depth}; "
                "lower --max-depth")
    if args.command == "entropy":
        return (f"out of memory at levels up to {args.levels[-1]} or in a walk that may "
                f"reach depth {args.max_depth}; lower --levels or --max-depth")
    if args.command == "demo":
        return "out of memory"
    return f"out of memory at levels up to {args.levels[-1]}; lower --levels"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {_out_of_memory(args)}", file=sys.stderr)
        return 1
    except MaxDepthExceeded as exc:
        print(f"error: a cube at depth {exc.cube.level} still has J_a = {exc.j_value!r} "
              f">= t = {exc.threshold!r}; raise --max-depth (now {args.max_depth}) "
              "or loosen the threshold", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
