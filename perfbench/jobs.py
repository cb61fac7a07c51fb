"""Job lists of the three workloads, each job with its independent check.

A job is one operation: one call into the program's public API (a short
chain such as budget_partition -> piecewise_project -> error_Lq counts as
one), or one CLI subcommand in a fresh interpreter.  Its check compares the
result with a reference from ``refs`` or with a property the method must
have, and returns a list of problems.  ``perturb`` lists altered copies of a
good result that the check must reject; ``selftest.py`` feeds them in.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

import lqspectra as lq

import refs
from specs import build_spec

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    perturb: list[tuple[str, Callable[[Any], Any]]] = field(default_factory=list)


def _bumped(arr, i: int, delta: float) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out[i] += delta
    return out


# ---------------------------------------------------------------------------
# levels: spectra and fixed points on every measure family
# ---------------------------------------------------------------------------

RATIO_HALF = ("binomial", "tetra")


def _levels_reference(name: str, spec):
    """(reference masses at level n, reference beta_n(s)) for one family."""
    if name in RATIO_HALF:
        weights = list(spec.weights)

        def masses(n):
            return refs.product_masses(weights, n)

        def beta(n, s):
            return refs.selfsimilar_beta(weights, s)

        return masses, beta
    if name == "cantor":
        masses = refs.cantor_masses
    elif name in ("atomic", "exp_decay"):
        def masses(n):
            return refs.atomic_masses(list(spec.points), list(spec.weights), n)
    elif name == "density2d":
        def masses(n):
            return refs.density_masses(spec.values, spec.depth, n)
    elif name == "mixture":
        (c, _), (_, binomial) = spec.components

        def masses(n):
            return refs.mixture_binomial_masses(c, binomial.weights[0], n)
    elif name == "mixed_ratio":
        images = [(mp.ratio_log2, int(mp.offset[0] * (1 << mp.ratio_log2))) for mp in spec.maps]

        def masses(n):
            return refs.mixed_ratio_masses(images, list(spec.weights), n)
    else:
        raise KeyError(name)
    cache: dict[int, np.ndarray] = {}

    def cached(n):
        if n not in cache:
            cache[n] = masses(n)
        return cache[n]

    def beta(n, s):
        return refs.beta_from_masses(cached(n), n, s)

    return cached, beta


def levels_jobs(inputs: dict) -> list[Job]:
    jobs = []
    for name, entry in inputs["specs"].items():
        spec = build_spec(entry)
        prm = inputs["params"][name]
        ref_masses, ref_beta = _levels_reference(name, spec)
        # Cantor masses are exact only to the spec's mass_tol (1e-12 each)
        exact = name != "cantor"
        mass_tol = (1e-12, 0.0) if exact else (0.0, 2e-12)
        value_tol = 1e-10 if exact else 1e-9
        root_tol = 1e-9 if exact else 1e-8

        def ref_root(n, b, ref_beta=ref_beta):
            return refs.root(lambda s: ref_beta(n, s), b)

        n_mass, n_curve, n_nb = prm["mass_level"], prm["curve_level"], prm["nb_level"]
        est_levels, grid = prm["est_levels"], prm["s_grid"]
        b_est, b_nb = prm["b_est"], prm["b_nb"]

        def check_masses(res, _all, n=n_mass, ref_masses=ref_masses, tol=mass_tol):
            return refs.check_masses(res, ref_masses(n), rtol=tol[0], atol=tol[1])

        def check_curve(res, _all, n=n_curve, grid=grid, ref_beta=ref_beta, tol=value_tol):
            out = refs.check_close("s grid", res.s_grid, grid, 0.0)
            if res.level != n:
                out.append(f"level {res.level}, asked for {n}")
            if out:
                return out
            out += refs.check_close(f"beta_{n}", res.values, [ref_beta(n, s) for s in grid], tol)
            out += refs.check_close(f"beta_{n}(1)", res.values[grid.index(1.0)], 0.0, tol)
            return out

        def check_estimate(res, _all, levels=est_levels, b=b_est, ref_root=ref_root,
                           tol=root_tol):
            if list(res.levels) != levels:
                return [f"levels {res.levels}, asked for {levels}"]
            want = [ref_root(n, b) for n in levels]
            out = refs.check_close("s_nb roots", res.roots, want, tol)
            out += refs.check_close("s_hat", res.s_hat, max(want[-((len(want) + 1) // 2):]), tol)
            out += refs.check_close("residuals", res.residuals, np.zeros(len(levels)), 1e-9)
            return out

        def check_nb(res, _all, n=n_nb, b=b_nb, ref_root=ref_root, tol=root_tol):
            return refs.check_close(f"s_{n},{b}", res, ref_root(n, b), tol)

        one = grid.index(1.0)
        jobs += [
            Job(f"{name}/support_masses",
                lambda spec=spec, n=n_mass: lq.support_masses(spec, n), check_masses,
                [("masses x (1 + 1e-9)", lambda r: r * (1.0 + 1e-9)),
                 ("one cube dropped", lambda r: r[1:])]),
            Job(f"{name}/spectrum_curve",
                lambda spec=spec, n=n_curve, grid=grid: lq.spectrum_curve(spec, n, grid),
                check_curve,
                [("one beta value + 1e-8",
                  lambda r: dataclasses.replace(r, values=_bumped(r.values, len(r.values) // 2, 1e-8))),
                 ("beta_n(1) = 1e-8",
                  lambda r, one=one: dataclasses.replace(r, values=_bumped(r.values, one, 1e-8)))]),
            Job(f"{name}/s_b_estimate",
                lambda spec=spec, b=b_est, lv=est_levels: lq.s_b_estimate(spec, b, lv),
                check_estimate,
                [("last root + 1e-6", lambda r: dataclasses.replace(r, roots=_bumped(r.roots, -1, 1e-6))),
                 ("s_hat + 1e-6", lambda r: dataclasses.replace(r, s_hat=r.s_hat + 1e-6))]),
            Job(f"{name}/s_nb", lambda spec=spec, n=n_nb, b=b_nb: lq.s_nb(spec, n, b), check_nb,
                [("root + 1e-6", lambda r: r + 1e-6)]),
        ]
    return jobs


# ---------------------------------------------------------------------------
# partitions: adaptive family, exact oracle, projections and errors
# ---------------------------------------------------------------------------


def _closed_form(spec) -> list[float] | None:
    """Weights of a ratio-1/2 IFS (Lebesgue included), else None."""
    if isinstance(spec, lq.Lebesgue):
        return [math.ldexp(1.0, -spec.dim)] * (1 << spec.dim)
    if isinstance(spec, lq.DyadicIFS) and all(mp.ratio_log2 == 1 for mp in spec.maps):
        return list(spec.weights)
    return None


def _density_j_count(spec, a: float, t: float) -> tuple[int, int]:
    """#{Q : J_a(Q) >= t} for a grid density, from block-sum masses."""
    m = spec.dim
    low = high = 0
    n = 0
    while True:
        j = 2.0 ** (-n * m * a) * refs.density_masses(spec.values, spec.depth, n)
        if j.max() < t * (1.0 - 1e-9):
            return low, high
        low += int(np.sum(j >= t * (1.0 + 1e-9)))
        high += int(np.sum(j >= t * (1.0 - 1e-9)))
        n += 1


def _check_card(card: int, spec, a: float, t: float) -> list[str]:
    weights = _closed_form(spec)
    if weights is not None:
        return refs.check_cardinality(card, weights, spec.dim, a, t)
    low, high = _density_j_count(spec, a, t)
    k = (1 << spec.dim) - 1
    if not (1 + k * low <= card <= 1 + k * high):
        return [f"cardinality {card} at t={t!r}, block sums give {1 + k * low}"]
    return []


def _check_profile_value(gamma: float, budget: int, weights, m: int, a: float) -> list[str]:
    """gamma_hat(n) = g means: splitting every cube with J_a > g fits the
    budget n, and splitting every cube with J_a >= g does not."""
    low, high = refs.j_count_bounds(weights, m, a, gamma)
    k = (1 << m) - 1
    if not (1 + k * low <= budget < 1 + k * high):
        return [f"gamma_hat({budget}) = {gamma!r} is not the adaptive optimum "
                f"(closed-form cardinalities {1 + k * low}, {1 + k * high})"]
    return []


def _lipschitz_bound(part, m: int) -> float:
    """Lip(exp(x_1 + ... + x_m)) * max diam(Q) over positive-mass cubes:
    sqrt(m) e^m times sqrt(m) 2^-level."""
    levels = [c.level for c, mass in zip(part.cubes, part.masses) if mass > 0]
    return m * math.exp(m) * math.ldexp(1.0, -min(levels))


def _expsum(pts):
    return np.exp(pts.sum(axis=1))


def _poly3(coeffs):
    """Quadratic in three variables with the given 10 coefficients."""
    def u(pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        terms = [np.ones_like(x), x, y, z, x * x, x * y, x * z, y * y, y * z, z * z]
        return sum(c * term for c, term in zip(coeffs, terms))
    return u


def partitions_jobs(inputs: dict) -> list[Job]:
    specs = {name: build_spec(entry) for name, entry in inputs["specs"].items()}
    prm = inputs["params"]
    jobs = []

    for item in prm["adaptive"]:
        spec, a, t = specs[item["spec"]], item["a"], item["t"]

        def check(res, _all, spec=spec, a=a, t=t):
            out = refs.check_tiling(res.cubes)
            if res.max_j >= t:
                out.append(f"a cube has J_a = {res.max_j!r} >= t = {t!r}")
            return out + _check_card(res.cardinality, spec, a, t)

        jobs.append(Job(f"adaptive_partition/{item['spec']}",
                        lambda spec=spec, a=a, t=t: lq.adaptive_partition(spec, a, t), check,
                        [("last cube dropped", lambda r: dataclasses.replace(
                            r, cubes=r.cubes[:-1], masses=r.masses[:-1], j_values=r.j_values[:-1]))]))

    for item in prm["entropy"]:
        spec, a = specs[item["spec"]], item["a"]
        grid = np.geomspace(1e2, item["t_max"], 11)
        weights = _closed_form(spec)
        s_am = refs.root(lambda s, w=weights: refs.selfsimilar_beta(w, s), a * spec.dim)

        def check(res, _all, spec=spec, a=a, grid=grid, s_am=s_am):
            out = refs.check_close("t grid", res.t_grid, grid, 0.0)
            for t, card in zip(grid, res.cards):
                out += _check_card(int(card), spec, a, 1.0 / t)
            if res.slope > s_am + 0.05:
                out.append(f"entropy slope {res.slope:.4f} above s_am + 0.05 = {s_am + 0.05:.4f}")
            return out

        jobs.append(Job(f"entropy_estimate/{item['spec']}",
                        lambda spec=spec, a=a, grid=grid: lq.entropy_estimate(spec, a, grid), check,
                        [("last cardinality + 7", lambda r: dataclasses.replace(r, cards=_bumped(r.cards, -1, 7))),
                         ("slope + 1", lambda r: dataclasses.replace(r, slope=r.slope + 1.0))]))

    pf = prm["profile"]
    spec, a, k_max = specs[pf["spec"]], pf["a"], pf["k_max"]
    budgets = list(range(1, k_max + 1))

    def check_profile(res, _all, spec=spec, a=a):
        weights = _closed_form(spec)
        if np.any(np.diff(res) > 0):
            return ["adaptive profile increases with the budget"]
        out = []
        for n in range(1, len(res) + 1, 7):
            out += _check_profile_value(float(res[n - 1]), n, weights, spec.dim, a)
        return out

    jobs.append(Job("gamma_adaptive_profile/binomial",
                    lambda spec=spec, a=a, b=budgets: lq.gamma_adaptive_profile(spec, a, b),
                    check_profile,
                    [("profile reversed", lambda r: r[::-1].copy()),
                     ("one gamma x 0.9", lambda r: _bumped(r, 35, -0.1 * r[35]))]))

    def check_oracle(res, all_results, k_max=k_max):
        profile = all_results["gamma_adaptive_profile/binomial"]
        out = []
        if len(res) != k_max + 1 or not math.isinf(res[0]) or res[1] != 1.0:
            return [f"oracle vector has length {len(res)}, v[0] = {res[0]}, v[1] = {res[1]}"]
        if np.any(np.diff(res[1:]) > 0):
            out.append("oracle vector increases with the budget")
        above = res[1:] > np.asarray(profile) * (1.0 + 1e-12)
        if np.any(above):
            k = int(np.argmax(above)) + 1
            out.append(f"oracle {res[k]!r} above the adaptive profile {profile[k - 1]!r} at k={k}")
        return out

    jobs.append(Job("gamma_dyadic_vector/binomial",
                    lambda spec=spec, a=a, k=k_max: lq.gamma_dyadic_vector(spec, a, k),
                    check_oracle,
                    [("one entry x 1.5", lambda r: _bumped(r, len(r) // 2, 0.5 * r[len(r) // 2]))]))

    wd = prm["widths"]
    spec = specs[wd["spec"]]
    params = lq.OrderParams(wd["p"], wd["q"], wd["ell"], spec.dim)
    n_list = [2 ** k for k in range(1, wd["log2_n_max"] + 1)]

    def check_widths(res, _all, spec=spec, params=params, n_list=n_list):
        kap = math.comb(params.m + params.ell - 1, params.m)
        out = refs.check_close("dimensions", res.dimensions, [kap * n for n in n_list], 0.0)
        out += refs.check_close("bounds", res.bounds, res.gammas ** (1.0 / params.q), 1e-15)
        a = params.rho / params.m
        for n, g in zip(res.dimensions, res.gammas):
            out += _check_profile_value(float(g), int(n), _closed_form(spec), spec.dim, a)
        return out

    jobs.append(Job("width_upper_sequence/tetra",
                    lambda spec=spec, params=params, n=n_list: lq.width_upper_sequence(spec, params, n),
                    check_widths,
                    [("one gamma x 0.5", lambda r: dataclasses.replace(r, gammas=_bumped(r.gammas, 4, -0.5 * r.gammas[4])))]))

    for i, item in enumerate(prm["minimality"]):
        spec, a, t = specs[item["spec"]], item["a"], item["t"]

        def minimality(spec=spec, a=a, t=t):
            part = lq.adaptive_partition(spec, a, t, max_depth=100)
            k_min = lq.minimal_dyadic_cardinality(spec, a, t, k_cap=part.cardinality + 2,
                                                  max_depth=part.max_level + 2)
            return part, k_min

        def check(res, _all):
            part, k_min = res
            out = refs.check_tiling(part.cubes)
            if k_min != part.cardinality:
                out.append(f"oracle minimum {k_min} != adaptive cardinality {part.cardinality}")
            return out

        jobs.append(Job(f"minimal_dyadic_cardinality/atoms{i}", minimality, check,
                        [("oracle minimum + 1", lambda r: (r[0], r[1] + 1))]))

    for item in prm["project"]:
        spec = specs[item["spec"]]

        def project(spec=spec, item=item):
            part = lq.budget_partition(spec, item["a"], item["budget"])
            approx = lq.piecewise_project(_expsum, part, 1)
            err, se = lq.error_Lq(_expsum, approx, spec, item["q"],
                                  n_samples=item["samples"], seed=item["seed"])
            return part, approx, err, se

        if isinstance(spec, lq.DyadicDensity):
            def sub_masses(cube, k, spec=spec):
                return refs.density_sub_masses(spec.values, spec.depth, cube.level, cube.index, k)
        else:
            def sub_masses(cube, k, p=spec.weights[0]):
                return refs.binomial_sub_masses(p, cube.level, cube.index, k)

        def check(res, _all, spec=spec, item=item, sub_masses=sub_masses):
            part, approx, err, se = res
            out = refs.check_tiling(part.cubes)
            if part.cardinality > item["budget"]:
                out.append(f"{part.cardinality} cubes exceed the budget {item['budget']}")
            bound = _lipschitz_bound(part, spec.dim)
            if not (0.0 <= err <= bound) or not (se >= 0.0):
                out.append(f"ell=1 error {err!r} (se {se!r}) outside [0, Lip * diam = {bound!r}]")
            # the Monte Carlo estimate against a midpoint sum over 2^10 (1D) or
            # 2^12 (2D) sub-cubes per cube, which is within 3e-4 relative of the
            # sum over 4 times as many: 6 standard errors plus 0.2%
            ref = refs.expsum_mean_error(part.cubes, sub_masses, item["q"], 6 if spec.dim > 1 else 10)
            if abs(err - ref) > 6.0 * se + 0.002 * ref:
                out.append(f"ell=1 error {err!r} (se {se!r}), midpoint sum gives {ref!r}")
            return out

        jobs.append(Job(f"project_error/{item['spec']}", project, check,
                        [("error x 1000", lambda r: (r[0], r[1], r[2] * 1000.0, r[3])),
                         ("error x 0.5", lambda r: (r[0], r[1], r[2] * 0.5, r[3])),
                         ("error = 0", lambda r: (r[0], r[1], 0.0, r[3]))]))

    pl = prm["poly"]
    spec = specs[pl["spec"]]
    poly = _poly3(pl["coeffs"])
    pts = 1.0 - np.random.default_rng(pl["seed"]).random((pl["points"], 3))

    def reproduce(spec=spec, pl=pl, poly=poly, pts=pts):
        part = lq.budget_partition(spec, pl["a"], pl["budget"])
        approx = lq.piecewise_project(poly, part, pl["ell"])
        return part, approx.evaluate(pts)

    def check_poly(res, _all, poly=poly, pts=pts):
        part, values = res
        want = poly(pts)
        out = refs.check_tiling(part.cubes)
        return out + refs.check_close("degree-2 polynomial", values, want,
                                      1e-10 * max(1.0, float(np.abs(want).max())))

    jobs.append(Job("polynomial_reproduction/tetra", reproduce, check_poly,
                    [("one value + 1e-8", lambda r: (r[0], _bumped(r[1], 0, 1e-8)))]))
    return jobs


# ---------------------------------------------------------------------------
# cli: every subcommand once per pass, each in a fresh interpreter
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stderr: str
    files: dict[str, str]
    spans_file: str | None = None


class CliRunner:
    """Runs ``python -m lqspectra.cli``, or the traced shim when ``traced``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.traced = False
        self.count = 0

    def run(self, name: str, argv: list[str], outputs: list[str]) -> CliResult:
        out = self.workdir / "cli" / name
        out.mkdir(parents=True, exist_ok=True)
        for f in outputs:
            (out / f).unlink(missing_ok=True)
        argv = argv + ["--out", str(out)]
        spans_file = None
        if self.traced:
            self.count += 1
            spans_file = str(self.workdir / f"spans-{self.count}.json")
            cmd = [sys.executable, str(HERE / "cli_shim.py"), spans_file, *argv]
        else:
            cmd = [sys.executable, "-m", "lqspectra.cli", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        files = {}
        for f in outputs:
            path = out / f
            files[f] = path.read_text(encoding="utf-8") if path.exists() else None
        return CliResult(proc.returncode, proc.stderr[-2000:], files, spans_file)


def _rows(result: CliResult, fname: str, header: list[str], n_rows: int):
    """Parsed data rows of one output CSV, or a problem string."""
    text = result.files.get(fname)
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"
    if text is None:
        return f"{fname} was not written"
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != header:
        return f"{fname} header {rows[0]}, expected {header}"
    if len(rows) - 1 != n_rows:
        return f"{fname} has {len(rows) - 1} rows, expected {n_rows}"
    return [[float(x) if x else math.nan for x in row] for row in rows[1:]]


def _table(res, fname, header, n_rows):
    rows = _rows(res, fname, header, n_rows)
    if isinstance(rows, str):
        return None, [rows]
    return np.array(rows), []


def _edit_csv(res: CliResult, fname: str, row: int, col: int, delta: float) -> CliResult:
    """Copy of a CLI result with one CSV cell moved by ``delta``."""
    rows = list(csv.reader(io.StringIO(res.files[fname])))
    rows[row + 1][col] = repr(float(rows[row + 1][col]) + delta)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return dataclasses.replace(res, files={**res.files, fname: buf.getvalue()})


def _shift_eigenvalues(res: CliResult) -> CliResult:
    """Copy of an ``eigen`` result whose lambda_n (and sqrt column) is lambda_(n+1)."""
    rows = list(csv.reader(io.StringIO(res.files["eigen.csv"])))
    lam = [float(row[1]) for row in rows[1:]]
    lam = lam[1:] + [0.5 * lam[-1]]
    for row, value in zip(rows[1:], lam):
        row[1:] = [repr(value), repr(math.sqrt(value))]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return dataclasses.replace(res, files={**res.files, "eigen.csv": buf.getvalue()})


def cli_jobs(inputs: dict, runner: CliRunner) -> list[Job]:
    prm = inputs["params"]
    specs = {name: build_spec(entry) for name, entry in inputs["specs"].items()}
    gen = runner.workdir / "generated.json"
    gen.write_text(json.dumps(inputs["specs"]["generated"]["doc"], indent=1) + "\n", encoding="utf-8")
    weights = list(specs["generated"].weights)
    ship = list(specs["binomial_07_03"].weights)
    tetra = list(specs["fig1_tetraeder"].weights)
    jobs = []

    def add(name, argv, outputs, check, perturb):
        jobs.append(Job(f"cli/{name}", lambda: runner.run(name, argv, outputs), check, perturb))

    s_grid = np.linspace(0.0, 2.0, 21)

    def check_spectrum(res, _all):
        data, out = _table(res, "spectrum.csv", ["level", "s", "beta_n"], 14 * len(s_grid))
        if out:
            return out
        want = [refs.selfsimilar_beta(weights, s) for s in data[:, 1]]
        return refs.check_close("binomial beta_n", data[:, 2], want, 1e-12)

    add("spectrum", ["spectrum", "--measure", str(gen), "--levels", "1..14", "--s-grid", "0:2:21"],
        ["spectrum.csv"], check_spectrum,
        [("one beta + 1e-9", lambda r: _edit_csv(r, "spectrum.csv", 100, 2, 1e-9)),
         ("non-zero exit", lambda r: dataclasses.replace(r, returncode=1))])

    bs = prm["b"]

    def check_fixedpoint(res, _all):
        data, out = _table(res, "fixedpoint.csv", ["level", "b", "s_nb", "residual"], 9 * len(bs))
        if out:
            return out
        want = [refs.root(lambda s: refs.selfsimilar_beta(weights, s), b) for b in data[:, 1]]
        return refs.check_close("s_nb", data[:, 2], want, 1e-9)

    add("fixedpoint", ["fixedpoint", "--measure", str(gen), "--levels", "4..12",
                       "--b", ",".join(repr(b) for b in bs)],
        ["fixedpoint.csv"], check_fixedpoint,
        [("one root + 1e-6", lambda r: _edit_csv(r, "fixedpoint.csv", 3, 2, 1e-6))])

    t0 = prm["t_grid_start"]

    def check_partition(res, _all):
        data, out = _table(res, "partition_stats.csv", ["t", "cardinality", "max_J_a", "depth_max"], 4)
        if out:
            return out
        for t, card, max_j, _ in data:
            out += refs.check_cardinality(int(card), ship, 1, 1.0, t)
            if not max_j < t:
                out.append(f"max J_a {max_j!r} >= t {t!r}")
        return out

    add("partition", ["partition", "--measure", "binomial_07_03", "--a", "1",
                      "--t-grid", f"{t0!r},10,4"],
        ["partition_stats.csv"], check_partition,
        [("one cardinality + 1", lambda r: _edit_csv(r, "partition_stats.csv", 0, 1, 1.0))])

    a_values = [0.5, 1.0]
    t_grid = 100.0 * 10.0 ** np.arange(7)

    def check_entropy(res, _all):
        samples, out = _table(res, "entropy_samples.csv", ["a", "t", "cardinality"], 14)
        summary, more = _table(res, "entropy_summary.csv",
                               ["a", "h_a_hat", "s_am_hat", "r_squared", "excess_over_s_am"], 2)
        if out or more:
            return out + more
        for a, t, card in samples:
            out += refs.check_cardinality(int(card), tetra, 3, a, 1.0 / t)
        for a, slope, *_ in summary:
            s_am = refs.root(lambda s: refs.selfsimilar_beta(tetra, s), 3 * a)
            if slope > s_am + 0.05:
                out.append(f"a={a}: entropy slope {slope:.4f} above s_am + 0.05 = {s_am + 0.05:.4f}")
        return out

    add("entropy", ["entropy", "--measure", "fig1_tetraeder", "--a", "0.5,1", "--levels", "2..8"],
        ["entropy_samples.csv", "entropy_summary.csv"], check_entropy,
        [("one cardinality + 7", lambda r: _edit_csv(r, "entropy_samples.csv", 5, 2, 7.0)),
         ("one slope + 1", lambda r: _edit_csv(r, "entropy_summary.csv", 1, 1, 1.0))])

    def check_project(res, _all):
        data, out = _table(res, "projection_errors.csv",
                           ["n", "max_J_a", "bound", "measured_error", "stderr"], 6)
        if out:
            return out
        out += refs.check_close("n", data[:, 0], [2, 4, 8, 16, 32, 64], 0.0)
        out += refs.check_close("bound", data[:, 2], data[:, 1] ** 0.5, 1e-15)
        if not (np.all(data[:, 3] >= 0) and np.all(data[:, 4] >= 0) and np.all(np.isfinite(data))):
            out.append("negative or non-finite error estimates")
        if np.any(np.diff(data[:, 1]) > 0):
            out.append("max J_a grows with the budget")
        return out

    add("project", ["project", "--measure", "binomial_07_03"], ["projection_errors.csv"],
        check_project, [("one bound + 1e-9", lambda r: _edit_csv(r, "projection_errors.csv", 2, 2, 1e-9))])

    def check_eigen(res, _all):
        eig, out = _table(res, "eigen.csv", ["n", "lambda_n", "sqrt_lambda"], 4096)
        sandwich, more = _table(res, "sandwich.csv", ["x", "N_full", "N_split_sum", "gap"], 50)
        if out or more:
            return out + more
        out += refs.check_close("n", eig[:, 0], np.arange(1, 4097), 0.0)
        if np.any(np.diff(eig[:, 1]) > 0):
            out.append("eigenvalues not descending")
        out += refs.check_close("sqrt column", eig[:, 2], np.sqrt(eig[:, 1]), 1e-15)
        # between each pair of neighbouring eigenvalues, the Sturm count of the
        # level-12 string (closed-form atoms) must be the number above
        lam = eig[:, 1]
        xs = np.sqrt(lam[:-1] * lam[1:])
        points = (2 * np.arange(4096) + 1) * math.ldexp(1.0, -13)
        masses = refs.binomial_masses(ship[0], 12)
        high = refs.sturm_counts(points, masses, xs * (1.0 - 1e-9))
        low = refs.sturm_counts(points, masses, xs * (1.0 + 1e-9))
        above = np.arange(1, 4096)
        bad = (above < low) | (above > high)
        if np.any(bad):
            i = int(np.argmax(bad))
            out.append(f"{above[i]} eigenvalues above {xs[i]!r}, Sturm count gives {low[i]}")
        gaps = sandwich[:, 3]
        if np.any(gaps != sandwich[:, 1] - sandwich[:, 2]) or np.any(gaps < 0) or np.any(gaps > 2):
            out.append(f"sandwich gaps {gaps.min()}..{gaps.max()} outside [0, 2]")
        return out

    add("eigen", ["eigen", "--measure", "binomial_07_03", "--level", "12", "--cuts", "0.25,0.75"],
        ["eigen.csv", "sandwich.csv"], check_eigen,
        [("one gap = 3", lambda r: _edit_csv(_edit_csv(r, "sandwich.csv", 20, 3, 3.0),
                                              "sandwich.csv", 20, 1, 3.0)),
         ("eigenvalues shifted by one index", _shift_eigenvalues)])

    target = -1.0 / refs.binomial_s1(ship[0])

    def check_order(res, _all):
        data, out = _table(res, "order.csv", ["level", "slope", "stderr", "target_slope"], 4)
        if out:
            return out
        out += refs.check_close("levels", data[:, 0], [8, 9, 10, 11], 0.0)
        if abs(data[-1, 1] - target) > 0.15:
            out.append(f"order slope {data[-1, 1]:.4f} not within 0.15 of {target:.4f}")
        return out

    add("order", ["order", "--measure", "binomial_07_03"], ["order.csv"], check_order,
        [("finest slope + 0.5", lambda r: _edit_csv(r, "order.csv", 3, 1, 0.5))])

    s_rho = brentq(lambda s: sum((w * 0.25) ** s for w in tetra) - 1.0, 1e-9, 1.0,
                   xtol=1e-15)

    def check_demo(res, _all):
        rows = _rows(res, "fig1_curve.csv", ["s", "beta_n"], 57)
        if isinstance(rows, str):
            return [rows]
        curve = np.array(rows)
        out = refs.check_close("fig1 beta_6", curve[:, 1],
                               [refs.selfsimilar_beta(tetra, s) for s in curve[:, 0]], 1e-12)
        markers = list(csv.reader(io.StringIO(res.files["fig1_markers.csv"] or "")))
        got = {row[0]: float(row[1]) for row in markers[1:]}
        if "s_rho" not in got:
            return out + ["fig1_markers.csv has no s_rho row"]
        return out + refs.check_close("fig1 s_rho", got["s_rho"], s_rho, 1e-12)

    def bump_s_rho(r):
        rows = list(csv.reader(io.StringIO(r.files["fig1_markers.csv"])))
        i = [row[0] for row in rows].index("s_rho") - 1
        return _edit_csv(r, "fig1_markers.csv", i, 1, 1e-10)

    add("demo", ["demo", "fig1"], ["fig1_curve.csv", "fig1_markers.csv"], check_demo,
        [("s_rho + 1e-10", bump_s_rho)])
    return jobs


def build(inputs: dict, runner: CliRunner) -> list[Job]:
    """The workload's ordered job list."""
    workload = inputs["workload"]
    if workload == "cli":
        return cli_jobs(inputs, runner)
    return {"levels": levels_jobs, "partitions": partitions_jobs}[workload](inputs)


# ---------------------------------------------------------------------------
# probe: one small call per layer, for the layers a workload does not reach
# ---------------------------------------------------------------------------

CLI_PROBE = {
    "spectrum": ["spectrum", "--measure", "binomial_07_03", "--levels", "1..4"],
    "fixedpoint": ["fixedpoint", "--measure", "binomial_07_03", "--levels", "2..4"],
    "partition": ["partition", "--measure", "binomial_07_03", "--a", "1", "--t", "0.01"],
    "entropy": ["entropy", "--measure", "binomial_07_03", "--t-grid", "10,10,4", "--levels", "2..4"],
    "project": ["project", "--measure", "binomial_07_03", "--n-list", "2,4", "--samples", "1000"],
    "eigen": ["eigen", "--measure", "binomial_07_03", "--level", "4"],
    "order": ["order", "--measure", "binomial_07_03", "--levels", "6..7"],
    "demo": ["demo", "fig1"],
}


def _ran(res, _all):
    if isinstance(res, CliResult) and res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"]
    return []


def probe_jobs(runner: CliRunner) -> list[tuple[tuple[str, ...], Job]]:
    """(layers reached, job) pairs at small fixed sizes.  Their figures stand
    in for layers the workload itself never calls; they move nothing."""
    binomial = lq.binomial_ifs(0.7)

    def project():
        part = lq.budget_partition(binomial, 1.0, 16)
        return lq.error_Lq(_expsum, lq.piecewise_project(_expsum, part, 1), binomial, 2.0,
                           n_samples=2000, seed=0)

    probes = [
        (("measures", "spectrum"),
         Job("probe/s_b_estimate", lambda: lq.s_b_estimate(binomial, 1.0, [4, 6]), _ran)),
        (("adaptive",), Job("probe/adaptive_partition",
                            lambda: lq.adaptive_partition(binomial, 1.0, 1e-3), _ran)),
        (("oracle",), Job("probe/gamma_dyadic_vector",
                          lambda: lq.gamma_dyadic_vector(binomial, 1.0, 32), _ran)),
        (("project", "error"), Job("probe/project_error", project, _ran)),
        (("discretize", "eigen", "fit"),
         Job("probe/order_fit", lambda: lq.order_fit(binomial, [6, 7, 8], reference_levels=[4]),
             _ran)),
    ]
    for name, argv in CLI_PROBE.items():
        probes.append(((f"cli.{name}",), Job(
            f"probe/cli/{name}", lambda name=name, argv=argv: runner.run(f"probe-{name}", argv, []),
            _ran)))
    return probes
