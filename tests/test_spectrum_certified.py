"""Newton spectrum roots against plain bisections, and the grouped sums
against the full sum over every cube.

``spectrum_reference`` holds the spectrum layer as it was before Newton
roots and mass groups (bisections that evaluate every midpoint, beta_n
summed over every cube with a pass for the max shift, one engine walk per
level in s_b_estimate), and a plain bisection over the package's grouped
evaluator.  The self-similar closed forms must equal their plain bisections
bit for bit.

Roots and grouped sums move by rounding only.  Every evaluation computes the
same terms 2^(s*l_i - shift) from the same log2 masses, in one order or
another, so each lies within the rounding bound E0 (spectrum module
docstring) of the same exact function g~, and

- beta values differ by at most 2 E0 (at b = 0, scaled by max(1, s) past
  s = 1, where the exponent errors grow with s);
- roots differ by at most 2 E0 / b + 2e-14: g~ falls with slope <= -b, so a
  midpoint where the computed g is positive lies below r~ + E0 / b and one
  where it is not lies above r~ - E0 / b, each bisection returns the
  midpoint of a final bracket narrower than 1e-14, and Newton stops where
  the computed g is within E0 of 0, up to a last step of at most 1e-15.

On every shipped spec and fixture, at three or more levels and for b from
0.01 to 8, the Newton roots and s_hat lie within that bound of the grouped
plain bisection.  Measured on these specs and levels: 23 of 357 beta values
differ from the full sum, by at most 4.4e-16 (at most 0.049 of the bound).
Over every shipped spec, binomial 0.7, Cantor and Lebesgue 1-3 at levels
1-18 (1-D), 1-9 (2-D) and 1-6 (3-D), the Newton roots lay within 0.17 of
the bound of the grouped plain bisection, after at most 6 evaluations.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import lqspectra as lq
import spectrum_reference as ref
from lqspectra import spectrum

from conftest import FIG1_WEIGHTS

DATA = Path(lq.__file__).parent / "data"
SHIPPED = sorted(f"data/{p.stem}" for p in DATA.glob("*.json"))
FIXTURES = ["leb1", "leb2", "leb3", "binom", "tetra", "cantor", "dirac_half", "atom_pair",
            "quarter_pair", "density2d", "mixture"]
B_VALUES = (0.01, 0.3, 1.0, 2.5, 8.0)
LEVELS = {1: [2, 6, 11], 2: [1, 3, 6], 3: [1, 2, 4]}
S_GRID = [0.0, 1e-3, 0.37, 0.5, 1.0, 1.9, 7.3]


def _spec(request, name):
    if name in SHIPPED:
        return lq.load_spec(DATA / f"{name[5:]}.json")
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", SHIPPED + FIXTURES)
def test_certified_roots_equal_the_plain_bisection(request, name):
    # the Newton roots, and s_hat, within the rounding bound of the grouped
    # plain bisection
    spec = _spec(request, name)
    levels = LEVELS[spec.dim]
    bounds = {b: [ref.root_bound(spectrum._mass_groups(lq.support_masses(spec, n)), n, b)
                  for n in levels] for b in B_VALUES}
    tail = (len(levels) + 1) // 2
    for b in B_VALUES:
        fp = lq.s_b_estimate(spec, b, levels)
        roots, _, s_hat = ref.grouped_s_b_estimate(spec, b, levels)
        assert np.all(np.abs(fp.roots - roots) <= bounds[b]), (b, fp.roots - roots)
        assert np.all(fp.residuals <= 1e-10)
        assert abs(fp.s_hat - s_hat) <= max(bounds[b][-tail:])
        assert lq.s_nb(spec, levels[-1], b) == fp.roots[-1]


def _bound(masses, n, b, s=1.0):
    """E0 of the spectrum module docstring for one level, scaled past s = 1."""
    return spectrum._rounding_bound(spectrum._mass_groups(masses), n, b) * max(1.0, s)


@pytest.mark.parametrize("name", SHIPPED + FIXTURES)
def test_grouped_sums_lie_within_the_rounding_bound_of_the_full_sum(request, name):
    spec = _spec(request, name)
    levels = LEVELS[spec.dim]
    for n in levels:
        masses = lq.support_masses(spec, n)
        got = lq.spectrum_curve(spec, n, S_GRID).values
        want = ref.spectrum_values(spec, n, S_GRID)
        for s, x, y in zip(S_GRID, got, want):
            assert abs(x - y) <= 2.0 * _bound(masses, n, 0.0, s), (n, s)
    for b in B_VALUES:
        fp = lq.s_b_estimate(spec, b, levels)
        roots, _, s_hat = ref.s_b_estimate(spec, b, levels)
        bounds = [2.0 * _bound(lq.support_masses(spec, n), n, b) / b + 2e-14 for n in levels]
        assert np.all(np.abs(fp.roots - roots) <= bounds)
        tail = (len(levels) + 1) // 2
        assert abs(fp.s_hat - s_hat) <= max(bounds[-tail:])


def test_selfsimilar_closed_forms_equal_the_plain_bisection():
    systems = [(FIG1_WEIGHTS, [0.5] * 4), ([0.7, 0.3], [0.5, 0.5]),
               ([0.2, 0.3, 0.5], [0.25, 0.4, 0.3]), ([0.5, 0.5], [1 / 3, 1 / 3]),
               ([0.999, 0.001], [0.5, 0.25]), ([1.0], [0.5])]
    for w, r in systems:
        for s in (0.0, 1e-3, 0.37, 1.0, 2.5, 40.0):
            assert lq.selfsimilar_beta(w, r, s) == ref.selfsimilar_beta(w, r, s)
        for rho in (1e-3, 0.5, 1.0, 2.0, 9.0):
            assert lq.selfsimilar_s_rho(w, r, rho) == ref.selfsimilar_s_rho(w, r, rho)


def test_single_cube_and_dirac_roots_are_zero(dirac_half):
    assert spectrum._root(spectrum._mass_groups(np.ones(1)), 3, 1.0) == 0.0
    for b in B_VALUES:
        assert lq.s_nb(dirac_half, 5, b) == 0.0
        fp = lq.s_b_estimate(dirac_half, b, [1, 4, 9])
        assert np.array_equal(fp.roots, np.zeros(3))
        assert np.array_equal(fp.residuals, np.zeros(3))
        assert fp.s_hat == 0.0


@pytest.mark.parametrize("m, n", [(1, 20), (2, 10), (3, 7)])
def test_equal_mass_levels_are_one_group_with_the_lebesgue_values(m, n):
    # all 2^(mn) cubes of a Lebesgue level share one mass: one group, whose
    # root is m / (m + b), not the 0 of a one-cube level
    spec = lq.Lebesgue(m)
    masses = lq.support_masses(spec, n)
    groups = spectrum._mass_groups(masses)
    assert groups.cubes == 2 ** (m * n) and len(groups.log2) == 1
    assert groups.counts.tolist() == [2.0 ** (m * n)]
    s_grid = [0.0, 1e-3, 0.37, 0.5, 1.0, 1.9, 7.3]
    curve = lq.spectrum_curve(spec, n, s_grid).values
    assert curve[0] == math.log2(2 ** (m * n)) / n
    assert lq.beta_n(spec, n, 0.0) == curve[0]
    for s, beta in zip(s_grid, curve):
        # 64 E0 covers exp2 and log2 implementations up to tens of ulps off
        assert abs(beta - m * (1 - s)) <= 64.0 * _bound(masses, n, 0.0, s)
    for b in B_VALUES:
        assert abs(spectrum._root(groups, n, b) - m / (m + b)) <= 2e-14
    fp = lq.s_b_estimate(spec, 1.0, [n - 1, n])
    assert np.all(np.abs(fp.roots - m / (m + 1)) <= 2e-14)


def _counting(monkeypatch):
    """Record the s of every beta_n evaluation (each passes _log2_moment)."""
    seen = []
    inner = spectrum._log2_moment

    def counted(groups, s, out=None):
        seen.append(s)
        return inner(groups, s, out)

    monkeypatch.setattr(spectrum, "_log2_moment", counted)
    return seen


def test_at_most_20_beta_evaluations_per_deep_root(monkeypatch, binom):
    # Newton takes 4 evaluations per root here; a bisection took 47.  The
    # case with a mass above 1 has a positive log2 mass, outside the bound's
    # premise, and still converges from the left
    groups = spectrum._mass_groups(lq.support_masses(binom, 18))
    above_one = spectrum._MassGroups(np.array([-4.0, -3.0, 0.5]), np.array([1.0, 2.0, 1.0]), 4)
    seen = _counting(monkeypatch)
    for groups, n, b in [(groups, 18, 0.5), (groups, 18, 1.0), (groups, 18, 2.0),
                         (above_one, 2, 0.7)]:
        want = ref.grouped_root(groups, n, b)
        seen.clear()
        root = spectrum._root(groups, n, b)
        assert abs(root - want) <= ref.root_bound(groups, n, b), (b, root - want)
        assert len(seen) <= 8, (b, len(seen))


@pytest.mark.parametrize("call", [
    lambda spec: lq.s_nb(spec, 3, math.nan),
    lambda spec: lq.s_nb(spec, 3, math.inf),
    lambda spec: lq.s_b_estimate(spec, math.nan, [2, 3]),
    lambda spec: lq.s_b_estimate(spec, math.inf, [2, 3]),
    lambda spec: lq.s_b_estimate(spec, 0.0, [2, 3]),
    lambda spec: lq.beta_n(spec, 3, math.nan),
    lambda spec: lq.beta_n(spec, 3, math.inf),
    lambda spec: lq.spectrum_curve(spec, 3, [0.0, math.nan]),
    lambda spec: lq.spectrum_curve(spec, 3, [0.0, math.inf]),
    lambda spec: lq.selfsimilar_beta([0.7, 0.3], [0.5, 0.5], math.nan),
    lambda spec: lq.selfsimilar_beta([0.7, 0.3], [0.5, 0.5], math.inf),
    lambda spec: lq.selfsimilar_s_rho([0.7, 0.3], [0.5, 0.5], math.nan),
    lambda spec: lq.selfsimilar_s_rho([0.7, 0.3], [0.5, 0.5], math.inf),
])
def test_non_finite_spectrum_inputs_rejected(binom, call):
    with pytest.raises(ValueError, match="finite"):
        call(binom)
