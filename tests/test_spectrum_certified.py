"""Certified spectrum roots against plain bisections, and the grouped sums
against the full sum over every cube.

``spectrum_reference`` holds the spectrum layer as it was before certified
brackets and mass groups (bisections that evaluate every midpoint, beta_n
summed over every cube with a pass for the max shift, one engine walk per
level in s_b_estimate), and a plain bisection over the package's grouped
evaluator.  On every shipped spec and every fixture, at three or more levels
and for b from 0.01 to 8, the certified roots, residuals and s_hat must be
bit-equal to that grouped plain bisection, and the self-similar closed forms
to their plain bisections.

Against the full sum, the grouped values move by summation order only.  Both
evaluations compute the same terms 2^(s*l_i - shift) from the same log2
masses, so both lie within the rounding bound E0 (spectrum module docstring) of
the same exact function g~, and

- beta values differ by at most 2 E0 (at b = 0, scaled by max(1, s) past
  s = 1, where the exponent errors grow with s);
- roots differ by at most 2 E0 / b + 2e-14: g~ falls with slope <= -b, so a
  midpoint where the computed g is positive lies below r~ + E0 / b and one
  where it is not lies above r~ - E0 / b, and each bisection returns the
  midpoint of a final bracket narrower than 1e-14.

Measured on these specs and levels: 23 of 357 beta values differ, by at
most 4.4e-16 (at most 0.049 of the bound), and none of the 255 roots.
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
    spec = _spec(request, name)
    levels = LEVELS[spec.dim]
    for b in B_VALUES:
        fp = lq.s_b_estimate(spec, b, levels)
        roots, residuals, s_hat = ref.grouped_s_b_estimate(spec, b, levels)
        assert np.array_equal(fp.roots, roots)
        assert np.array_equal(fp.residuals, residuals)
        assert fp.s_hat == s_hat
        assert lq.s_nb(spec, levels[-1], b) == roots[-1]


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
        assert abs(beta - m * (1 - s)) <= spectrum.CERT_SAFETY * _bound(masses, n, 0.0, s)
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
    groups = spectrum._mass_groups(lq.support_masses(binom, 18))
    seen = _counting(monkeypatch)
    for b in (0.5, 1.0, 2.0):
        want = ref.grouped_root(groups, 18, b)
        seen.clear()
        root = spectrum._root(groups, 18, b)
        assert root == want
        assert len(seen) <= 20, (b, len(seen))


def test_failed_certificate_evaluates_every_midpoint(monkeypatch, binom):
    # a bound E too large for any check to pass leaves the bracket infinite;
    # masses above 1 (a positive log2 mass) leave g~ without the monotonicity
    # the certificate needs, so no bracket is tried
    groups = spectrum._mass_groups(lq.support_masses(binom, 12))
    above_one = spectrum._MassGroups(np.array([-4.0, -3.0, 0.5]), np.array([1.0, 2.0, 1.0]), 4)
    cases = [(groups, 12, 1.0, 1e300), (above_one, 2, 0.7, spectrum.CERT_SAFETY)]
    seen = _counting(monkeypatch)
    for groups, n, b, safety in cases:
        monkeypatch.setattr(spectrum, "CERT_SAFETY", safety)
        mids = []
        want = ref.grouped_root(groups, n, b, seen=mids)
        seen.clear()
        assert spectrum._root(groups, n, b) == want
        assert len(mids) == 47 and seen[-len(mids):] == mids


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
