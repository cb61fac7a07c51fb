"""Level spectra, fixed points, self-similar closed forms, order bounds."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import lqspectra as lq
from lqspectra import spectrum

from conftest import FIG1_WEIGHTS

FIG1_RATIOS = [0.5, 0.5, 0.5, 0.5]
# root of sum_i (p_i / 4)^s = 1 for the Fig-1 weights, frozen from a 200-step
# bisection at 40-digit precision; brentq cross-checks it below
FIG1_S_RHO = 0.4193542074493808


# ---------------------------------------------------------------------------
# beta_n
# ---------------------------------------------------------------------------

def test_lebesgue_beta_is_m_times_one_minus_s():
    for m in (1, 2, 3):
        spec = lq.Lebesgue(m)
        for n in (1, 2, 4):
            for s in np.arange(0.0, 2.25, 0.25):
                assert abs(lq.beta_n(spec, n, float(s)) - m * (1 - s)) < 1e-13


def test_binomial_beta_multinomial_identity(binom):
    # sum of nu(C)^s over level n equals (0.7^s + 0.3^s)^n, so beta_n is
    # level independent; at s = 2 it equals log2(0.58)
    want = math.log2(0.7 ** 2 + 0.3 ** 2)
    for n in (1, 3, 6):
        assert lq.beta_n(binom, n, 2.0) == pytest.approx(want, abs=1e-12)


def test_dirac_beta_zero(dirac_half):
    for s in (0.0, 0.5, 1.0, 2.0):
        assert lq.beta_n(dirac_half, 4, s) == 0.0


def test_beta_rejects_bad_arguments(leb1):
    with pytest.raises(ValueError):
        lq.beta_n(leb1, 0, 1.0)
    with pytest.raises(ValueError):
        lq.beta_n(leb1, 2, -0.5)


def test_curve_convexity_and_line_bound(binom, tetra, cantor):
    eta = lq.exp_decay_atoms(25)
    grid = np.linspace(0.0, 1.0, 21)
    for spec, n in ((binom, 5), (tetra, 3), (cantor, 6), (eta, 6)):
        curve = lq.spectrum_curve(spec, n, grid)
        assert np.all(curve.second_differences() >= -1e-9)
        beta0 = curve.values[0]
        assert np.all(curve.values <= beta0 * (1 - grid) + 1e-9)
        assert np.all(np.diff(curve.values) <= 1e-12)  # non-increasing


def test_beta_at_one_vanishes(binom, tetra, cantor, density2d, mixture):
    for spec in (binom, tetra, cantor, density2d, mixture):
        assert abs(lq.beta_n(spec, 4, 1.0)) < 1e-10


def test_beta_matches_selfsimilar_closed_form(binom, tetra):
    cases = [(binom, [0.7, 0.3], [0.5, 0.5]), (tetra, list(FIG1_WEIGHTS), FIG1_RATIOS)]
    for spec, w, r in cases:
        for n in (2, 4):
            for s in (0.0, 0.3, 0.8, 1.5):
                assert lq.beta_n(spec, n, s) == pytest.approx(
                    lq.selfsimilar_beta(w, r, s), abs=1e-9)


def test_deep_skewed_weights_no_underflow(binom):
    # at level 40 the smallest cube mass is 0.3^40 ~ 1e-21 and the s = 30
    # moment sum would underflow without the log-space max shift
    masses = lq.support_masses(binom, 40 // 2)  # level 20: 1M cubes is enough
    assert masses.min() < 1e-10
    val = lq.beta_n(binom, 20, 30.0)
    assert np.isfinite(val)
    assert val == pytest.approx(math.log2(0.7 ** 30 + 0.3 ** 30), abs=1e-9)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_s_nb_lebesgue_half(leb1):
    assert lq.s_nb(leb1, 3, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_s_nb_dirac_zero(dirac_half):
    assert lq.s_nb(dirac_half, 3, 1.0) == 0.0


def test_s_nb_fig1_matches_closed_form(tetra):
    # all ratios are 1/2, so beta_n is level independent and the level root
    # at b = 2 equals the self-similar fixed point at every level
    for n in (4, 8):
        assert lq.s_nb(tetra, n, 2.0) == pytest.approx(FIG1_S_RHO, abs=1e-9)


def test_s_nb_monotone_in_b(binom):
    roots = [lq.s_nb(binom, 5, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(x >= y - 1e-12 for x, y in zip(roots, roots[1:]))


def test_s_b_estimate_lebesgue_3d(leb3):
    fp = lq.s_b_estimate(leb3, 2.0, [1, 2, 3, 4])
    assert np.allclose(fp.roots, 0.6, atol=1e-10)
    assert fp.s_hat == pytest.approx(0.6, abs=1e-10)
    assert np.all(fp.residuals < 1e-9)


def test_s_b_estimate_binomial_vs_brentq(binom):
    # independent oracle: scipy root of 0.7^s + 0.3^s = 2^s
    target = brentq(lambda s: 0.7 ** s + 0.3 ** s - 2 ** s, 1e-9, 1.0, xtol=1e-14)
    fp = lq.s_b_estimate(binom, 1.0, [2, 4, 6])
    assert fp.s_hat == pytest.approx(target, abs=1e-9)
    assert target == pytest.approx(0.485, abs=1e-3)


def test_s_b_estimate_degenerate_accumulating_atoms():
    # atoms at 1/k with exp(-k) weights: all positive-order fixed points
    # collapse toward 0, but so slowly that only the decay is checkable
    eta = lq.exp_decay_atoms(30)
    fp = lq.s_b_estimate(eta, 1.0, [4, 6, 8, 10, 12, 14])
    assert np.all(np.diff(fp.roots) < 0)
    assert fp.roots[-1] < 0.2
    assert fp.s_hat < 0.3


def test_s_b_estimate_validates_levels(leb1):
    with pytest.raises(ValueError):
        lq.s_b_estimate(leb1, 1.0, [])
    with pytest.raises(ValueError):
        lq.s_b_estimate(leb1, 1.0, [3, 2])


# ---------------------------------------------------------------------------
# self-similar closed forms
# ---------------------------------------------------------------------------

def test_selfsimilar_beta_fig1_dimension():
    assert lq.selfsimilar_beta(FIG1_WEIGHTS, FIG1_RATIOS, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_selfsimilar_beta_probability_normalization():
    assert lq.selfsimilar_beta([0.2, 0.8], [0.3, 0.6], 1.0) == pytest.approx(0.0, abs=1e-12)


def test_selfsimilar_beta_binomial_closed_form():
    # 0.58 * 2^-beta = 1, i.e. beta = log2(0.58) (negative beyond s = 1)
    got = lq.selfsimilar_beta([0.7, 0.3], [0.5, 0.5], 2.0)
    assert got == pytest.approx(math.log2(0.58), abs=1e-12)


def test_selfsimilar_beta_residual():
    w, r = [0.2, 0.3, 0.5], [0.25, 0.4, 0.3]
    for s in (0.0, 0.7, 2.5):
        beta = lq.selfsimilar_beta(w, r, s)
        resid = abs(sum(p ** s * q ** beta for p, q in zip(w, r)) - 1.0)
        assert resid < 1e-12


def test_selfsimilar_s_rho_fig1():
    got = lq.selfsimilar_s_rho(FIG1_WEIGHTS, FIG1_RATIOS, 2.0)
    assert got == pytest.approx(FIG1_S_RHO, abs=1e-12)
    # independent root-finder on the same equation
    logc = [math.log(p) + 2.0 * math.log(r) for p, r in zip(FIG1_WEIGHTS, FIG1_RATIOS)]
    check = brentq(lambda s: sum(math.exp(s * c) for c in logc) - 1.0, 1e-9, 1.0,
                   xtol=1e-15)
    assert got == pytest.approx(check, abs=1e-12)


def test_selfsimilar_s_rho_geometric_weights():
    # equal weights r^delta: s_rho = delta / (rho + delta)
    assert lq.selfsimilar_s_rho([0.25] * 4, [0.5] * 4, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert lq.selfsimilar_s_rho([0.5, 0.5], [0.5, 0.5], 1.0) == pytest.approx(0.5, abs=1e-12)
    delta = math.log(2) / math.log(3)
    got = lq.selfsimilar_s_rho([0.5, 0.5], [1 / 3, 1 / 3], 1.0)
    assert got == pytest.approx(delta / (1 + delta), abs=1e-12)


def test_selfsimilar_s_rho_residual():
    s = lq.selfsimilar_s_rho(FIG1_WEIGHTS, FIG1_RATIOS, 2.0)
    resid = abs(sum((p * 0.25) ** s for p in FIG1_WEIGHTS) - 1.0)
    assert resid < 1e-12


# ---------------------------------------------------------------------------
# order bound
# ---------------------------------------------------------------------------

def test_order_bound_lebesgue_equality():
    ob = lq.order_bound(lq.OrderParams(2, 2, 1, 1), 0.5)
    assert ob.value == -1.0
    assert ob.classical == -1.0


def test_order_bound_strict_improvement():
    # tetraeder with geometric weights: delta = 2, rho = 1, s_1 = 2/3
    ob = lq.order_bound(lq.OrderParams(2, 2, 2, 3), 2.0 / 3.0)
    assert ob.value == pytest.approx(-0.75, abs=1e-12)
    assert ob.classical == pytest.approx(-2.0 / 3.0 + 0.5 - 0.5, abs=1e-12)
    assert ob.value < ob.classical


def test_order_params_standing_assumption():
    with pytest.raises(ValueError, match="ell\\*p/m"):
        lq.OrderParams(2, 2, 1, 3)
    with pytest.raises(ValueError, match="p > 1"):
        lq.OrderParams(1, 2, 1, 1)
    with pytest.raises(ValueError, match="q >= p"):
        lq.OrderParams(3, 2, 2, 1)
    for p, q in ((2, math.inf), (math.inf, math.inf), (2, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            lq.OrderParams(p, q, 1, 1)


def test_order_bound_never_beats_classical():
    params = lq.OrderParams(2, 4, 2, 2)
    srho_leb = params.m / (params.m + params.rho)
    for s in np.linspace(0.05, srho_leb, 8):
        ob = lq.order_bound(params, float(s))
        assert ob.value <= ob.classical + 1e-12


def test_order_bound_rejects_inconsistent_s_rho():
    with pytest.raises(ValueError, match="exceeds"):
        lq.order_bound(lq.OrderParams(2, 2, 1, 1), 0.9)
    with pytest.raises(ValueError, match="s_rho"):
        lq.order_bound(lq.OrderParams(2, 2, 1, 1), 0.0)


# ---------------------------------------------------------------------------
# the bisection's scratch buffer
# ---------------------------------------------------------------------------

def _beta_from_masses_fresh(log2_masses, n, s, out=None):
    """The formula before the scratch buffer: three fresh temporaries."""
    x = s * log2_masses
    shift = float(x.max())
    with np.errstate(under="ignore"):
        total = float(np.exp2(x - shift).sum())
    return (shift + math.log2(total)) / n


def test_scratch_buffer_keeps_beta_and_roots_bit_identical(monkeypatch, binom, tetra, cantor):
    # one buffer reused across many s (and across underflowing terms) must
    # give every value and root of the fresh-temporaries formula
    cases = [(binom, 14), (tetra, 5), (cantor, 12), (lq.exp_decay_atoms(40), 10)]
    s_grid = [0.0, 1e-3, 0.37, 0.5, 1.0, 1.9, 7.3, 64.0]
    for spec, n in cases:
        logm = np.log2(lq.support_masses(spec, n))
        buf = np.empty_like(logm)
        for s in s_grid:
            want = _beta_from_masses_fresh(logm, n, s)
            assert spectrum._beta_from_masses(logm, n, s) == want
            assert spectrum._beta_from_masses(logm, n, s, buf) == want
    got = [(lq.s_nb(spec, n, b), lq.spectrum_curve(spec, n, s_grid).values)
           for spec, n in cases for b in (0.4, 1.0, 3.0)]
    monkeypatch.setattr(spectrum, "_beta_from_masses", _beta_from_masses_fresh)
    want = [(lq.s_nb(spec, n, b), lq.spectrum_curve(spec, n, s_grid).values)
            for spec, n in cases for b in (0.4, 1.0, 3.0)]
    for (root, curve), (root_want, curve_want) in zip(got, want):
        assert root == root_want and np.array_equal(curve, curve_want)
