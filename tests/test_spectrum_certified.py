"""Certified spectrum roots against the kept plain bisection.

``spectrum_reference`` holds the spectrum layer as it was before certified
brackets: bisections that evaluate every midpoint, beta_n with a pass for
the max shift, one engine walk per level in s_b_estimate.  On every shipped
spec and every fixture, at three or more levels and for b from 0.01 to 8,
the roots, residuals, s_hat and spectrum values must be bit-equal to it, and
so must the self-similar closed forms.
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
        roots, residuals, s_hat = ref.s_b_estimate(spec, b, levels)
        assert np.array_equal(fp.roots, roots)
        assert np.array_equal(fp.residuals, residuals)
        assert fp.s_hat == s_hat
        assert lq.s_nb(spec, levels[-1], b) == roots[-1]
    for n in levels:
        assert np.array_equal(lq.spectrum_curve(spec, n, S_GRID).values,
                              ref.spectrum_values(spec, n, S_GRID))


def test_selfsimilar_closed_forms_equal_the_plain_bisection():
    systems = [(FIG1_WEIGHTS, [0.5] * 4), ([0.7, 0.3], [0.5, 0.5]),
               ([0.2, 0.3, 0.5], [0.25, 0.4, 0.3]), ([0.5, 0.5], [1 / 3, 1 / 3]),
               ([0.999, 0.001], [0.5, 0.25]), ([1.0], [0.5])]
    for w, r in systems:
        for s in (0.0, 1e-3, 0.37, 1.0, 2.5, 40.0):
            assert lq.selfsimilar_beta(w, r, s) == ref.selfsimilar_beta(w, r, s)
        for rho in (1e-3, 0.5, 1.0, 2.0, 9.0):
            assert lq.selfsimilar_s_rho(w, r, rho) == ref.selfsimilar_s_rho(w, r, rho)


def test_single_cube_and_dirac_roots_are_zero(dirac_half, leb1):
    assert spectrum._root_from_masses(np.zeros(1), 3, 1.0) == 0.0
    for b in B_VALUES:
        assert lq.s_nb(dirac_half, 5, b) == 0.0
        fp = lq.s_b_estimate(dirac_half, b, [1, 4, 9])
        assert np.array_equal(fp.roots, np.zeros(3))
        assert np.array_equal(fp.residuals, np.zeros(3))
        assert fp.s_hat == 0.0


def _counting(monkeypatch):
    """Record the s of every beta_n evaluation (each passes _log2_moment)."""
    seen = []
    inner = spectrum._log2_moment

    def counted(log2_masses, s, lmax, out=None):
        seen.append(s)
        return inner(log2_masses, s, lmax, out)

    monkeypatch.setattr(spectrum, "_log2_moment", counted)
    return seen


def test_at_most_20_beta_evaluations_per_deep_root(monkeypatch, binom):
    logm = np.log2(lq.support_masses(binom, 18))
    seen = _counting(monkeypatch)
    for b in (0.5, 1.0, 2.0):
        seen.clear()
        root = spectrum._root_from_masses(logm, 18, b)
        assert root == ref.root_from_masses(logm, 18, b)
        assert len(seen) <= 20, (b, len(seen))


def test_failed_certificate_evaluates_every_midpoint(monkeypatch, binom):
    # a bound E too large for any check to pass leaves the bracket infinite;
    # masses above 1 (a positive log2 mass) leave g~ without the monotonicity
    # the certificate needs, so no bracket is tried
    logm = np.log2(lq.support_masses(binom, 12))
    cases = [(logm, 12, 1.0, 1e300), (np.array([0.5, -3.0, -4.0]), 2, 0.7, spectrum.CERT_SAFETY)]
    seen = _counting(monkeypatch)
    for log2_masses, n, b, safety in cases:
        monkeypatch.setattr(spectrum, "CERT_SAFETY", safety)
        mids = []
        want = ref.root_from_masses(log2_masses, n, b, seen=mids)
        seen.clear()
        assert spectrum._root_from_masses(log2_masses, n, b) == want
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
