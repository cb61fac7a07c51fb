"""Stieltjes-string eigenproblems: exact small cases, classical limits, counting."""

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kreinfeller_reference
import lqspectra as lq
from lqspectra import kreinfeller


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_lebesgue_level2(leb1):
    atoms = lq.discretize(leb1, 2)
    assert np.array_equal(atoms.points, [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(atoms.weights, 0.25, atol=0)


def test_discretize_binomial_level1(binom):
    atoms = lq.discretize(binom, 1)
    assert np.array_equal(atoms.points, [0.25, 0.75])
    assert np.allclose(atoms.weights, [0.7, 0.3], atol=1e-15)


def test_discretize_atomic_passthrough(dirac_half):
    atoms = lq.discretize(dirac_half, 5)
    assert np.array_equal(atoms.points, [0.5])
    assert np.array_equal(atoms.weights, [1.0])


def test_discretize_rejects_multidim(leb2):
    with pytest.raises(ValueError, match="1D"):
        lq.discretize(leb2, 3)


def test_atomic_approx_invariants():
    with pytest.raises(ValueError, match="increasing"):
        lq.AtomicApprox(np.array([0.6, 0.4]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="positive"):
        lq.AtomicApprox(np.array([0.4, 0.6]), np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum"):
        lq.AtomicApprox(np.array([0.4, 0.6]), np.array([0.5, 0.6]))


# ---------------------------------------------------------------------------
# exact small systems
# ---------------------------------------------------------------------------

def test_dirac_single_eigenvalue_quarter(dirac_half):
    eigs = lq.solve_eigen(lq.discretize(dirac_half, 0), eigenvectors=True)
    assert eigs.size == 1
    assert abs(eigs.eigenvalues[0] - 0.25) < 1e-15
    assert eigs.residuals[0] < 1e-12
    # the eigenfunction is the hat peaking at the atom
    assert eigs.vectors[0, 0] == pytest.approx(1.0)


def test_two_atom_thirds_closed_form(atom_pair):
    # K = [[6,-3],[-3,6]] has eigenvalues 3 and 9; lambda = (1/2)/3, (1/2)/9
    eigs = lq.solve_eigen(lq.discretize(atom_pair, 0), eigenvectors=True)
    assert np.allclose(eigs.eigenvalues, [1 / 6, 1 / 18], atol=1e-15)
    assert eigs.residuals.max() < 1e-12
    # symmetric ground state, antisymmetric second state
    assert eigs.vectors[0, 0] == pytest.approx(eigs.vectors[1, 0], abs=1e-10)
    assert eigs.vectors[0, 1] == pytest.approx(-eigs.vectors[1, 1], abs=1e-10)


def test_counting_function(atom_pair):
    eigs = lq.solve_eigen(lq.discretize(atom_pair, 0))
    assert lq.counting_function(eigs, 0.1) == 1
    assert lq.counting_function(eigs, 0.01) == 2
    assert lq.counting_function(eigs, 2.0) == 0
    assert lq.counting_function(eigs, 1 / 18) == 2  # inclusive at an eigenvalue
    with pytest.raises(ValueError):
        lq.counting_function(eigs, 0.0)


def test_width_from_eigen(dirac_half):
    eigs = lq.solve_eigen(lq.discretize(dirac_half, 0))
    assert lq.width_from_eigen(eigs, 0) == 0.5
    assert lq.width_from_eigen(eigs, 1) == 0.0
    with pytest.raises(ValueError):
        lq.width_from_eigen(eigs, -1)


def test_width_bridge_strictly_decreasing(binom):
    eigs = lq.solve_eigen(lq.discretize(binom, 7))
    widths = np.array([lq.width_from_eigen(eigs, n) for n in range(eigs.size)])
    # width^2 = lambda_(n+1) is strictly decreasing; the rounded sqrt may tie
    # on near-degenerate pairs at the last ulp
    assert np.all(np.diff(eigs.eigenvalues) < 0)
    assert np.all(np.diff(widths) <= 0)
    assert lq.width_from_eigen(eigs, eigs.size) == 0.0


# ---------------------------------------------------------------------------
# classical limit and convergence
# ---------------------------------------------------------------------------

def test_lebesgue_spectrum_approaches_continuum(leb1):
    eigs = lq.solve_eigen(lq.discretize(leb1, 10))
    k = np.arange(1, 11)
    target = 1.0 / (math.pi ** 2 * k ** 2)
    assert np.max(np.abs(eigs.eigenvalues[:10] / target - 1.0)) < 5e-3


def test_lebesgue_monotone_convergence(leb1):
    k = np.arange(1, 11)
    target = 1.0 / (math.pi ** 2 * k ** 2)
    prev = None
    for n in range(6, 11):
        lam = lq.solve_eigen(lq.discretize(leb1, n)).eigenvalues[:10]
        gap = np.abs(lam - target)
        if prev is not None:
            assert np.all(gap <= prev + 1e-18)
        prev = gap


def test_rank_equals_atom_count(binom, cantor):
    for spec, n in ((binom, 6), (cantor, 8)):
        atoms = lq.discretize(spec, n)
        eigs = lq.solve_eigen(atoms)
        assert eigs.size == atoms.size
        assert np.all(eigs.eigenvalues > 0)
        assert np.all(np.diff(eigs.eigenvalues) <= 0)


def test_residual_contract_moderate_sizes(leb1, binom):
    for spec, lvl in ((leb1, 8), (binom, 9)):
        eigs = lq.solve_eigen(lq.discretize(spec, lvl), eigenvectors=True)
        assert eigs.residuals.max() <= 1e-8


def test_max_min_rayleigh_quotients_below_top(binom):
    atoms = lq.discretize(binom, 6)
    eigs = lq.solve_eigen(atoms)
    diag, off = lq.stiffness_tridiagonal(atoms.points)
    rng = np.random.default_rng(17)
    lam1 = eigs.eigenvalues[0]
    for _ in range(200):
        u = rng.standard_normal(atoms.size)
        ku = diag * u
        ku[:-1] += off * u[1:]
        ku[1:] += off * u[:-1]
        rq = float(np.dot(atoms.weights * u, u) / np.dot(u, ku))
        assert rq <= lam1 + 1e-10


# ---------------------------------------------------------------------------
# order fits
# ---------------------------------------------------------------------------

def test_order_fit_lebesgue(leb1):
    fit = lq.order_fit(leb1, [8, 9, 10, 11], index_window=(5, 50))
    assert fit.slope == pytest.approx(-2.0, abs=0.05)
    assert fit.reference_slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.stderr < 0.01
    assert fit.level == 11
    assert len(fit.per_level) == 4


def test_order_fit_window_too_small(leb1):
    with pytest.raises(ValueError, match="fewer than 10"):
        lq.order_fit(leb1, [6], index_window=(5, 12))


@pytest.mark.parametrize("window, end", [((0, 50), 0), ((-5, 50), 0), ((5.0, 50), 0),
                                         ((5, 0), 1)])
def test_order_fit_window_ends_are_counts(monkeypatch, leb1, window, end):
    # a window from 0 or below took log(0) and read lam[-1]: LAPACK printed
    # to stderr and the least-squares SVD failed to converge; the window is
    # now checked before any solve
    def no_solve(atoms):
        raise AssertionError("solved before the window was checked")

    monkeypatch.setattr(kreinfeller, "solve_eigen", no_solve)
    with pytest.raises(ValueError, match=rf"^index_window\[{end}\] must be >= 1"):
        lq.order_fit(leb1, [6, 7], index_window=window)


@pytest.mark.parametrize("reference_levels", [None, [4]])
def test_order_fit_checks_its_levels_before_any_solve(monkeypatch, binom, reference_levels):
    def no_solve(atoms):
        raise AssertionError("solved before the levels were checked")

    monkeypatch.setattr(kreinfeller, "solve_eigen", no_solve)
    for levels in ([9, 9, 10], [0, 9], []):
        with pytest.raises(ValueError, match="strictly increasing"):
            lq.order_fit(binom, levels, reference_levels=reference_levels)


def test_order_fit_accepts_unsorted_levels(binom):
    assert lq.order_fit(binom, [10, 9]) == lq.order_fit(binom, [9, 10])


def test_a_level_is_required_to_discretize(binom, dirac_half):
    with pytest.raises(ValueError, match="a level is required"):
        lq.discretize(binom, None)
    with pytest.raises(ValueError, match="a level is required"):
        lq.split_counting_check(binom, None, [0.5], [0.1])
    # an atomic spec ignores the level
    assert lq.discretize(dirac_half, None).points.tolist() == [0.5]


def test_order_fit_respects_decay_bounds(leb1, binom, cantor):
    # universal chain: slope <= -2 (+0.05 fit slack) in 1D, and never slower
    # than the measure's own -1/s_1 target (+0.15)
    fits = [
        lq.order_fit(leb1, [9, 10], index_window=(5, 50)),
        lq.order_fit(binom, [9, 10]),
        lq.order_fit(cantor, [11, 12]),
    ]
    for fit in fits:
        assert fit.slope <= -2.0 + 0.05
        assert fit.slope <= fit.reference_slope + 0.15


# ---------------------------------------------------------------------------
# counting sandwich
# ---------------------------------------------------------------------------

def test_split_two_atoms_exact(atom_pair):
    # cut at 1/2: each piece is a single-atom string with gaps 1/3 and 1/6,
    # so K = 3 + 6 = 9 and lambda = (1/2)/9 = 1/18 on both sides; the grid
    # stays off the eigenvalues to avoid 1-ulp counting flips
    report = lq.split_counting_check(atom_pair, None, [0.5],
                                     [0.01, 0.05, 0.1, 0.2])
    assert report.passed
    # full spectrum {1/6, 1/18}; pieces {1/18} and {1/18}
    assert list(report.n_full) == [2, 2, 1, 0]
    assert list(report.n_split_sum) == [2, 2, 0, 0]
    assert list(report.gaps) == [0, 0, 1, 0]


def test_split_lebesgue_gap_zero_or_one(leb1):
    xs = np.geomspace(1e-7, 0.2, 50)
    report = lq.split_counting_check(leb1, 8, [0.5], xs)
    assert report.passed
    assert set(np.unique(report.gaps)) <= {0, 1}


def test_split_rejects_cut_on_atom(dirac_half):
    with pytest.raises(ValueError, match="coincides"):
        lq.split_counting_check(dirac_half, None, [0.5], [0.1])


def test_split_rejects_bad_cuts(leb1):
    with pytest.raises(ValueError, match="inside"):
        lq.split_counting_check(leb1, 4, [0.0, 0.5], [0.1])
    with pytest.raises(ValueError, match="cut"):
        lq.split_counting_check(leb1, 4, [], [0.1])


def test_split_rejects_non_finite_x(binom):
    # a NaN x used to count 0 eigenvalues above it
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite positive"):
            lq.split_counting_check(binom, 6, [0.5], [1e-4, bad])


def test_split_empty_piece_is_fine(quarter_pair):
    # cuts at 0.4 and 0.6 leave the middle piece without atoms
    report = lq.split_counting_check(quarter_pair, None, [0.4, 0.6],
                                     [0.001, 0.05, 0.2])
    assert report.passed


# ---------------------------------------------------------------------------
# inertia counts against the eigen-solve reference
# ---------------------------------------------------------------------------

DATA = Path(lq.__file__).parent / "data"
SHIPPED_1D = sorted(p.stem for p in DATA.glob("*.json") if lq.load_spec(p).dim == 1)
# leb1, cantor and dirac_half equal shipped specs (tests/test_engine.py checks this)
FIXTURES_1D = ["binom", "atom_pair", "quarter_pair", "mixture"]
REL_GAP = 1e-9  # no grid point comes closer than this to an eigenvalue


def _all_eigenvalues(atoms, cuts):
    """The full string's eigenvalues and those of every piece between cuts."""
    bounds = (0.0, *cuts, 1.0)
    out = [lq.solve_eigen(atoms).eigenvalues]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = (atoms.points > lo) & (atoms.points < hi)
        if inside.any():
            out.append(kreinfeller._solve_string(atoms.points[inside], atoms.weights[inside],
                                                 lo, hi, want_vectors=False)[0])
    return np.unique(np.concatenate(out))


def _grid_off_eigenvalues(lam):
    """Geometric means of neighbouring eigenvalues, one x below and one above
    them all, without the x within REL_GAP of an eigenvalue."""
    xs = np.concatenate(([lam[0] / 2], np.sqrt(lam[:-1] * lam[1:]), [lam[-1] * 2]))
    i = np.searchsorted(lam, xs)
    below = lam[np.maximum(i - 1, 0)]
    above = lam[np.minimum(i, len(lam) - 1)]
    rel = np.minimum(np.abs(xs / below - 1), np.abs(xs / above - 1))
    return xs[rel >= REL_GAP]


def _assert_counts_match_reference(spec, level, cuts):
    atoms = lq.discretize(spec, level if level is not None else 0)
    xs = _grid_off_eigenvalues(_all_eigenvalues(atoms, sorted(cuts)))
    got = lq.split_counting_check(spec, level, cuts, xs)
    want = kreinfeller_reference.split_counting_check(spec, level, cuts, xs)
    np.testing.assert_array_equal(got.n_full, want.n_full)
    np.testing.assert_array_equal(got.n_split_sum, want.n_split_sum)
    assert got.passed == want.passed


@pytest.mark.parametrize("cuts", [(0.55,), (0.3, 0.55, 0.8)])
@pytest.mark.parametrize("name", SHIPPED_1D + FIXTURES_1D)
def test_inertia_counts_match_eigen_solve(request, name, cuts):
    if name in SHIPPED_1D:
        spec = lq.load_spec(DATA / f"{name}.json")
    else:
        spec = request.getfixturevalue(name)
    _assert_counts_match_reference(spec, None if isinstance(spec, lq.Atomic) else 10, cuts)


@pytest.mark.parametrize("block", [kreinfeller._ROW_BLOCK, 97])
def test_inertia_counts_carry_across_row_blocks(monkeypatch, binom, block):
    monkeypatch.setattr(kreinfeller, "_ROW_BLOCK", block)
    _assert_counts_match_reference(binom, 9, (0.3, 0.55, 0.8))


@st.composite
def strings(draw):
    """Atomic 1-D strings with 1-3 cuts strictly between atoms: equal-weight
    lattices, whose congruent pieces tie exactly, or scattered atoms with
    log-normal weights spread over several decades."""
    n = draw(st.integers(1, 48))
    if draw(st.booleans()):
        den = n + 1
        points = [Fraction(k, den) for k in range(1, n + 1)]
        weights = [1.0 / n] * n
        cut_pool = st.integers(0, n).map(lambda k: Fraction(2 * k + 1, 2 * den))
    else:
        ks = draw(st.lists(st.integers(1, (1 << 20) - 1), min_size=n, max_size=n, unique=True))
        points = [Fraction(k, 1 << 20) for k in sorted(ks)]
        sigma = draw(st.floats(0.5, 3.0))
        z = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        raw = np.exp(sigma * z)
        weights = (raw / raw.sum()).tolist()
        cut_pool = st.integers(0, (1 << 20) - 1).map(lambda k: Fraction(2 * k + 1, 1 << 21))
    cuts = draw(st.lists(cut_pool, min_size=1, max_size=3, unique=True))
    spec = lq.Atomic(tuple((p,) for p in points), tuple(weights))
    return spec, [float(c) for c in cuts]


@given(strings())
def test_inertia_counts_match_eigen_solve_on_generated_strings(case):
    spec, cuts = case
    _assert_counts_match_reference(spec, None, cuts)


@st.composite
def long_strings(draw):
    """Atomic strings of up to 1,024 atoms with 1-3 cuts that avoid the
    atoms: equal-weight lattices k/(n+1), or atoms on the 2^-20 grid with
    log-normal weights; the cuts are odd multiples of half the grid step."""
    n = draw(st.integers(1, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        den = n + 1
        points = np.arange(1, n + 1) / den
        weights = np.full(n, 1.0 / n)
    else:
        den = 1 << 20
        points = np.sort(rng.choice(np.arange(1, den), n, replace=False)) / den
        raw = np.exp(draw(st.floats(0.5, 3.0)) * rng.standard_normal(n))
        weights = raw / raw.sum()
    cuts = draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=3, unique=True))
    return lq.AtomicApprox(points, weights), [(2 * k + 1) / (2 * den) for k in cuts]


@given(long_strings())
def test_sandwich_gaps_lie_between_zero_and_the_number_of_cuts(case):
    # restricting to the functions that vanish at n cut points removes at
    # most n eigenvalues above any x (interlacing), and adds none
    atoms, cuts = case
    lam = lq.solve_eigen(atoms).eigenvalues
    xs = np.geomspace(lam[-1] / 2, lam[0] * 2, 40)
    gaps = lq.split_counting_check(atoms, None, cuts, xs).gaps
    assert gaps.min() >= 0 and gaps.max() <= len(cuts)


def test_zero_pivot_is_counted_without_warnings():
    # atoms 1/4 and 3/4: K = [[6, -2], [-2, 6]], W = diag(3/4, 1/4).  At
    # x = 1/8 the first pivot 6 - (3/4)/(1/8) is exactly 0; K - 8W has one
    # negative eigenvalue, so one lambda (0.1479) lies above x
    spec = lq.Atomic(((Fraction(1, 4),), (Fraction(3, 4),)), (0.75, 0.25))
    diag, off = lq.stiffness_tridiagonal(np.array([0.25, 0.75]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(kreinfeller._inertia_counts(diag, off, np.array([0.75, 0.25]),
                                                np.array([0.125]))) == [1]
        report = lq.split_counting_check(spec, None, [0.5], [0.125])
    lam = lq.solve_eigen(lq.discretize(spec, 0)).eigenvalues
    assert lam[0] > 0.125 > lam[1]
    assert (report.n_full[0], report.n_split_sum[0]) == (1, 0)


def test_singular_pencil_counts_the_eigenvalue_at_x(dirac_half):
    # one atom at 1/2: K = 4, W = 1, lambda = 1/4; at x = 1/4 the only pivot
    # is exactly 0 and N(x) = #{lambda >= x} = 1, as the eigen solve counts
    report = lq.split_counting_check(dirac_half, None, [0.25], [0.25])
    want = kreinfeller_reference.split_counting_check(dirac_half, None, [0.25], [0.25])
    assert (report.n_full[0], report.n_split_sum[0]) == (1, 0)
    assert (want.n_full[0], want.n_split_sum[0]) == (1, 0)
