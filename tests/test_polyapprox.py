"""Moment-matching projections, empirical L^q errors, width upper bounds.

``polyapprox_reference`` holds the per-cube projection, the cube scan and the
``rng.choice`` sampler the block layer replaced; the block layer must give the
same coefficients, values and draws to the bit."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lqspectra as lq
import polyapprox_reference as ref
from lqspectra import polyapprox


def poly_u(coeffs):
    """1D polynomial oracle sum_j coeffs[j] x^j in the (npts, 1) convention."""
    def u(pts):
        return sum(c * pts[:, 0] ** j for j, c in enumerate(coeffs))
    return u


# ---------------------------------------------------------------------------
# kappa and basis bookkeeping
# ---------------------------------------------------------------------------

def test_kappa_examples():
    assert lq.kappa(1, 1) == 1
    assert lq.kappa(3, 2) == 4
    assert lq.kappa(2, 3) == 6


def test_multi_indices_count_matches_kappa():
    for m in (1, 2, 3):
        for ell in (1, 2, 3, 4):
            idx = lq.multi_indices(m, ell)
            assert len(idx) == lq.kappa(m, ell)
            assert all(sum(k) <= ell - 1 for k in idx)


# ---------------------------------------------------------------------------
# projections on a single cube
# ---------------------------------------------------------------------------

def test_projection_of_x_is_its_mean():
    coeffs = lq.project_poly(poly_u([0.0, 1.0]), lq.unit_cube(1), 1)
    vals = lq.polynomial_values(lq.unit_cube(1), 1, coeffs, np.array([[0.123]]))
    assert vals[0] == pytest.approx(0.5, abs=1e-14)


def test_projection_x_squared_order_two():
    # hand-solved moment system: int r = 1/3, int x r = 1/4 -> r = x - 1/6
    cube = lq.unit_cube(1)
    coeffs = lq.project_poly(poly_u([0.0, 0.0, 1.0]), cube, 2)
    xs = np.linspace(0.01, 1.0, 57)[:, None]
    got = lq.polynomial_values(cube, 2, coeffs, xs)
    assert np.max(np.abs(got - (xs[:, 0] - 1.0 / 6.0))) < 1e-10


def test_projection_reproduces_own_space_and_is_idempotent():
    rng = np.random.default_rng(3)
    for ell in (1, 2, 3):
        cube = lq.DyadicCube(2, (1,))
        coeffs_poly = rng.standard_normal(ell)
        u = poly_u(coeffs_poly)
        proj = lq.project_poly(u, cube, ell)
        xs = (0.25 + 0.25 * np.linspace(0.001, 1, 33))[:, None]
        assert np.max(np.abs(lq.polynomial_values(cube, ell, proj, xs) - u(xs))) < 1e-10
        again = lq.project_poly(
            lambda pts: lq.polynomial_values(cube, ell, proj, pts), cube, ell)
        assert np.allclose(again, proj, atol=1e-12)


def test_moment_matching_independent_quadrature():
    u = lambda pts: np.exp(pts.sum(axis=1))
    for cube in (lq.unit_cube(2), lq.DyadicCube(1, (0, 1))):
        for ell in (1, 2, 3):
            coeffs = lq.project_poly(u, cube, ell)
            resid = lq.moment_residuals(u, cube, ell, coeffs)
            scale = max(1.0, float(np.abs(coeffs).max()))
            assert np.max(np.abs(resid)) < 1e-9 * scale


def test_projection_is_best_l2_among_random_competitors():
    rng = np.random.default_rng(5)
    u = lambda pts: np.sin(3.0 * pts[:, 0])
    cube = lq.DyadicCube(1, (1,))
    ell = 3
    coeffs = lq.project_poly(u, cube, ell)
    best = lq.projection_l2_error(u, cube, ell, coeffs)
    for _ in range(20):
        rival = coeffs + 0.3 * rng.standard_normal(coeffs.shape)
        rival_err = lq.projection_l2_error(u, cube, ell, rival)
        assert best <= rival_err + 1e-12


def test_sup_error_halves_like_two_to_minus_ell():
    # u = x^ell over an interval of length h: the remainder is the monic
    # Legendre term, whose sup scales as h^ell; halving h divides it by 2^ell
    for ell in (1, 2, 3):
        u = poly_u([0.0] * ell + [1.0])

        def sup_error(cube):
            coeffs = lq.project_poly(u, cube, ell)
            corner = cube.index[0] * cube.volume()
            xs = np.linspace(corner, corner + cube.volume(), 2001)[:, None]
            return np.max(np.abs(u(xs) - lq.polynomial_values(cube, ell, coeffs, xs)))

        err_h = sup_error(lq.DyadicCube(1, (1,)))
        err_h2 = sup_error(lq.DyadicCube(2, (2,)))
        assert err_h2 / err_h == pytest.approx(2.0 ** (-ell), abs=1e-6)


def test_rejects_non_finite_oracle():
    bad = lambda pts: np.where(pts[:, 0] > 0.5, np.inf, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        lq.project_poly(bad, lq.unit_cube(1), 1)


# ---------------------------------------------------------------------------
# piecewise projection
# ---------------------------------------------------------------------------

def test_piecewise_halves_means():
    halves = [lq.DyadicCube(1, (0,)), lq.DyadicCube(1, (1,))]
    pp = lq.piecewise_project(poly_u([0.0, 1.0]), halves, 1)
    got = pp.evaluate(np.array([[0.2], [0.9]]))
    assert np.allclose(got, [0.25, 0.75], atol=1e-14)


def test_piecewise_reproduces_polynomials(leb1):
    part = lq.adaptive_partition(leb1, 1.0, 0.1)
    u = poly_u([0.3, -0.7])
    pp = lq.piecewise_project(u, part, 2)
    xs = np.linspace(0.001, 1.0, 101)[:, None]
    assert np.max(np.abs(pp.evaluate(xs) - u(xs))) < 1e-10


def test_piecewise_single_cube_equals_project():
    u = lambda pts: np.cos(pts[:, 0])
    pp = lq.piecewise_project(u, [lq.unit_cube(1)], 2)
    direct = lq.project_poly(u, lq.unit_cube(1), 2)
    assert np.allclose(pp.coeffs[0], direct, atol=1e-14)


def test_evaluate_half_open_boundary_and_domain():
    halves = [lq.DyadicCube(1, (0,)), lq.DyadicCube(1, (1,))]
    pp = lq.piecewise_project(poly_u([0.0, 1.0]), halves, 1)
    # 0.5 belongs to the left cube (0, 1/2]
    assert pp.evaluate(np.array([[0.5]]))[0] == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ValueError, match="outside"):
        pp.evaluate(np.array([[0.0]]))


def test_piecewise_json_roundtrip():
    halves = [lq.DyadicCube(1, (0,)), lq.DyadicCube(1, (1,))]
    pp = lq.piecewise_project(poly_u([1.0, 2.0]), halves, 2)
    doc = pp.to_json_dict()
    back = lq.PiecewisePoly.from_json_dict(doc)
    xs = np.linspace(0.01, 1.0, 11)[:, None]
    assert np.allclose(back.evaluate(xs), pp.evaluate(xs), atol=0)
    with pytest.raises(ValueError, match="basis"):
        lq.PiecewisePoly.from_json_dict({"basis": "other", "order": 1, "pieces": []})


def test_piecewise_json_refuses_bad_orders_and_coefficient_counts():
    # an order of 2.7 was read as 2 and True as 1; an order-1 document with
    # two coefficients per piece evaluated with the first of them only
    halves = [lq.DyadicCube(1, (0,)), lq.DyadicCube(1, (1,))]
    doc = lq.piecewise_project(poly_u([1.0, 2.0]), halves, 2).to_json_dict()
    for order in (2.7, True):
        with pytest.raises(ValueError, match="^order must"):
            lq.PiecewisePoly.from_json_dict({**doc, "order": order})
    for order, pieces in ((1, doc["pieces"]), (2, [])):
        with pytest.raises(ValueError, match="^pieces need kappa"):
            lq.PiecewisePoly.from_json_dict({**doc, "order": order, "pieces": pieces})


# ---------------------------------------------------------------------------
# empirical L^q errors
# ---------------------------------------------------------------------------

def test_error_dirac_exact(dirac_half):
    appr = lq.piecewise_project(poly_u([0.0, 0.0, 1.0]), [lq.unit_cube(1)], 1)
    err, se = lq.error_Lq(poly_u([0.0, 0.0, 1.0]), appr, dirac_half, 2.0)
    assert err == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert se == 0.0


def test_error_vanishes_on_reproduced_polynomials(binom):
    u = poly_u([0.5, 0.5])
    appr = lq.piecewise_project(u, [lq.unit_cube(1)], 2)
    err, _ = lq.error_Lq(u, appr, binom, 2.0, n_samples=2000, seed=4)
    assert err < 1e-12


def test_error_lebesgue_monte_carlo_vs_closed_form(leb1):
    halves = [lq.DyadicCube(1, (0,)), lq.DyadicCube(1, (1,))]
    u = poly_u([0.0, 1.0])
    appr = lq.piecewise_project(u, halves, 1)
    err, se = lq.error_Lq(u, appr, leb1, 2.0, n_samples=200_000, seed=1)
    want = 1.0 / math.sqrt(48.0)
    assert se > 0
    assert abs(err - want) < 3 * se


def test_error_requires_q_at_least_one(leb1, dirac_half):
    appr = lq.piecewise_project(poly_u([0.0, 1.0]), [lq.unit_cube(1)], 1)
    with pytest.raises(ValueError):
        lq.error_Lq(poly_u([0.0, 1.0]), appr, dirac_half, 0.5)
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            lq.error_Lq(poly_u([0.0, 1.0]), appr, leb1, q)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n_samples"):
            lq.error_Lq(poly_u([0.0, 1.0]), appr, leb1, 2.0, n_samples=n)


# ---------------------------------------------------------------------------
# measure sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_and_in_domain(binom, tetra, cantor, density2d, mixture):
    for spec in (binom, tetra, cantor, density2d, mixture):
        a = lq.sample_measure(spec, 500, np.random.default_rng(9))
        b = lq.sample_measure(spec, 500, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert a.shape == (500, spec.dim)
        assert np.all(a > 0) and np.all(a <= 1)


def test_sampling_binomial_mean(binom):
    # E[x] solves E = 0.7*(E/2) + 0.3*(1/2 + E/2), i.e. E = 0.3
    pts = lq.sample_measure(binom, 200_000, np.random.default_rng(2))
    se = pts.std() / math.sqrt(len(pts))
    assert abs(pts.mean() - 0.3) < 4 * se


def test_sampling_atoms_exact(quarter_pair):
    pts = lq.sample_measure(quarter_pair, 1000, np.random.default_rng(0))
    assert set(np.unique(pts)) == {0.25, 0.75}


# ---------------------------------------------------------------------------
# width upper bounds
# ---------------------------------------------------------------------------

def test_width_sequence_lebesgue_slope_minus_one(leb1):
    params = lq.OrderParams(2, 2, 1, 1)
    wb = lq.width_upper_sequence(leb1, params, [2 ** k for k in range(9)])
    assert wb.kappa == 1
    assert wb.bounds[0] == 1.0  # single-cell budget: J(unit cube)^(1/q) = 1
    assert wb.slope == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(wb.bounds, 2.0 ** -np.arange(9.0))


def test_width_sequence_dimension_scaling(leb2):
    params = lq.OrderParams(2, 2, 2, 2)  # kappa = 3
    wb = lq.width_upper_sequence(leb2, params, [1, 2, 4])
    assert wb.kappa == 3
    assert np.array_equal(wb.dimensions, [3, 6, 12])


def test_width_sequence_validates(leb1):
    params = lq.OrderParams(2, 2, 1, 1)
    with pytest.raises(ValueError, match="n_list"):
        lq.width_upper_sequence(leb1, params, [])
    with pytest.raises(ValueError, match="dimension"):
        lq.width_upper_sequence(lq.Lebesgue(2), params, [1, 2])


def test_error_tracks_bound_with_one_constant(leb1, binom):
    # along a refinement sequence the measured L^2_nu error should be a
    # bounded multiple of (max J_a)^(1/q): same constant, no blow-up
    u = lambda pts: np.exp(pts[:, 0])
    for spec in (leb1, binom):
        ratios = []
        for budget in (2, 4, 8, 16, 32, 64, 128):
            part = lq.budget_partition(spec, 1.0, budget)
            appr = lq.piecewise_project(u, part, 1)
            err, _ = lq.error_Lq(u, appr, spec, 2.0, n_samples=40_000, seed=3)
            ratios.append(err / part.max_j ** 0.5)
        ratios = np.asarray(ratios)
        assert ratios.max() <= 1.0
        assert ratios.max() / ratios.min() <= 3.0


# ---------------------------------------------------------------------------
# the block layer against the per-cube loops it replaced
# ---------------------------------------------------------------------------

DATA = Path(lq.__file__).parent / "data"
SHIPPED = sorted(p.stem for p in DATA.glob("*.json"))
# leb1, leb3, tetra, cantor and dirac_half equal shipped specs
# (tests/test_engine.py checks this) and are covered by them
FIXTURES = ["leb2", "binom", "atom_pair", "quarter_pair", "density2d", "mixture",
            "uneven_ifs", "atoms5000", "density8"]
DIFF_POINTS = 20_000  # more than one block of points


@pytest.fixture(scope="module")
def uneven_ifs():
    # three maps of unequal ratios: each step gathers the ratios
    maps = tuple(lq.Homothety1D(Fraction(r), Fraction(o))
                 for r, o in (("1/2", "0"), ("1/5", "1/2"), ("1/4", "3/4")))
    return lq.GeneralIFS1D(maps, (0.5, 0.2, 0.3))


@pytest.fixture(scope="module")
def atoms5000():
    # 5,000 atoms: most CDF edges lie strictly inside the 2^16 cells of the
    # draw table, so most draws are searched one by one
    rng = np.random.default_rng(21)
    points = sorted({Fraction(int(k), 1 << 30) for k in rng.integers(1, 1 << 30, 5200)})
    weights = rng.random(5000) + 0.01
    return lq.Atomic(tuple((x,) for x in points[:5000]), tuple(weights / math.fsum(weights)))


@pytest.fixture(scope="module")
def density8():
    # a depth-8 density in 2-D: 65,536 cells, a quarter of them empty (repeated
    # CDF edges)
    rng = np.random.default_rng(22)
    values = rng.random((256, 256))
    values[values < 0.25] = 0.0
    return lq.DyadicDensity(8, values / values.mean())


def _diff_spec(request, name):
    return lq.load_spec(DATA / f"{name}.json") if name in SHIPPED else request.getfixturevalue(name)


def _uniform_points(rng, n, m):
    return 1.0 - rng.random((n, m))


@pytest.mark.parametrize("block", [polyapprox._BLOCK, 97])
@pytest.mark.parametrize("name", SHIPPED + FIXTURES)
def test_blocks_match_per_cube_loops(request, monkeypatch, name, block):
    # bit-equal coefficients, values and draws; block 97 puts block
    # boundaries inside the node grids and the point sets of single cubes
    monkeypatch.setattr(polyapprox, "_BLOCK", block)
    spec = _diff_spec(request, name)
    m = spec.dim
    u = lambda pts: np.exp(pts.sum(axis=1)) + np.sin(7.0 * pts[:, 0])
    part = lq.adaptive_partition(spec, 1.0, 10.0 ** -min(1.0 + m, 3.0))
    rng = np.random.default_rng(SHIPPED.index(name) if name in SHIPPED else 50 + FIXTURES.index(name))
    for seed in (0, 1):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = lq.sample_measure(spec, DIFF_POINTS, got_rng)
        want = ref.sample_measure(spec, DIFF_POINTS, want_rng)
        assert np.array_equal(got, want), (name, seed)
        assert got_rng.random() == want_rng.random(), (name, seed)  # same stream position
    # measure draws crowd into few cubes; uniform points reach every cube
    pts = np.concatenate((got, _uniform_points(rng, DIFF_POINTS // 4, m)))
    for ell in (1, 2, 3):
        pp = lq.piecewise_project(u, part, ell)
        coeffs = ref.piecewise_coeffs(u, part.cubes, ell)
        assert np.array_equal(pp.coeffs, coeffs), (name, ell)
        assert np.array_equal(pp.evaluate(pts), ref.scan_evaluate(ell, part.cubes, coeffs, pts)), \
            (name, ell)
    cube = part.cubes[len(part.cubes) // 2]
    for ell in (1, 3):
        coeffs = lq.project_poly(u, cube, ell)
        assert np.array_equal(coeffs, ref.project_poly(u, cube, ell))
        assert np.array_equal(lq.polynomial_values(cube, ell, coeffs, pts[:50]),
                              ref.polynomial_values(cube, ell, coeffs, pts[:50]))


def test_error_lq_draws_match_choice_sampler(binom, tetra, cantor, mixture):
    # error_Lq consumes the rng stream exactly as the choice sampler did
    u = lambda pts: np.exp(pts.sum(axis=1))
    for spec in (binom, tetra, cantor, mixture):
        part = lq.budget_partition(spec, 1.0, 40)
        pp = lq.piecewise_project(u, part, 2)
        pts = ref.sample_measure(spec, 5000, np.random.default_rng(11))
        diff = np.abs(u(pts) - ref.scan_evaluate(2, part.cubes, pp.coeffs, pts)) ** 2.0
        want = float(diff.mean()) ** 0.5
        assert lq.error_Lq(u, pp, spec, 2.0, n_samples=5000, seed=11)[0] == want


def test_deep_3d_keys_take_python_integers():
    # pieces down to level 23 in 3-D: 69 key bits, past int64
    point = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
    atom = lq.Atomic((point,), (1.0,))
    part = lq.adaptive_partition(atom, 1.0, 2.0 ** -68)
    assert part.max_level >= 22
    depth, edges, _ = polyapprox._piece_runs(*part._arrays)
    assert 3 * depth > 62 and edges.dtype == object
    u = lambda pts: np.cos(pts @ np.array([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(4)
    # the atom, points beside it in its deepest cubes, and uniform points
    deep = part.cubes[-1]
    near = (np.array(deep.index) + rng.random((200, 3))) * 2.0 ** -deep.level
    pts = np.concatenate(([[float(c) for c in point]], near, _uniform_points(rng, 500, 3)))
    for ell in (1, 2):
        pp = lq.piecewise_project(u, part, ell)
        coeffs = ref.piecewise_coeffs(u, part.cubes, ell)
        assert np.array_equal(pp.coeffs, coeffs)
        assert np.array_equal(pp.evaluate(pts), ref.scan_evaluate(ell, part.cubes, coeffs, pts))


@pytest.mark.parametrize("bits", [58, 70])
def test_deep_cube_indices_locate_exactly(bits):
    # pieces down to level 59 or 71 around the float nearest 1/3: past 2^53
    # the cube indices leave the float grid, past 2^62 int64 too, and the
    # float cube bounds the scan compares with are no longer exact, so exact
    # membership is the reference
    x = 1.0 / 3.0
    atom = lq.Atomic(((Fraction(x),),), (1.0,))
    part = lq.adaptive_partition(atom, 1.0, 2.0 ** -bits, max_depth=80)
    assert part.max_level == bits + 1
    pts = np.array([[x], [np.nextafter(x, 0.0)], [np.nextafter(x, 1.0)],
                    [x + 2.0 ** -60], [x - 2.0 ** -60], [0.2], [1.0]])
    rows = polyapprox._owners(pts, *polyapprox._piece_runs(*part._arrays))
    want = [next(i for i, c in enumerate(part.cubes) if c.contains_point((Fraction(p),)))
            for p in pts[:, 0]]
    assert rows.tolist() == want


def test_projection_chain_builds_no_cubes(binom, tetra, density2d):
    # budget_partition -> piecewise_project -> error_from_sample reads key
    # arrays only, and gives what the same cubes given as a list give
    u = lambda pts: np.exp(pts.sum(axis=1)) / 3.0
    for spec, ell in ((binom, 1), (binom, 3), (tetra, 2), (density2d, 2)):
        part = lq.budget_partition(spec, 1.0, 60)
        pp = lq.piecewise_project(u, part, ell)
        sample = lq.error_sample(u, spec, 2.0, n_samples=2000, seed=5)
        err = lq.error_from_sample(sample, pp)
        assert part._cubes is None and pp._cubes is None
        listed = lq.piecewise_project(u, list(part.cubes), ell)
        assert pp.cubes == listed.cubes == part.cubes
        assert np.array_equal(pp.coeffs, listed.coeffs)
        assert np.array_equal(pp.evaluate(sample.points), listed.evaluate(sample.points))
        assert lq.error_from_sample(sample, listed) == err


def test_piecewise_json_roundtrip_is_lossless(binom, tetra):
    u = lambda pts: np.exp(pts.sum(axis=1)) / 3.0
    for spec, ell in ((binom, 3), (tetra, 2)):
        pp = lq.piecewise_project(u, lq.budget_partition(spec, 1.0, 60), ell)
        back = lq.PiecewisePoly.from_json_dict(json.loads(json.dumps(pp.to_json_dict())))
        assert back.order == pp.order and back.cubes == pp.cubes
        assert back.coeffs.dtype == pp.coeffs.dtype and np.array_equal(back.coeffs, pp.coeffs)
        pts = _uniform_points(np.random.default_rng(2), 300, spec.dim)
        assert np.array_equal(back.evaluate(pts), pp.evaluate(pts))


def test_evaluate_rejects_points_of_the_wrong_dimension(leb2):
    pp = lq.piecewise_project(poly_u([1.0]), [lq.unit_cube(1)], 1)
    with pytest.raises(ValueError, match="coordinates"):
        pp.evaluate(np.full((3, 2), 0.5))
    for ell in (1, 2):
        pp = lq.piecewise_project(poly_u([1.0]), [lq.unit_cube(1)], ell)
        assert pp.evaluate(np.zeros((0, 1))).shape == (0,)


@st.composite
def pieces(draw):
    """1-8 cubes of one dimension, overlapping or not, in any order."""
    m = draw(st.integers(1, 3))
    top = {1: 40, 2: 32, 3: 22}[m]  # 64 and 66 key bits in 2-D and 3-D
    cubes = []
    for _ in range(draw(st.integers(1, 8))):
        level = draw(st.sampled_from([0, 1, 2, 3, 5, top]))
        cubes.append(lq.DyadicCube(level, tuple(
            draw(st.integers(0, (1 << level) - 1)) for _ in range(m))))
    return m, cubes


@st.composite
def probe_points(draw, m, cubes):
    """Points in or on the faces of the pieces; unless ``inside``, also points
    on lower faces, anywhere, and at 0, 1, > 1, < 0 and NaN."""
    inside = draw(st.booleans())
    special = st.sampled_from([0.0, 1.0, 1.5, 1.0 + 2.0 ** -52, -0.25, math.nan, 2.0 ** -1074])
    points = []
    for _ in range(draw(st.integers(1, 8))):
        cube = draw(st.sampled_from(cubes))
        point = []
        for l in cube.index:  # (l + f) 2^-L, f on a face (0 or 1) or a dyadic step inside
            bits = draw(st.integers(0, 4))
            f = draw(st.integers(int(inside), 1 << bits)) / (1 << bits)
            point.append(math.ldexp(l + f, -cube.level))
        kind = 2 if inside else draw(st.integers(0, 3))
        if kind == 0:
            point[draw(st.integers(0, m - 1))] = draw(special)
        elif kind == 1:
            point = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=m, max_size=m))
        points.append(point)
    return np.array(points)


@given(st.data())
def test_key_location_matches_scan(data):
    m, cubes = data.draw(pieces())
    ell = data.draw(st.integers(1, 2))
    coeffs = np.array(data.draw(st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=lq.kappa(m, ell), max_size=lq.kappa(m, ell)),
        min_size=len(cubes), max_size=len(cubes))))
    pts = data.draw(probe_points(m, cubes))
    pp = lq.PiecewisePoly(ell, cubes, coeffs)
    try:
        want = ref.scan_evaluate(ell, cubes, coeffs, pts)
    except ValueError:
        with pytest.raises(ValueError, match="outside"):
            pp.evaluate(pts)
    else:
        assert np.array_equal(pp.evaluate(pts), want)


def _spy_located(monkeypatch):
    """Record how many needles each ``_located`` call searches one by one."""
    searched = []
    located = polyapprox._located

    def spy(edges, needles, cell, starts):
        lo = np.searchsorted(edges, starts[:-1], side="right")
        hi = np.searchsorted(edges, starts[1:], side="left")
        searched.append(int(np.count_nonzero((lo != hi)[cell])))
        return located(edges, needles, cell, starts)

    monkeypatch.setattr(polyapprox, "_located", spy)
    return searched


@pytest.mark.parametrize("name", ["atoms5000", "density8"])
def test_draw_tables_search_inside_cells(request, monkeypatch, name):
    # the inputs of the differential test above do reach the one-by-one
    # search for edges inside cells
    spec = request.getfixturevalue(name)
    searched = _spy_located(monkeypatch)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = lq.sample_measure(spec, DIFF_POINTS, got_rng)
    assert np.array_equal(got, ref.sample_measure(spec, DIFF_POINTS, want_rng))
    assert got_rng.random() == want_rng.random()
    assert searched and max(searched) > 0


@pytest.mark.parametrize("m, bits", [(1, 26), (2, 40)])
def test_deep_pieces_search_inside_cells(monkeypatch, m, bits):
    # pieces 13 to 26 levels deep around a few atoms: m * depth > 16 key bits,
    # so cells of the 2^16-cell table hold piece edges
    rng = np.random.default_rng(m)
    atoms = tuple(tuple(Fraction(int(k), 1 << 40) for k in rng.integers(1, 1 << 40, m))
                  for _ in range(6))
    spec = lq.Atomic(atoms, (1.0 / 6.0,) * 6)
    part = lq.adaptive_partition(spec, 1.0, 2.0 ** -bits)
    assert m * part.max_level > 16
    u = lambda pts: np.exp(pts.sum(axis=1))
    deep = part.cubes[np.argmax([c.level for c in part.cubes])]
    near = (np.array(deep.index) + rng.random((300, m))) * 2.0 ** -deep.level
    pts = np.concatenate((lq.sample_measure(spec, 200, rng), near, _uniform_points(rng, 3000, m)))
    searched = _spy_located(monkeypatch)
    for ell in (1, 2):
        pp = lq.piecewise_project(u, part, ell)
        assert np.array_equal(pp.evaluate(pts), ref.scan_evaluate(ell, part.cubes, pp.coeffs, pts))
    assert max(searched) > 0


@st.composite
def located_inputs(draw):
    """Sorted edges with repeats and needles on a grid of cells: integer keys
    of up to 80 bits (int64, or Python integers past 62 bits) or floats in
    [0, 1) against CDF-like edges in [0, 1]."""
    b = draw(st.integers(0, 8))
    if draw(st.booleans()):
        bits = draw(st.integers(b, 80))
        shift = bits - b
        top = 1 << bits
        dtype = object if bits > 62 else np.int64
        starts = np.array([k << shift for k in range((1 << b) + 1)], dtype=dtype)
        # edges on cell starts, next to them, and anywhere
        value = st.one_of(st.integers(0, 1 << b).map(lambda k: k << shift),
                          st.integers(0, 1 << b).map(lambda k: max(0, min(top, (k << shift) - 1))),
                          st.integers(0, top))
        needle = st.integers(0, top - 1)
        edges = sorted(draw(st.lists(value, min_size=1, max_size=30)))
        needles = draw(st.lists(st.one_of(needle, st.sampled_from(edges).filter(lambda e: e < top)),
                                min_size=1, max_size=40))
        edges, needles = np.array(edges, dtype=dtype), np.array(needles, dtype=dtype)
        cell = (needles >> shift).astype(np.intp)
    else:
        starts = np.ldexp(np.arange((1 << b) + 1, dtype=float), -b)
        value = st.one_of(st.sampled_from(starts.tolist()), st.floats(0.0, 1.0))
        edges = np.array(sorted(draw(st.lists(value, min_size=1, max_size=30)) + [1.0]))
        needle = st.floats(0.0, 1.0, exclude_max=True)
        needles = np.array(draw(st.lists(
            st.one_of(needle, st.sampled_from(edges.tolist()).filter(lambda e: e < 1.0)),
            min_size=1, max_size=40)))
        cell = np.ldexp(needles, b).astype(np.intp)
    repeat = draw(st.lists(st.integers(0, len(edges) - 1), max_size=5))
    edges = np.sort(np.concatenate((edges, edges[repeat])))
    return edges, needles, cell, starts


@given(located_inputs())
def test_located_equals_searchsorted(case):
    edges, needles, cell, starts = case
    want = np.searchsorted(edges, needles, side="right")
    got = polyapprox._located(edges, needles, cell, starts)
    assert got.tolist() == want.tolist()


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=300)
       .filter(lambda w: sum(w) > 0), st.integers(0, 60), st.integers(0, 3))
def test_choice_equals_generator_choice(weights, n, seed):
    # the same picks as Generator.choice, and the stream left at the same place
    probs = np.array(weights) / math.fsum(weights)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = polyapprox._choice(probs, n, got_rng)
    assert got.tolist() == want_rng.choice(len(probs), size=n, p=probs).tolist()
    assert got_rng.random() == want_rng.random()
