"""Adaptive partitions, the exact oracle, and partition-entropy fits."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cursor_reference as ref
import lqspectra as lq
from lqspectra import partition


# ---------------------------------------------------------------------------
# J weights
# ---------------------------------------------------------------------------

def test_j_weight_examples(leb1, tetra, dirac_half):
    assert lq.j_weight(leb1, lq.DyadicCube(2, (1,)), 1.0) == 0.0625
    img = tetra.maps[0].image_cube()
    assert lq.j_weight(tetra, img, 2.0 / 3.0) == pytest.approx(0.659 / 4.0, abs=1e-15)
    for n in (1, 3, 5):
        cube = lq.support_cubes(dirac_half, n)[0]
        assert lq.j_weight(dirac_half, cube, 1.0) == 2.0 ** (-n)


def test_j_weight_requires_positive_a(leb1):
    with pytest.raises(ValueError):
        lq.j_weight(leb1, lq.unit_cube(1), 0.0)


# ---------------------------------------------------------------------------
# adaptive partitions
# ---------------------------------------------------------------------------

def test_adaptive_lebesgue_quarter(leb1):
    part = lq.adaptive_partition(leb1, 1.0, 0.25)
    assert part.cardinality == 4
    assert all(c.level == 2 for c in part.cubes)
    assert part.max_j == 0.0625


def test_adaptive_dirac_hand_recursion(dirac_half):
    # atom chain splits until 2^-4 < 0.1: five cubes, exactly these
    part = lq.adaptive_partition(dirac_half, 1.0, 0.1)
    got = {(c.level, c.index[0]) for c in part.cubes}
    assert got == {(1, 1), (2, 0), (3, 2), (4, 6), (4, 7)}


def test_adaptive_root_good(binom):
    part = lq.adaptive_partition(binom, 1.0, 2.0)
    assert part.cardinality == 1
    assert part.cubes[0] == lq.unit_cube(1)


def test_adaptive_partition_invariants(leb2, binom, tetra, cantor, dirac_half):
    rng = np.random.default_rng(11)
    for spec in (leb2, binom, tetra, cantor, dirac_half):
        for _ in range(4):
            a = float(rng.uniform(0.4, 2.0))
            t = float(10.0 ** rng.uniform(-4, -0.5))
            part = lq.adaptive_partition(spec, a, t)
            assert lq.partition_violations(part, spec) == []
            assert part.max_j < t
            # every non-root cube has a bad parent (the minimality witness)
            for cube in part.cubes:
                if cube.level > 0:
                    assert lq.j_weight(spec, cube.parent(), a) >= t


def test_partition_builds_its_cubes_only_when_read(tetra):
    part = lq.adaptive_partition(tetra, 0.5, 1e-4)
    records = part.to_records()
    assert (part.cardinality, part.max_level) == (len(records), max(r["level"] for r in records))
    assert lq.partition_violations(part, tetra) == []
    assert part._cubes is None  # nothing above needed a DyadicCube
    assert part.cubes is part.cubes  # built once, then kept
    assert [(c.level, list(c.index)) for c in part.cubes] == [(r["level"], r["index"])
                                                               for r in records]


def test_partition_from_a_cube_list(binom):
    # a partition given as a list reads that list: the perturbed copies of
    # dataclasses.replace, for one
    part = lq.adaptive_partition(binom, 1.0, 1e-3)
    cut = dataclasses.replace(part, cubes=part.cubes[:-1], masses=part.masses[:-1],
                              j_values=part.j_values[:-1])
    assert cut.cardinality == part.cardinality - 1
    level = part.cubes[-1].level
    assert cut.level_histogram().get(level, 0) == part.level_histogram()[level] - 1
    assert lq.partition_violations(cut, binom) == [
        f"volumes sum to {1 - part.cubes[-1].volume_fraction()}, not 1: the cubes do not tile "
        "the unit cube"]
    empty = lq.Partition([], np.zeros(0), np.zeros(0), 1.0)
    assert lq.partition_violations(empty) == ["empty partition"]


def test_partition_violations_name_the_first_fault(binom):
    part = lq.adaptive_partition(binom, 1.0, 1e-3)
    cubes = part.cubes + [part.cubes[0].parent()]
    bad = lq.Partition(cubes, np.zeros(len(cubes)), np.append(part.j_values, 7.0), part.a)
    overlap, gap, j = lq.partition_violations(bad, binom)
    assert overlap == ("cubes overlap (path (0, 0, 0, 0, 0, 0) is an ancestor of "
                       "(0, 0, 0, 0, 0, 0, 0))")
    assert gap == "volumes sum to 65/64, not 1: the cubes do not tile the unit cube"
    assert j.startswith("stored J for cube DyadicCube(level=6, index=(0,)) is ")
    assert j.endswith(f"recomputed {lq.j_weight(binom, cubes[-1], 1.0)!r}")
    # a repeated cube, with 62-bit (1D) and Python-integer (2D, 66-bit) keys
    for atom, t in ((lq.dirac([Fraction(1, 3)]), 2.0 ** -61.5),
                    (lq.Atomic(((Fraction(1, 3), Fraction(2, 7)),), (1.0,)), 2.0 ** -65.5)):
        part = lq.adaptive_partition(atom, 1.0, t, max_depth=70)
        assert lq.partition_violations(part, atom) == []
        twice = lq.Partition(part.cubes + [part.cubes[-1]], np.zeros(part.cardinality + 1),
                             np.zeros(part.cardinality + 1), 1.0)
        sel = (1 << atom.dim) - 1
        assert lq.partition_violations(twice)[0] == (f"cubes overlap (path ({sel},) is an "
                                                     f"ancestor of ({sel},))")


def test_max_depth_guard_reports_cube(dirac_half):
    with pytest.raises(lq.MaxDepthExceeded) as err:
        lq.adaptive_partition(dirac_half, 0.5, 1e-9, max_depth=8)
    assert err.value.cube.level == 8
    assert err.value.j_value >= 1e-9


THREE_ATOMS = lq.Atomic(((Fraction(1, 10),), (Fraction(9, 10),), (Fraction(19, 20),)),
                        (0.4, 0.4, 0.2))


@pytest.mark.parametrize("depth, index, j", [(5, 3, 0.0125), (6, 6, 0.00625)])
def test_every_walk_names_the_first_deep_cube_in_key_order(depth, index, j):
    # the atoms at 1/10 and 9/10 tie at every level; all four entry points
    # name the one on the left, the first in depth-first order
    walks = [lambda: lq.adaptive_partition(THREE_ATOMS, 1.0, 1e-12, max_depth=depth),
             lambda: lq.refinement_profile(THREE_ATOMS, 1.0, 10**6, max_depth=depth),
             lambda: lq.budget_partition(THREE_ATOMS, 1.0, 10**6, max_depth=depth),
             lambda: lq.gamma_adaptive_profile(THREE_ATOMS, 1.0, [10**6], max_depth=depth)]
    for walk in walks:
        with pytest.raises(lq.MaxDepthExceeded) as err:
            walk()
        assert (err.value.cube, err.value.j_value) == (lq.DyadicCube(depth, (index,)), j)


def test_depth_errors_name_their_remedy():
    # the profile has a budget and no threshold: its error says to lower the
    # budget; a threshold walk's says to loosen the threshold
    for walk in (lambda: lq.refinement_profile(THREE_ATOMS, 0.5, 64, max_depth=4),
                 lambda: lq.budget_partition(THREE_ATOMS, 0.5, 64, max_depth=4),
                 lambda: lq.gamma_adaptive_profile(THREE_ATOMS, 0.5, [64], max_depth=4)):
        with pytest.raises(lq.MaxDepthExceeded) as err:
            walk()
        message = str(err.value)
        assert message.startswith("bad cube at depth 4 in the refinement profile (J_a = ")
        assert message.endswith("); raise max_depth or lower the budget")
        assert "t = " not in message and "threshold" not in message
    with pytest.raises(lq.MaxDepthExceeded) as err:
        lq.adaptive_partition(THREE_ATOMS, 0.5, 1e-3, max_depth=4)
    assert str(err.value).endswith(" >= t = 0.001); raise max_depth or loosen the threshold")


def test_profile_ends_on_a_positive_zero(dirac_half):
    for spec in (dirac_half, THREE_ATOMS):
        states = lq.refinement_profile(spec, 30.0, 4000)
        last = states[-1, 1]
        assert math.copysign(1.0, last) == 1.0 and last == 0.0, spec
        assert np.all(states[:-1, 1] > 0.0)


def test_counting_N_examples(leb1, dirac_half, binom):
    assert lq.counting_N(leb1, 1.0, 4.0) == 4
    assert lq.counting_N(dirac_half, 1.0, 10.0) == 5
    assert lq.counting_N(binom, 1.0, 0.5) == 1  # 1/t = 2 > J(root)


def test_counting_monotond_in_t_and_a(binom):
    cards_t = [lq.counting_N(binom, 1.0, t) for t in (2.0, 8.0, 32.0, 128.0, 512.0)]
    assert all(x <= y for x, y in zip(cards_t, cards_t[1:]))
    cards_a = [lq.counting_N(binom, a, 64.0) for a in (0.5, 0.8, 1.2, 2.0)]
    assert all(x >= y for x, y in zip(cards_a, cards_a[1:]))


# ---------------------------------------------------------------------------
# refinement profile and budget partitions
# ---------------------------------------------------------------------------

def test_profile_matches_closed_form(leb1):
    gam = lq.gamma_adaptive_profile(leb1, 1.0, [2 ** k for k in range(6)])
    assert np.allclose(gam, [4.0 ** (-k) for k in range(6)], rtol=0, atol=0)


def test_profile_cards_and_weights_monotone(binom):
    states = lq.refinement_profile(binom, 1.0, 200)
    assert np.all(np.diff(states[:, 0]) > 0)
    assert np.all(np.diff(states[:, 1]) < 1e-15)


def test_budget_partition_realizes_profile(binom):
    for budget in (3, 7, 20):
        gam = lq.gamma_adaptive_profile(binom, 1.0, [budget])[0]
        part = lq.budget_partition(binom, 1.0, budget)
        assert part.cardinality <= budget
        assert part.max_j == pytest.approx(gam, rel=1e-12)
        assert lq.partition_violations(part, binom) == []


DATA = Path(lq.__file__).parent / "data"
SHIPPED = sorted(p.stem for p in DATA.glob("*.json"))
FIXTURES = ["leb2", "binom", "atom_pair", "density2d", "mixture"]


def _threshold_partition(spec, a, budget, max_depth):
    """budget_partition as two walks: the profile, then the adaptive
    partition just above the chosen state's max J_a."""
    states = lq.refinement_profile(spec, a, budget, max_depth=max_depth)
    k = int(np.searchsorted(states[:, 0], budget, side="right")) - 1
    return lq.adaptive_partition(spec, a, float(np.nextafter(states[k, 1], np.inf)),
                                 max_depth=max_depth)


@pytest.mark.parametrize("name", SHIPPED + FIXTURES)
def test_budget_partition_takes_one_walk(request, monkeypatch, name):
    # the profile's walk holds the threshold walk: same keys, masses, J
    # values (and the signs of their zeros), order and threshold, or the same
    # MaxDepthExceeded, from one walk instead of two
    spec = lq.load_spec(DATA / f"{name}.json") if name in SHIPPED else request.getfixturevalue(name)
    walks = []
    walk = partition._walk
    monkeypatch.setattr(partition, "_walk", lambda *args, **kw: walks.append(1) or walk(*args, **kw))
    for a in (0.5, 1.0, 2.0):
        for budget in (1, 2, 7, 40, 255, 1000):
            for max_depth in (3, 60):
                walks.clear()
                try:
                    got = lq.budget_partition(spec, a, budget, max_depth=max_depth)
                except partition.MaxDepthExceeded as exc:
                    with pytest.raises(partition.MaxDepthExceeded) as want:
                        _threshold_partition(spec, a, budget, max_depth)
                    assert (exc.cube, exc.j_value, exc.threshold) == \
                        (want.value.cube, want.value.j_value, want.value.threshold)
                    continue
                assert len(walks) == 1
                want = _threshold_partition(spec, a, budget, max_depth)
                for x, y in zip(got._arrays, want._arrays):
                    assert np.array_equal(x, y) and getattr(x, "dtype", None) == getattr(y, "dtype", None)
                assert np.array_equal(got.masses, want.masses)
                assert np.array_equal(got.j_values, want.j_values)
                assert np.array_equal(np.signbit(got.j_values), np.signbit(want.j_values))
                assert (got.a, got.threshold) == (want.a, want.threshold)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def test_oracle_examples(leb1, quarter_pair):
    assert lq.gamma_dyadic_oracle(leb1, 1.0, 1) == 1.0
    assert lq.gamma_dyadic_oracle(leb1, 1.0, 2) == 0.25
    assert lq.gamma_dyadic_oracle(quarter_pair, 1.0, 2, max_depth=8) == 0.25


def test_oracle_rejects_infeasible_budget(leb1):
    with pytest.raises(ValueError, match="budget"):
        lq.gamma_dyadic_oracle(leb1, 1.0, 0)


BAD_COUNTS = {
    "budget_cap": lambda s: lq.refinement_profile(s, 1.0, 2.5),
    "k_max": lambda s: lq.gamma_dyadic_vector(s, 1.0, 5.5),
    "n_cells": lambda s: lq.gamma_dyadic_oracle(s, 1.0, 5.0),
    "k_cap": lambda s: lq.minimal_dyadic_cardinality(s, 1.0, 0.1, k_cap=10.5),
    "budget": lambda s: lq.budget_partition(s, 1.0, 7.5),
    "budgets": lambda s: lq.gamma_adaptive_profile(s, 1.0, []),
    "max_depth": lambda s: lq.gamma_dyadic_vector(s, 1.0, 5, max_depth=-1),
    "max_depth-adaptive": lambda s: lq.adaptive_partition(s, 1.0, 0.1, max_depth=-1),
    "max_depth-counting": lambda s: lq.counting_N(s, 1.0, 10.0, max_depth=-1),
    "max_depth-entropy": lambda s: lq.entropy_estimate(s, 1.0, [1, 2, 3, 4], max_depth=-1),
    "max_depth-profile": lambda s: lq.refinement_profile(s, 1.0, 10, max_depth=-1),
    # the other modules share the rules: a fractional or boolean count, an
    # infinite or NaN real; these returned numbers, raised foreign errors or
    # named the wrong value
    "n-beta_n": lambda s: lq.beta_n(s, 2.5, 0.0),
    "n-s_nb": lambda s: lq.s_nb(s, 2.5, 1.0),
    "n-spectrum_curve": lambda s: lq.spectrum_curve(s, 2.5, [0.0, 1.0]),
    "level-support_masses": lambda s: lq.support_masses(s, 2.5),
    "level-support_masses_bool": lambda s: lq.support_masses(s, True),
    "levels-s_b_estimate": lambda s: lq.s_b_estimate(s, 1.0, [2.5, 4]),
    "n_list": lambda s: lq.width_upper_sequence(s, lq.OrderParams(2, 2, 1, 1), [2.7, 4.2]),
    "max_depth-profile_fraction": lambda s: lq.refinement_profile(s, 1.0, 100, max_depth=2.5),
    "max_depth-oracle_fraction": lambda s: lq.gamma_dyadic_vector(s, 1.0, 100, max_depth=2.5),
    "level-discretize": lambda s: lq.discretize(s, 2.5),
    "n_samples": lambda s: lq.error_sample(lambda x: x[:, 0], s, 2.0, n_samples=2.5),
    "m-kappa": lambda s: lq.kappa(1.5, 2),
    "t-counting_N": lambda s: lq.counting_N(s, 1.0, math.inf),
    "x-counting_function": lambda s: lq.counting_function(
        lq.solve_eigen(lq.discretize(s, 4)), math.nan),
    "n-width_from_eigen": lambda s: lq.width_from_eigen(lq.solve_eigen(lq.discretize(s, 4)), 2.5),
    "ell-OrderParams": lambda s: lq.OrderParams(2, 2, 1.5, 1),
    "n-sample_measure": lambda s: lq.sample_measure(s, 2.5, np.random.default_rng(0)),
    "n-sample_measure_negative": lambda s: lq.sample_measure(s, -1, np.random.default_rng(0)),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_bad_budgets_and_depths_name_their_parameter(binom, case):
    # a bad count or real is refused before any walk, with a ValueError
    # that names the parameter
    name = case.split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must"):
        BAD_COUNTS[case](binom)


# the three grids of the chain share one rule: a 1-D list of enough finite
# values above the site's bound, strictly increasing where the site needs it
GRID_SITES = {
    "s_grid": lambda s, g: lq.spectrum_curve(s, 4, g).values,
    "t_grid": lambda s, g: lq.entropy_estimate(s, 1.0, g).cards,
    "x_grid": lambda s, g: lq.split_counting_check(lq.discretize(s, 6), None, [0.5], g).n_full,
}
REFUSED_GRIDS = [
    *((site, case, grid) for site in GRID_SITES for case, grid in {
        "nan": [0.1, math.nan, 0.3, 0.4],
        "inf": [0.1, 0.2, 0.3, math.inf],
        "-inf": [-math.inf, 0.2, 0.3, 0.4],
        "scalar": 0.5,
        "2-D": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]],
        "ragged": [[0.1, 0.2], 0.3, 0.4, 0.5],
        "text": ["x", 0.2, 0.3, 0.4],
    }.items()),
    ("s_grid", "below 0", [-1e-9, 0.2, 0.3, 0.4]),
    ("t_grid", "zero", [0.0, 0.2, 0.3, 0.4]),
    ("x_grid", "zero", [0.0, 0.2, 0.3, 0.4]),
    ("s_grid", "empty", []),
    ("t_grid", "three points", [0.1, 0.2, 0.3]),
    ("x_grid", "empty", []),
    ("s_grid", "repeated", [0.1, 0.1, 0.3, 0.4]),
    ("t_grid", "decreasing", [0.4, 0.3, 0.2, 0.1]),
]


@pytest.mark.parametrize("site, case, grid", REFUSED_GRIDS,
                         ids=[f"{site}-{case}" for site, case, _ in REFUSED_GRIDS])
def test_every_grid_site_refuses_with_its_name(binom, site, case, grid):
    # a scalar or 2-D grid raised a TypeError or numpy broadcast error that
    # named no parameter
    with pytest.raises(ValueError, match=f"^{site} must be a "):
        GRID_SITES[site](binom, grid)


@pytest.mark.parametrize("site", GRID_SITES)
def test_every_grid_site_accepts_any_1d_sequence(binom, site):
    grid = [0.1, 0.2, 0.3, 0.4]
    want = GRID_SITES[site](binom, grid)
    for same in (tuple(grid), np.array(grid), (g for g in grid)):
        assert np.array_equal(GRID_SITES[site](binom, same), want)
    if site == "x_grid":  # counts need no order
        assert np.array_equal(GRID_SITES[site](binom, grid[::-1]), want[::-1])


def test_minimal_cardinality_refuses_a_cap_below_every_feasible_budget(binom):
    with pytest.raises(ValueError, match=r"^no dyadic partition with max J_a < 1e-09 within 2"):
        lq.minimal_dyadic_cardinality(binom, 1.0, 1e-9, k_cap=2)


class _UniterableArray(np.ndarray):
    def __iter__(self):
        raise AssertionError("the grid was copied through a list")


@pytest.mark.parametrize("site", GRID_SITES)
def test_every_grid_site_converts_an_array_without_iterating_it(binom, site):
    # a copy through a list of floats took several times the array's memory,
    # enough to run out on a 2 * 10^8-point --s-grid
    grid = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(GRID_SITES[site](binom, grid.view(_UniterableArray)),
                          GRID_SITES[site](binom, grid))


def test_every_dimension_site_names_its_argument(binom):
    cube2 = lq.DyadicCube(1, (0, 0))
    part2 = lq.adaptive_partition(lq.Lebesgue(2), 1.0, 0.5)
    for name, call in [
        ("cube", lambda: lq.cube_mass(binom, cube2)),
        ("cube", lambda: lq.j_weight(binom, cube2, 1.0)),
        ("part", lambda: lq.partition_violations(part2, binom)),
        ("params", lambda: lq.width_upper_sequence(binom, lq.OrderParams(2, 2, 2, 2), [1, 2])),
    ]:
        with pytest.raises(ValueError, match=f"^{name} has dimension 2, not the measure dimension 1"):
            call()


def test_numpy_integer_budgets_count_as_integers(binom):
    k = np.int64(9)
    assert lq.gamma_dyadic_vector(binom, 1.0, k).tobytes() == \
        lq.gamma_dyadic_vector(binom, 1.0, 9).tobytes()
    assert lq.gamma_dyadic_oracle(binom, 1.0, k) == lq.gamma_dyadic_oracle(binom, 1.0, 9)
    assert lq.budget_partition(binom, 1.0, k).cardinality == \
        lq.budget_partition(binom, 1.0, 9).cardinality
    assert np.array_equal(lq.gamma_adaptive_profile(binom, 1.0, np.array([2, 9])),
                          lq.gamma_adaptive_profile(binom, 1.0, [2, 9]))
    # levels and depths too; a level list comes back as Python ints
    assert lq.beta_n(binom, np.int64(5), 0.5) == lq.beta_n(binom, 5, 0.5)
    levels = lq.s_b_estimate(binom, 1.0, np.arange(2, 5)).levels
    assert levels == (2, 3, 4) and all(type(n) is int for n in levels)
    assert lq.gamma_dyadic_vector(binom, 1.0, 9, max_depth=np.int64(12)).tobytes() == \
        lq.gamma_dyadic_vector(binom, 1.0, 9, max_depth=12).tobytes()


def test_oracle_vector_monotone(binom):
    v = lq.gamma_dyadic_vector(binom, 1.0, 24)
    assert np.all(np.diff(v[1:]) <= 1e-18)


def test_ifs_engine_oracle_equals_one_component_mixture(binom):
    # a single-component mixture walks another engine to the same masses; in
    # 1D any partition with <= k cubes has depth <= k-1, so max_depth = 9
    # leaves the budgets up to 8 uncapped
    wrapped = lq.Mixture(((1.0, binom),))
    fast = lq.gamma_dyadic_vector(binom, 1.0, 8)
    tree = lq.gamma_dyadic_vector(wrapped, 1.0, 8, max_depth=9)
    assert np.array_equal(fast[1:], tree[1:])


def test_brute_force_enumeration_matches_oracle(binom, quarter_pair):
    # independent oracle: enumerate every dyadic partition of depth <= 4
    def partitions(cube, depth_left):
        yield [cube]
        if depth_left:
            kids = cube.children()
            for left in partitions(kids[0], depth_left - 1):
                for right in partitions(kids[1], depth_left - 1):
                    yield left + right

    for spec in (binom, quarter_pair):
        # J of each of the 31 cubes of depth <= 4, computed once
        J = {lq.DyadicCube(n, (i,)): lq.j_weight(spec, lq.DyadicCube(n, (i,)), 1.0)
             for n in range(5) for i in range(1 << n)}
        best = {}
        for part in partitions(lq.unit_cube(1), 4):
            maxj = max(J[c] for c in part)
            k = len(part)
            if k not in best or maxj < best[k]:
                best[k] = maxj
        running = math.inf
        for k in sorted(best):
            running = min(running, best[k])
            got = lq.gamma_dyadic_oracle(
                lq.Mixture(((1.0, spec),)), 1.0, k, max_depth=4)
            assert got == pytest.approx(running, rel=1e-13), (spec, k)


def test_adaptive_minimality_random_atoms():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n_atoms = int(rng.integers(1, 7))
        nums = rng.choice(np.arange(1, 64), size=n_atoms, replace=False)
        points = tuple((Fraction(int(k), 64),) for k in sorted(nums))
        w = rng.dirichlet(np.ones(n_atoms))
        w = w / w.sum()
        spec = lq.Atomic(points, tuple(float(x) for x in w / w.sum()))
        a = float(rng.uniform(0.5, 2.2))
        t = float(10.0 ** rng.uniform(-4, -0.3))
        part = lq.adaptive_partition(spec, a, t, max_depth=80)
        k_min = lq.minimal_dyadic_cardinality(
            spec, a, t, k_cap=part.cardinality + 2, max_depth=part.max_level + 2)
        assert k_min == part.cardinality


def _threshold_near(spec, a, budget, rng):
    """A threshold inside the last gap, wider than rounding, of the adaptive
    family's max J_a up to cardinality ``budget``: J values that differ only
    in the order of their rounding stay on one side of it."""
    j = lq.refinement_profile(spec, a, budget)[:, 1]
    i = np.flatnonzero(j[1:] < j[:-1] * (1.0 - 1e-9))[-1]
    lo, hi = np.log(j[i + 1]), np.log(j[i])
    return float(np.exp(lo + rng.uniform(0.1, 0.9) * (hi - lo)))


def _check_minimal(spec, a, t, max_depth=lq.partition.DEFAULT_MAX_DEPTH):
    card = lq.adaptive_partition(spec, a, t).cardinality
    k_min = lq.minimal_dyadic_cardinality(spec, a, t, k_cap=card + 2, max_depth=max_depth)
    assert k_min == card, (spec, a, t)
    # the oracle never loses to the adaptive family at any budget
    v = lq.gamma_dyadic_vector(spec, a, card + 2, max_depth=max_depth)
    profile = lq.gamma_adaptive_profile(spec, a, range(1, card + 3))
    assert np.all(v[1:] <= profile), (spec, a, t)


def test_adaptive_minimality_random_selfsimilar():
    # ratio-1/2 dyadic IFS at budgets in the thousands: the oracle reads the
    # same J values as the adaptive family, so both compare exactly
    rng = np.random.default_rng(41)
    for m, budget in ((1, 3000), (1, 400), (1, 40), (2, 2000), (2, 300), (2, 30)):
        nmaps = int(rng.integers(2, (1 << m) + 1))
        corners = rng.choice(1 << m, size=nmaps, replace=False)
        maps = tuple(lq.DyadicMap(1, tuple(Fraction((int(c) >> k) & 1, 2) for k in range(m)))
                     for c in corners)
        w = rng.dirichlet(np.ones(nmaps))
        spec = lq.DyadicIFS(m, maps, tuple(float(x) for x in w / w.sum()))
        a = float(rng.uniform(0.5, 2.0))
        t = _threshold_near(spec, a, budget, rng)
        _check_minimal(spec, a, t)


def _thin_density(rng, m):
    """A density on a few cells of the level-3 (1D) or level-2 (2D) grid."""
    depth = 3 if m == 1 else 2
    cells = 1 << (depth * m)
    where = rng.choice(cells, size=int(rng.integers(1, 4)), replace=False)
    values = np.zeros(cells)
    values[where] = rng.dirichlet(np.ones(len(where))) * cells
    return lq.DyadicDensity(depth, values.reshape((1 << depth,) * m))


def _thin_part(rng, m):
    kind = int(rng.integers(3))
    if kind == 0:
        return _thin_density(rng, m)
    if kind == 1:
        n_atoms = int(rng.integers(1, 4))
        nums = rng.choice(np.arange(1, 64), size=(n_atoms, m), replace=False)
        points = tuple(tuple(Fraction(int(x), 64) for x in row) for row in nums)
        w = rng.dirichlet(np.ones(n_atoms))
        return lq.Atomic(points, tuple(float(x) for x in w / w.sum()))
    # two maps of ratio 1/4 in opposite corners: a Cantor-type dyadic IFS
    maps = tuple(lq.DyadicMap(2, tuple(Fraction(c, 4) for _ in range(m))) for c in (0, 3))
    p = float(rng.uniform(0.2, 0.8))
    return lq.DyadicIFS(m, maps, (p, 1.0 - p))


def test_adaptive_minimality_random_thin_walks():
    # densities and mixtures, the oracle capped two levels below the adaptive
    # partition's deepest cube as in the atomic criterion
    rng = np.random.default_rng(43)
    for case in range(12):
        m = 1 if case < 8 else 2
        if case % 2:
            spec = _thin_density(rng, m)
        else:
            parts = [_thin_part(rng, m) for _ in range(int(rng.integers(2, 4)))]
            c = rng.dirichlet(np.ones(len(parts)))
            spec = lq.Mixture(tuple(zip((float(x) for x in c / c.sum()), parts)))
        a = float(rng.uniform(0.5, 2.0))
        t = _threshold_near(spec, a, 60 if m == 1 else 40, rng)
        part = lq.adaptive_partition(spec, a, t)
        _check_minimal(spec, a, t, max_depth=part.max_level + 2)


def test_walk_folds_only_non_increasing_vectors(monkeypatch):
    # the cube (1/2, 1] holds the mass 2^-1074 and its children's masses
    # round to 0, so it has no child row in the engine; split into its two
    # empty children it costs two cubes and J 0
    spec = lq.DyadicDensity(1, np.array([2.0, math.ldexp(1.0, -1073)]))
    assert lq.support_masses(spec, 1)[1] == math.ldexp(1.0, -1074)
    assert len(lq.support_masses(spec, 2)) == 2
    merge = partition._merge
    childless = []  # the weights of split cubes merged without a child row

    def checked(kids, ends, j, lead, cap):
        for kid, end in zip(kids, ends):
            assert np.all(np.diff(kid) <= 0) and kid[-1] == end
        if not kids:
            childless.append(j)
        return merge(kids, ends, j, lead, cap)

    monkeypatch.setattr(partition, "_merge", checked)
    v = lq.gamma_dyadic_vector(spec, 0.01, 12)
    assert np.all(np.diff(v[1:]) <= 0)
    # with max_depth = 3 the support holds fewer than 12 positive cubes, so the
    # walk splits that cube too
    v = lq.gamma_dyadic_vector(spec, 0.01, 12, max_depth=3)
    assert np.all(np.diff(v[1:]) <= 0)
    assert set(childless) == {2.0 ** -0.01 * math.ldexp(1.0, -1074)}
    assert v.tobytes() == ref.gamma_dyadic_vector(lq.Mixture(((1.0, spec),)), 0.01, 12,
                                                  max_depth=3).tobytes()


def test_oracle_certificate_fallback_halves_the_cut(monkeypatch, binom, tetra, quarter_pair):
    # a seed cut raised far above v[k_max] fails the first certificate; the
    # threshold walks at the halved cuts must end on the same vector
    cases = [(binom, 1.0, 200), (tetra, 0.5, 90), (quarter_pair, 1.7, 12)]
    want = [lq.gamma_dyadic_vector(spec, a, k_max) for spec, a, k_max in cases]
    walk = partition._walk
    cuts = []

    def raised(spec, a, cut, max_depth, top=0):
        cuts.append(cut)
        levels, final = walk(spec, a, cut, max_depth, top)
        return levels, final * 2.0 ** 20 if top else final

    monkeypatch.setattr(partition, "_walk", raised)
    for (spec, a, k_max), v in zip(cases, want):
        cuts.clear()
        assert lq.gamma_dyadic_vector(spec, a, k_max).tobytes() == v.tobytes()
        assert len(cuts) > 2 and all(x > y for x, y in zip(cuts[1:], cuts[2:]))


def test_oracle_max_depth_binds_on_every_family(binom, leb2):
    # the ratio-1/2 IFS and Lebesgue obey the depth cap like every other spec:
    # at depth 2 the best 12-cube partition of the binomial is its four
    # level-2 cubes, max J = 0.7^2 / 4
    v = lq.gamma_dyadic_vector(binom, 1.0, 12, max_depth=2)
    assert v[12] == pytest.approx(0.1225, rel=1e-15) and v[4] == v[12]
    for spec, depth in ((binom, 2), (leb2, 1)):
        wrapped = lq.gamma_dyadic_vector(lq.Mixture(((1.0, spec),)), 1.0, 12, max_depth=depth)
        assert lq.gamma_dyadic_vector(spec, 1.0, 12, max_depth=depth).tobytes() == wrapped.tobytes()


def test_oracle_finds_the_adaptive_cardinality_on_a_ratio_half_ifs():
    # a 2-D four-map ratio-1/2 IFS, once the oracle's counterexample: a J
    # rounding of its own put the 2,023-cube adaptive partition out of reach
    # within 2,025 cubes
    maps = tuple(lq.DyadicMap(1, tuple(Fraction((c >> k) & 1, 2) for k in range(2)))
                 for c in (2, 1, 0, 3))
    spec = lq.DyadicIFS(2, maps, (0.05538758829692714, 0.06315275341668487,
                                  0.14595310136392925, 0.7355065569224587))
    a, t = 0.7601090788386651, 1.6218649136917127e-06
    assert lq.adaptive_partition(spec, a, t).cardinality == 2023
    assert lq.minimal_dyadic_cardinality(spec, a, t, k_cap=2025) == 2023


def _ifs_two_fifths():
    """The GeneralIFS1D with maps 2/5 x and 3/5 x + 2/5, weights 1/2."""
    maps = (lq.Homothety1D(Fraction(2, 5), Fraction(0)),
            lq.Homothety1D(Fraction(3, 5), Fraction(2, 5)))
    return lq.GeneralIFS1D(maps, (0.5, 0.5))


def _full_density(m, depth, rng):
    """A density positive on every cell of the level-``depth`` grid."""
    values = rng.uniform(0.2, 1.0, size=(1 << depth,) * m)
    return lq.DyadicDensity(depth, values / values.mean())


@pytest.mark.parametrize("name", ["cantor", "two_fifths", "full_density_1d", "full_density_2d"])
def test_adaptive_minimality_near_a_thousand_cubes(cantor, name):
    # non-dyadic self-similar measures and full-support densities at budgets
    # near 10^3
    rng = np.random.default_rng(47)
    spec = {"cantor": cantor, "two_fifths": _ifs_two_fifths(),
            "full_density_1d": _full_density(1, 4, rng),
            "full_density_2d": _full_density(2, 2, rng)}[name]
    for a in (0.6, 1.0, 1.7):
        _check_minimal(spec, a, _threshold_near(spec, a, 1000, rng))


def test_oracle_walk_stays_near_the_budget(monkeypatch, binom):
    # the oracle folds one walk over about k cubes, not every cube down to
    # the depth the budget allows
    walk = partition._walk
    visited = []

    def counted(*args, **kwargs):
        levels, cut = walk(*args, **kwargs)
        visited.append(sum(len(lv.keys) for lv in levels))
        return levels, cut

    monkeypatch.setattr(partition, "_walk", counted)
    for spec in (binom, _ifs_two_fifths()):
        visited.clear()
        lq.gamma_dyadic_vector(spec, 1.0, 256)
        assert len(visited) == 1 and visited[0] < 4 * 256


def test_halving_inequality_small(leb1, binom):
    for spec in (leb1, binom):
        for a in (0.7, 1.0, 1.5):
            v = lq.gamma_dyadic_vector(spec, a, 32)
            for n in range(4):
                assert v[2 ** (n + 1)] <= 2.0 ** (-a) * v[2 ** n] + 1e-15


# ---------------------------------------------------------------------------
# entropy fits
# ---------------------------------------------------------------------------

def test_entropy_lebesgue_half(leb1):
    fit = lq.entropy_estimate(leb1, 1.0, np.geomspace(1e2, 1e8, 13))
    assert fit.slope == pytest.approx(0.5, abs=0.05)
    assert np.all(np.diff(fit.cards) >= 0)


def test_entropy_dirac_logarithmic(dirac_half):
    fit = lq.entropy_estimate(dirac_half, 1.0, np.geomspace(1e2, 1e8, 13))
    assert fit.slope < 0.1


def test_entropy_binomial_below_fixed_point(binom):
    fit = lq.entropy_estimate(binom, 1.0, np.geomspace(1e2, 1e6, 13))
    s1 = lq.s_b_estimate(binom, 1.0, [2, 4, 6]).s_hat
    assert fit.slope <= s1 + 0.05


def test_entropy_rejects_degenerate_grid(leb1):
    with pytest.raises(ValueError, match="grid"):
        lq.entropy_estimate(leb1, 1.0, [10.0, 5.0, 20.0, 40.0])
    with pytest.raises(ValueError, match="grid"):
        lq.entropy_estimate(leb1, 1.0, [10.0, 20.0])
