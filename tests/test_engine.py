"""The frontier engine against the cursor descent it replaced.

``cursor_reference`` holds the former per-cube cursors and the walks built on
them, and ``fold_reference`` the oracle's former pairwise fold.  On every
shipped spec, every fixture and a few specs whose cubes sum three or more
terms, the engine must give the same cubes in the same depth-first order and
bit-identical masses; for GeneralIFS1D (whose masses are truncated at
``mass_tol``) the same cubes with masses within ``mass_tol``.  The same holds
for the adaptive partitions, the refinement profile and the exact oracle
built on the engine, and the oracle's one merge per split cube gives the
bytes of the pairwise fold on the same walks.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cursor_reference as ref
import fold_reference
import ifs1d_reference
import lqspectra as lq
from lqspectra import kreinfeller, measures, spectrum
from lqspectra.measures import cube_containing

from conftest import FIG1_WEIGHTS

MAX_LEVEL = 12
MAX_CUBES = 4096  # levels are compared while the support stays this small

DATA = Path(lq.__file__).parent / "data"
SHIPPED = sorted(f"data/{p.stem}" for p in DATA.glob("*.json"))
# the fixtures leb1, leb3, tetra, cantor and dirac_half equal shipped specs
# (checked below) and are covered by them
SAME_AS_SHIPPED = {"leb1": "lebesgue_1d", "leb3": "lebesgue_3d", "tetra": "fig1_tetraeder",
                   "cantor": "cantor_third", "dirac_half": "dirac_half"}
FIXTURES = ["leb2", "binom", "atom_pair", "quarter_pair", "density2d", "mixture"]
MANY_TERMS = ["exp_decay", "mixed_ratio", "three_way_mixture", "nested_mixture"]
# JSON atoms with float coordinates: 0.1, 0.3 and 1e-5 are binary fractions
# with denominators 2^55, 2^54 and 2^69, so their exact cube indices take
# Python integers long before the cube positions need more than 62 bits
FLOAT_ATOMS = {
    "float_atoms_1d": [[0.1], [0.3], [1e-5], [0.5]],
    "float_atoms_2d": [[0.1, 0.3], [1e-5, 0.3], [0.3, 0.1], [0.75, 1e-5]],
    "float_atoms_3d": [[0.1, 0.3, 1e-5], [0.3, 1e-5, 0.1], [0.5, 0.25, 0.1]],
}


def _many_terms(name):
    """Specs whose masses sum 3 or more terms: 30 atoms crowding at 0, three
    IFS images in one half, a three-component mixture, and a mixture nesting
    another that has a component of coefficient 0."""
    if name == "exp_decay":
        return lq.exp_decay_atoms(30)
    if name == "mixed_ratio":
        maps = tuple(lq.DyadicMap(e, (Fraction(k, 1 << e),)) for e, k in
                     ((1, 0), (3, 4), (3, 6), (4, 15)))
        return lq.DyadicIFS(1, maps, (0.41, 0.23, 0.19, 0.17))
    if name == "nested_mixture":
        inner = lq.Mixture(((0.5, lq.binomial_ifs(0.6)), (0.0, lq.Lebesgue(1)),
                            (0.5, lq.exp_decay_atoms(6))))
        return lq.Mixture(((0.25, lq.Lebesgue(1)), (0.75, inner)))
    return lq.Mixture(((0.3, lq.binomial_ifs(0.6)), (0.45, lq.Lebesgue(1)),
                       (0.25, lq.exp_decay_atoms(12))))


def _spec(request, name):
    if name in SHIPPED:
        return lq.load_spec(DATA / f"{name[5:]}.json")
    if name in MANY_TERMS:
        return _many_terms(name)
    if name in FLOAT_ATOMS:
        points = FLOAT_ATOMS[name]
        return lq.parse_spec({"type": "atomic", "atoms": [
            {"point": pt, "weight": (i + 1) / (len(points) * (len(points) + 1) / 2)}
            for i, pt in enumerate(points)]})
    return request.getfixturevalue(name)


ALL = SHIPPED + FIXTURES + MANY_TERMS + list(FLOAT_ATOMS)


def test_duplicate_fixtures_equal_shipped_specs(request):
    for fixture, name in SAME_AS_SHIPPED.items():
        assert request.getfixturevalue(fixture) == lq.load_spec(DATA / f"{name}.json")


def _same_masses(spec, got, want):
    if isinstance(spec, lq.GeneralIFS1D):
        return got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=spec.mass_tol)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ALL)
def test_support_matches_cursor_descent(request, name):
    spec = _spec(request, name)
    for n in range(MAX_LEVEL + 1):
        want_cubes, want = ref.support_with_masses(spec, n)
        if len(want_cubes) > MAX_CUBES:
            break
        cubes, masses = lq.support_with_masses(spec, n)
        assert cubes == want_cubes, (name, n)
        assert _same_masses(spec, masses, want), (name, n)
        assert np.array_equal(lq.support_masses(spec, n), masses)
    for cube in want_cubes[:: max(1, len(want_cubes) // 8)]:
        for probe in [cube] + cube.children():
            assert _same_masses(spec, np.array([lq.cube_mass(spec, probe)]),
                                np.array([ref.cube_mass(spec, probe)]))


@pytest.mark.parametrize("name", ALL)
def test_partition_walks_match_cursor_walks(request, name):
    spec = _spec(request, name)
    rng = np.random.default_rng(ALL.index(name))
    for a in (0.5, 1.0, 1.7):
        t = float(10.0 ** rng.uniform(-4, -1.5))
        got, want = lq.adaptive_partition(spec, a, t), ref.adaptive_partition(spec, a, t)
        assert got.cubes == want.cubes, (name, a, t)
        assert _same_masses(spec, got.masses, want.masses)
        assert _same_masses(spec, got.j_values, want.j_values)
        assert lq.counting_N(spec, a, 1.0 / t) == ref.counting_N(spec, a, 1.0 / t)
        got, want = lq.refinement_profile(spec, a, 40), ref.refinement_profile(spec, a, 40)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert _same_masses(spec, got[:, 1], want[:, 1])
    # the oracle against the reference's subtree walk, which folds at every
    # positive cube down to the depth cap: the reference takes it for every
    # spec wrapped in a mixture (unwrapped, it would take its ratio-1/2
    # recursion for Lebesgue and the ratio-1/2 IFS)
    k_max, depth = (12, 6) if spec.dim == 1 else (20, 2)
    wrapped = lq.Mixture(((1.0, spec),))
    want = ref.gamma_dyadic_vector(wrapped, 1.0, k_max, max_depth=depth)
    for oracle_spec in (wrapped, spec):
        got = lq.gamma_dyadic_vector(oracle_spec, 1.0, k_max, max_depth=depth)
        assert _same_masses(spec, got, want)


# the oracle budgets of the differential fold test, by dimension
FOLD_K_MAX = {1: 448, 2: 300, 3: 400}


@pytest.mark.parametrize("name", ALL)
def test_one_merge_per_split_cube_matches_pairwise_fold(request, monkeypatch, name):
    # every walk the oracle folds (the profile's and any at a halved cut) is
    # folded both ways, and the vectors must agree to the byte
    spec = _spec(request, name)
    k_max = FOLD_K_MAX[spec.dim]
    fold, folds = lq.partition._fold, []

    def both(levels, m, size):
        got = fold(levels, m, size)
        assert got.tobytes() == fold_reference._fold(levels, m, size).tobytes()
        folds.append(len(levels))
        return got

    monkeypatch.setattr(lq.partition, "_fold", both)
    for a in (0.5, 1.0, 1.7):
        for depth in (lq.partition.DEFAULT_MAX_DEPTH, 4):
            lq.gamma_dyadic_vector(spec, a, k_max, max_depth=depth)
    assert len(folds) >= 6 and max(folds) > 1


def _outcome(walk, *args):
    """The result of a walk, or what its MaxDepthExceeded names."""
    try:
        return walk(*args)
    except lq.MaxDepthExceeded as exc:
        return exc.cube, exc.j_value, exc.threshold


def _same_states(spec, got, want):
    """Equal cardinalities, and max J_a equal to the bit or, for
    GeneralIFS1D, within mass_tol; or the same error.  The heap signed a
    final zero row as its first zero-weight child; the profile ends on 0.0,
    so adding 0.0 (which only turns -0.0 into 0.0) makes the two comparable."""
    if isinstance(want, tuple):
        return got == want
    if isinstance(spec, lq.GeneralIFS1D):
        return np.array_equal(got[:, 0], want[:, 0]) and _same_masses(spec, got[:, 1], want[:, 1])
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("name", ALL)
def test_adaptive_family_matches_heap_and_scans(request, name):
    # the sorted J multiset against the former heap and one scan per t; the
    # cursors of GeneralIFS1D recurse on Fractions, so they get a shorter run
    spec = _spec(request, name)
    k = (1 << spec.dim) - 1
    slow = isinstance(spec, lq.GeneralIFS1D)
    grid = np.geomspace(1e2, 1e3 if slow else 1e5, 7)
    for a in (0.5, 1.0, 1.7):
        assert np.array_equal(lq.entropy_estimate(spec, a, grid).cards,
                              ref.entropy_cards(spec, a, grid)), a
        # a depth guard that binds for some grid points: the first t raises
        got = _outcome(lambda: lq.entropy_estimate(spec, a, grid, max_depth=5).cards)
        want = _outcome(ref.entropy_cards, spec, a, grid, 5)
        assert got == want if isinstance(want, tuple) else np.array_equal(got, want), a
        # caps around the cardinalities 1 + k, 1 + 2k, ...: states that end
        # on every kind of overflow row, tied ones among them
        for cap in (1, k, k + 1, 2 * k + 2, 10 * k, 10 * k + 1, 64) + (() if slow else (600,)):
            got = _outcome(lq.refinement_profile, spec, a, cap)
            assert _same_states(spec, got, _outcome(ref.refinement_profile, spec, a, cap)), (a, cap)
        budgets = list(range(1, 70 if slow else 200, 3))
        got, want = (_outcome(f.gamma_adaptive_profile, spec, a, budgets) for f in (lq, ref))
        assert got == want if isinstance(want, tuple) else _same_masses(spec, got, want)
        for budget in (1, 17, 60):
            got, want = (_outcome(f.budget_partition, spec, a, budget) for f in (lq, ref))
            if isinstance(want, tuple):
                assert got == want, (a, budget)
                continue
            assert got.cubes == want.cubes, (a, budget)
            assert _same_masses(spec, got.j_values, want.j_values)
    # past the smallest normal J_a the weights underflow: the profile ends on
    # a zero row
    for a in () if slow else (30.0, 600.0):
        got = _outcome(lq.refinement_profile, spec, a, 4000)
        assert _same_states(spec, got, _outcome(ref.refinement_profile, spec, a, 4000)), a


def test_profile_ties_between_parent_and_child(dirac_half, binom, quarter_pair):
    # with 2^(-m a) rounding to 1, a child can tie its parent: the heap split
    # it one state later, and so must the multiset
    for spec in (dirac_half, binom, quarter_pair):
        for a in (1e-17, 3e-16):
            got, want = lq.refinement_profile(spec, a, 60), ref.refinement_profile(spec, a, 60)
            assert got.tobytes() == want.tobytes(), (spec, a)
    assert lq.refinement_profile(dirac_half, 1e-17, 4).tolist() == [[c, 1.0] for c in range(1, 6)]


@pytest.mark.parametrize("spec, k_max", [(lq.binomial_ifs(0.7), 160), (lq.Lebesgue(2), 90),
                                         (lq.sierpinski_tetrahedron(FIG1_WEIGHTS), 90)])
def test_selfsimilar_oracle_matches_full_fold_recursion(spec, k_max):
    # bit for bit, the reference's subtree walk (the spec wrapped in a
    # mixture) at a depth cap it can afford; within rounding, the reference's
    # budget-indexed recursion, which forms each J as a running product of
    # p_i 2^(-ma) where the engine forms 2^(-Lma) times the mass (measured:
    # at most 1.3e-15 relative, at a = 1.9)
    depth = {1: 7, 2: 3, 3: 3}[spec.dim]
    for a in (0.6, 1.0, 1.9):
        got = lq.gamma_dyadic_vector(spec, a, k_max, max_depth=depth)
        want = ref.gamma_dyadic_vector(lq.Mixture(((1.0, spec),)), a, k_max, max_depth=depth)
        assert got.tobytes() == want.tobytes(), a
        got = lq.gamma_dyadic_vector(spec, a, k_max)
        want = ref.gamma_dyadic_vector(spec, a, k_max)
        assert got[0] == want[0] == np.inf
        assert np.all(np.abs(got[1:] - want[1:]) <= 4e-15 * want[1:]), a


def test_oracle_matches_subtree_walk_on_small_atomic_specs():
    # specs like the atomic minimality cases of the partitions benchmark: up
    # to 10 atoms on the 2^-10 grid, the oracle capped two levels below the
    # adaptive partition's deepest cube
    rng = np.random.default_rng(29)
    for _ in range(36):
        nums = np.sort(rng.choice(np.arange(1, 1024), size=int(rng.integers(1, 11)), replace=False))
        w = rng.exponential(size=len(nums)) + 1e-3
        spec = lq.Atomic(tuple((Fraction(int(v), 1024),) for v in nums),
                         tuple(float(x) for x in w / w.sum()))
        a, t = float(rng.uniform(0.5, 2.2)), float(10.0 ** rng.uniform(-5.0, -1.0))
        part = lq.adaptive_partition(spec, a, t, max_depth=100)
        k_max, depth = part.cardinality + 2, part.max_level + 2
        got = lq.gamma_dyadic_vector(spec, a, k_max, max_depth=depth)
        want = ref.gamma_dyadic_vector(lq.Mixture(((1.0, spec),)), a, k_max, max_depth=depth)
        assert got.tobytes() == want.tobytes(), (spec, a, t)


def test_max_depth_error_names_the_same_cube(tetra, dirac_half, leb2):
    # on leb2 every cube of a level ties; there the heap's split order is
    # the key order that names the cube
    for spec, a, t, depth in ((tetra, 0.5, 1e-4, 4), (dirac_half, 0.5, 1e-9, 8),
                              (leb2, 1.0, 1e-4, 3)):
        for walk in ("adaptive_partition", "refinement_profile"):
            args = (spec, a, t) if walk == "adaptive_partition" else (spec, a, 10**6)
            with pytest.raises(lq.MaxDepthExceeded) as got:
                getattr(lq, walk)(*args, max_depth=depth)
            with pytest.raises(lq.MaxDepthExceeded) as want:
                getattr(ref, walk)(*args, max_depth=depth)
            assert got.value.cube == want.value.cube
            assert got.value.j_value == want.value.j_value


def test_no_mass_beyond_the_attractor_hull():
    # images [0, 1/6], [1/6, 1/3] (support in [0, 1/5]) and [0, 1/6],
    # [1/6, 1/2] (support in [0, 1/4]): the gaps right of the support are
    # pieced together from gaps of several depths, and every cube inside them
    # must get mass exactly 0, not a rounding residue
    for ratio, end in ((Fraction(1, 6), Fraction(1, 5)), (Fraction(1, 3), Fraction(1, 4))):
        maps = (lq.Homothety1D(Fraction(1, 6), Fraction(0)), lq.Homothety1D(ratio, Fraction(1, 6)))
        spec = lq.GeneralIFS1D(maps, (4 / 7, 3 / 7))
        for n in range(1, 11):
            assert all(Fraction(c.index[0], 2 ** n) < end for c in lq.support_cubes(spec, n))


@pytest.mark.parametrize("name", list(FLOAT_ATOMS))
def test_float_atoms_keep_int64_keys_while_they_fit(request, name):
    # Python-integer keys would make the walks' membership tests and sorts
    # run object by object; they are only needed past 62 position bits
    spec = _spec(request, name)
    deep = 62 // spec.dim
    dtypes = [keys.dtype for keys, _ in measures._supports(spec, [0, 5, deep, deep + 1])]
    assert dtypes == [np.int64] * 3 + [object]


def test_deep_3d_atom_positions_stay_exact():
    # 3 * 60 = 180 position bits: far past int64
    point = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
    atom = lq.Atomic((point,), (1.0,))
    cubes, masses = lq.support_with_masses(atom, 60)
    assert cubes == [cube_containing(point, 60)] == ref.support_with_masses(atom, 60)[0]
    assert masses.tolist() == [1.0]
    assert lq.cube_mass(atom, cubes[0]) == 1.0
    # a partition that splits the atom's cubes down to level 30 (90 bits)
    part = lq.adaptive_partition(atom, 1.0, 2.0 ** -89)
    assert part.cubes == ref.adaptive_partition(atom, 1.0, 2.0 ** -89).cubes
    assert part.max_level == 30 and part.cardinality == 1 + 7 * 30
    assert lq.partition_violations(part) == []


# ---------------------------------------------------------------------------
# GeneralIFS1D: the one-step CDF chain against the per-map loop it replaced
# ---------------------------------------------------------------------------

def _same_walks(spec, levels):
    got = measures._supports(spec, levels)
    for (keys, masses), (want_keys, want) in zip(got, ifs1d_reference.Ifs1DEngine(spec).walk(levels)):
        assert keys.dtype == want_keys.dtype and keys.tolist() == want_keys.tolist()
        assert masses.tobytes() == want.tobytes()


@st.composite
def ifs_1d_specs(draw):
    """2-4 maps in offset order.  With ``integral`` every map is r = 1/a at
    a multiple of 1/a, so every inverse map y -> a y - j is integral (lcm 1);
    otherwise the first map has r = 2/a with odd a, whose inverse is not."""
    n = draw(st.integers(2, 4))
    integral = draw(st.booleans())
    maps, start = [], Fraction(0)
    for i in range(n):
        if integral or i > 0 and draw(st.booleans()):
            a = draw(st.integers(2, 4 * n))
            ratio = Fraction(1, a)
        else:
            a = 2 * draw(st.integers(2, 2 * n)) + 1
            ratio = Fraction(2, a)
        offset = Fraction(math.ceil(start * a) + draw(st.integers(0, 1)), a)
        maps.append(lq.Homothety1D(ratio, offset))
        start = offset + ratio
    if start > 1:  # shift the images left: keep the grid of each offset
        return draw(st.nothing())
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    weights = tuple(x / math.fsum(raw) for x in raw)
    return lq.GeneralIFS1D(tuple(maps), weights, draw(st.sampled_from([1e-12, 1e-9, 1e-6])))


@settings(max_examples=100)
@given(ifs_1d_specs(), st.integers(0, 8))
def test_cdf_chain_matches_the_per_map_loop(spec, level):
    _same_walks(spec, list(range(level + 1)))


def test_cdf_chain_crosses_from_int64_to_python_integers():
    # two maps of ratio 2^-10: the chains of a level-n call run on int64
    # while 2^10 * 2^n < 2^62, so from level 52 on they run on Python
    # integers, with N past 2^53
    maps = (lq.Homothety1D(Fraction(1, 1024), Fraction(0)),
            lq.Homothety1D(Fraction(1, 1024), Fraction(1023, 1024)))
    spec = lq.GeneralIFS1D(maps, (0.375, 0.625), 1e-6)
    old = ifs1d_reference.Ifs1DEngine(spec)
    assert old.exact64(51) and not old.exact64(52)
    _same_walks(spec, list(range(49, 56)))


# ---------------------------------------------------------------------------
# order_fit: one mass sweep per level
# ---------------------------------------------------------------------------

def _fields(fit):
    return [getattr(fit, f) for f in fit.__dataclass_fields__]


@pytest.mark.parametrize("spec, levels", [
    (lq.cantor_measure(), [8, 9, 10, 11]),
    (lq.binomial_ifs(0.7), [8, 9, 10, 11]),
])
def test_order_fit_single_sweep_is_bit_identical(monkeypatch, spec, levels):
    calls = []

    def counted(module, impl):  # one entry per walk: the module and the levels it reads
        def wrapper(spec, levels):
            calls.append((module.__name__, tuple(levels)))
            return impl(spec, levels)
        monkeypatch.setattr(module, "_supports", wrapper)

    def cursor_supports(spec, levels):  # 1D keys are the cube indices
        for n in levels:
            cubes, masses = ref.support_with_masses(spec, n)
            yield np.array([c.index[0] for c in cubes], dtype=np.int64), masses

    counted(kreinfeller, measures._supports)
    counted(spectrum, measures._supports)
    fit = lq.order_fit(spec, levels)
    assert calls == [("lqspectra.kreinfeller", tuple(levels))]
    # the former route: cursor masses, swept twice (discretize, then s_b_estimate)
    counted(kreinfeller, cursor_supports)
    counted(spectrum, cursor_supports)
    before = lq.order_fit(spec, levels, reference_levels=levels)
    assert calls[1:] == [("lqspectra.kreinfeller", tuple(levels)),
                         ("lqspectra.spectrum", tuple(levels))]
    assert _fields(fit) == _fields(before)
