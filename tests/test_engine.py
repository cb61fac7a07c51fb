"""The frontier engine against the cursor descent it replaced.

``cursor_reference`` holds the former per-cube cursors and the walks built on
them.  On every shipped spec, every fixture and a few specs whose cubes sum
three or more terms, the engine must give the same cubes in the same
depth-first order and bit-identical masses; for GeneralIFS1D (whose masses
are truncated at ``mass_tol``) the same cubes with masses within
``mass_tol``.  The same holds for the adaptive partitions, the refinement
profile and the exact oracle built on the engine.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cursor_reference as ref
import lqspectra as lq
from lqspectra import kreinfeller, measures, spectrum
from lqspectra.measures import cube_containing

MAX_LEVEL = 12
MAX_CUBES = 4096  # levels are compared while the support stays this small

DATA = Path(lq.__file__).parent / "data"
SHIPPED = sorted(f"data/{p.stem}" for p in DATA.glob("*.json"))
# the fixtures leb1, leb3, tetra, cantor and dirac_half equal shipped specs
# (checked below) and are covered by them
SAME_AS_SHIPPED = {"leb1": "lebesgue_1d", "leb3": "lebesgue_3d", "tetra": "fig1_tetraeder",
                   "cantor": "cantor_third", "dirac_half": "dirac_half"}
FIXTURES = ["leb2", "binom", "atom_pair", "quarter_pair", "density2d", "mixture"]
MANY_TERMS = ["exp_decay", "mixed_ratio", "three_way_mixture"]
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
    IFS images in one half, a three-component mixture."""
    if name == "exp_decay":
        return lq.exp_decay_atoms(30)
    if name == "mixed_ratio":
        maps = tuple(lq.DyadicMap(e, (Fraction(k, 1 << e),)) for e, k in
                     ((1, 0), (3, 4), (3, 6), (4, 15)))
        return lq.DyadicIFS(1, maps, (0.41, 0.23, 0.19, 0.17))
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
    # wrapped in a mixture, every spec takes the oracle's subtree walk
    walked = lq.Mixture(((1.0, spec),))
    k_max, depth = (12, 6) if spec.dim == 1 else (20, 2)
    got = lq.gamma_dyadic_vector(walked, 1.0, k_max, max_depth=depth)
    want = ref.gamma_dyadic_vector(walked, 1.0, k_max, max_depth=depth)
    assert _same_masses(spec, got, want)


def test_max_depth_error_names_the_same_cube(tetra, dirac_half, leb2):
    # on leb2 every cube of a level ties, so the heap order decides the cube
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
    for n in (0, 5, 62 // spec.dim):
        assert measures._level_frontier(spec, n).keys.dtype == np.int64
    assert measures._level_frontier(spec, 62 // spec.dim + 1).keys.dtype == object


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

    def counted(module, name, impl):
        def wrapper(spec, n):
            calls.append((name, n))
            return impl(spec, n)
        monkeypatch.setattr(module, name, wrapper)

    counted(kreinfeller, "support_with_masses", lq.support_with_masses)
    counted(spectrum, "support_masses", lq.support_masses)
    fit = lq.order_fit(spec, levels)
    assert calls == [("support_with_masses", n) for n in levels]
    # the former route: cursor masses, swept twice (discretize, then s_b_estimate)
    counted(kreinfeller, "support_with_masses", ref.support_with_masses)
    counted(spectrum, "support_masses", ref.support_masses)
    before = lq.order_fit(spec, levels, reference_levels=levels)
    assert len(calls) == 3 * len(levels)
    assert _fields(fit) == _fields(before)
