"""Dyadic cube geometry and exact cube masses for every measure family."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import lqspectra as lq
from lqspectra import measures
from lqspectra.measures import cube_containing

from conftest import FIG1_WEIGHTS


# ---------------------------------------------------------------------------
# DyadicCube geometry
# ---------------------------------------------------------------------------

def test_children_1d_binary_split():
    cube = lq.unit_cube(1)
    kids = lq.children(cube)
    assert [(k.level, k.index) for k in kids] == [(1, (0,)), (1, (1,))]


def test_children_2d_index_doubling():
    cube = lq.DyadicCube(1, (1, 0))
    kids = lq.children(cube)
    assert {k.index for k in kids} == {(2, 0), (3, 0), (2, 1), (3, 1)}
    assert all(k.level == 2 for k in kids)


def test_child_volume_is_parent_over_2m():
    for m in (1, 2, 3):
        cube = lq.DyadicCube(2, (1,) * m)
        for k in cube.children():
            assert k.volume() == cube.volume() / 2 ** m


def test_parent_child_roundtrip():
    cube = lq.DyadicCube(3, (5, 2))
    for j in range(4):
        assert cube.child(j).parent() == cube
    with pytest.raises(ValueError):
        lq.unit_cube(2).parent()


def test_cube_index_range_enforced():
    with pytest.raises(ValueError):
        lq.DyadicCube(2, (4,))
    with pytest.raises(ValueError):
        lq.DyadicCube(-1, (0,))


@pytest.mark.parametrize("level", [2.5, True], ids=["float", "bool"])
def test_cube_level_follows_the_count_rule(level):
    # a float level used to fail in 1 << level with a TypeError, and True
    # passed as level 1
    with pytest.raises(ValueError, match="^level must be >= 0, an integer"):
        lq.DyadicCube(level, (1,) if level is True else (0,))
    assert lq.DyadicCube(np.int64(2), (3,)).index == (3,)


def test_children_partition_parent_exactly():
    cube = lq.DyadicCube(2, (3, 1))
    total = sum(k.volume_fraction() for k in cube.children())
    assert total == cube.volume_fraction()


def test_boundary_atom_belongs_to_left_closed_right_face():
    # the half-open convention: 1/2 lies in (1/4, 1/2], not in (1/2, 3/4]
    cube = cube_containing([Fraction(1, 2)], 2)
    assert cube.index == (1,)
    assert cube.contains_point([Fraction(1, 2)])
    assert not lq.DyadicCube(2, (2,)).contains_point([Fraction(1, 2)])


# ---------------------------------------------------------------------------
# cube_mass on the individual families
# ---------------------------------------------------------------------------

def test_lebesgue_mass_uniform(leb1):
    assert lq.cube_mass(leb1, lq.DyadicCube(3, (5,))) == 0.125


def test_binomial_two_step_recursion(binom):
    # cube (3/4, 1] sits in the right image twice: 0.3 * 0.3, by hand
    assert lq.cube_mass(binom, lq.DyadicCube(2, (3,))) == pytest.approx(0.09, abs=1e-15)


def test_tetraeder_first_image_mass(tetra):
    img = tetra.maps[0].image_cube()
    assert lq.cube_mass(tetra, img) == 0.659


def test_dyadic_ifs_self_similarity_exact(tetra, binom):
    # for a cube inside image i, mass = p_i * mass(preimage): both sides are
    # products of the same weights, equal up to multiplication order (1 ulp)
    for spec in (tetra, binom):
        for i in range(len(spec.maps)):
            img = spec.maps[i].image_cube()
            sub = img.child(0).child(1 % (1 << spec.dim))
            pre = spec.preimage_cube(i, sub)
            want = spec.weights[i] * lq.cube_mass(spec, pre)
            assert lq.cube_mass(spec, sub) == pytest.approx(want, rel=1e-15)


def test_atomic_mass_and_dimension_mismatch(dirac_half):
    assert lq.cube_mass(dirac_half, lq.DyadicCube(4, (7,))) == 1.0
    assert lq.cube_mass(dirac_half, lq.DyadicCube(4, (8,))) == 0.0
    with pytest.raises(ValueError, match="dimension"):
        lq.cube_mass(dirac_half, lq.DyadicCube(1, (0, 0)))


def test_cantor_quarter_interval_mass(cantor):
    # nu((0,1/4]): by self-similarity and symmetry x = (1 - x)/2, so x = 1/3
    got = lq.cube_mass(cantor, lq.DyadicCube(2, (0,)))
    assert got == pytest.approx(1.0 / 3.0, abs=1e-11)


def test_cantor_symmetric_halves(cantor):
    left = lq.cube_mass(cantor, lq.DyadicCube(1, (0,)))
    right = lq.cube_mass(cantor, lq.DyadicCube(1, (1,)))
    assert left == pytest.approx(0.5, abs=1e-11)
    assert right == pytest.approx(0.5, abs=1e-11)


def test_density_masses(density2d):
    # depth-1 cells carry value * 1/4
    assert lq.cube_mass(density2d, lq.DyadicCube(1, (0, 0))) == 0.125
    assert lq.cube_mass(density2d, lq.DyadicCube(1, (1, 1))) == 0.0
    # below the grid the density is constant on each cell
    assert lq.cube_mass(density2d, lq.DyadicCube(2, (0, 0))) == 0.125 / 4


def test_mixture_mass(mixture, binom, leb1):
    cube = lq.DyadicCube(2, (3,))
    want = 0.25 * lq.cube_mass(leb1, cube) + 0.75 * lq.cube_mass(binom, cube)
    assert lq.cube_mass(mixture, cube) == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# Additivity and total mass
# ---------------------------------------------------------------------------

def _random_cube(rng, m, max_level):
    level = int(rng.integers(0, max_level + 1))
    index = tuple(int(rng.integers(0, 2 ** level)) for _ in range(m))
    return lq.DyadicCube(level, index)


def test_additivity_children_sum_to_parent(leb1, leb3, binom, tetra, dirac_half,
                                           density2d, mixture, cantor):
    rng = np.random.default_rng(7)
    exact = [leb1, leb3, binom, tetra, dirac_half, density2d, mixture]
    for spec in exact:
        for _ in range(25):
            cube = _random_cube(rng, spec.dim, 6)
            total = math.fsum(lq.cube_mass(spec, k) for k in cube.children())
            assert abs(total - lq.cube_mass(spec, cube)) < 1e-12
    for _ in range(25):
        cube = _random_cube(rng, 1, 8)
        total = math.fsum(lq.cube_mass(cantor, k) for k in cube.children())
        assert abs(total - lq.cube_mass(cantor, cube)) < 2 * cantor.mass_tol


def test_total_mass_is_one(leb2, binom, tetra, cantor, dirac_half, density2d, mixture):
    for spec in (leb2, binom, tetra, cantor, dirac_half, density2d, mixture):
        root = lq.unit_cube(spec.dim)
        assert abs(lq.cube_mass(spec, root) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Support enumeration
# ---------------------------------------------------------------------------

def test_support_counts(leb1, tetra, dirac_half):
    assert len(lq.support_cubes(leb1, 2)) == 4
    assert len(lq.support_cubes(tetra, 2)) == 16
    for n in (1, 3, 6):
        assert len(lq.support_cubes(dirac_half, n)) == 1


def test_support_is_exactly_the_positive_cubes(binom, cantor):
    for spec, n in ((binom, 3), (cantor, 5)):
        cubes, masses = lq.support_with_masses(spec, n)
        assert np.all(masses > 0)
        got = {c.index for c in cubes}
        for idx in range(2 ** n):
            mass = lq.cube_mass(spec, lq.DyadicCube(n, (idx,)))
            assert ((idx,) in got) == (mass > 0)


def test_exp_decay_atoms_shape():
    eta = lq.exp_decay_atoms(30)
    assert lq.validate(eta) == []
    assert len(eta.points) == 30
    # atoms accumulate toward 0: at level 6 several land in the first cube
    cubes = lq.support_cubes(eta, 6)
    assert len(cubes) < len(eta.points)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _violations(build):
    """The violations of the InvalidMeasureError that ``build()`` raises."""
    with pytest.raises(lq.InvalidMeasureError) as err:
        build()
    return err.value.violations


def test_validate_duplicate_maps_overlap():
    half = Fraction(1, 2)
    maps = (lq.DyadicMap(1, (half,)), lq.DyadicMap(1, (half,)))
    bad = _violations(lambda: lq.DyadicIFS(1, maps, (0.5, 0.5)))
    assert any("overlap" in v for v in bad)


def test_validate_weight_sum():
    maps = (lq.DyadicMap(1, (Fraction(0),)), lq.DyadicMap(1, (Fraction(1, 2),)))
    bad = _violations(lambda: lq.DyadicIFS(1, maps, (0.5, 0.6)))
    assert any("sum" in v for v in bad)


def test_validate_offset_off_grid():
    maps = (lq.DyadicMap(2, (Fraction(1, 8),)), lq.DyadicMap(2, (Fraction(1, 2),)))
    bad = _violations(lambda: lq.DyadicIFS(1, maps, (0.5, 0.5)))
    assert any("dyadic" in v for v in bad)


def test_validate_atomic_outside_open_cube():
    bad = _violations(lambda: lq.Atomic(((Fraction(0),),), (1.0,)))
    assert any("open cube" in v for v in bad)


def test_validate_ifs1d_overlap():
    maps = (lq.Homothety1D(Fraction(2, 3), Fraction(0)),
            lq.Homothety1D(Fraction(2, 3), Fraction(1, 3)))
    bad = _violations(lambda: lq.GeneralIFS1D(maps, (0.5, 0.5)))
    assert any("overlap" in v for v in bad)


@pytest.mark.parametrize("mass_tol", [5e-324, 1e-310, 9.9e-301, 0.0, -1e-12, 2e-3, math.nan])
def test_mass_tol_outside_its_range_is_a_violation(mass_tol):
    # at 5e-324 the cut mass_tol / 4 is 0.0, and the chain of the point 1/4,
    # which the Cantor maps keep in the support, never ended
    bad = _violations(lambda: lq.cantor_measure(mass_tol=mass_tol))
    assert bad == ["mass_tol must lie in [1e-300, 1e-3]"]


def test_mass_tol_at_its_bounds_gives_masses():
    want = dict(zip(*lq.support_with_masses(lq.cantor_measure(), 10)))
    for mass_tol in (1e-300, 1e-3):
        got = dict(zip(*lq.support_with_masses(lq.cantor_measure(mass_tol=mass_tol), 10)))
        assert all(abs(got.get(c, 0.0) - want.get(c, 0.0)) <= mass_tol + 1e-12
                   for c in got.keys() | want.keys())


def test_validate_mixture_dimension_mismatch():
    bad = _violations(lambda: lq.Mixture(((0.5, lq.Lebesgue(1)), (0.5, lq.Lebesgue(2)))))
    assert any("dimension" in v for v in bad)


def test_single_map_dyadic_ifs_rejected():
    # the invariant measure of x -> x/2 is the point mass at 0, outside (0, 1]
    doc = {"type": "dyadic_ifs", "dimension": 1,
           "maps": [{"ratio_log2": 1, "offset": [0]}], "weights": [1.0]}
    assert _violations(lambda: lq.parse_spec(doc)) == [
        "at least two maps are required (one map degenerates to a point mass)"]
    with pytest.raises(lq.InvalidMeasureError, match="two maps"):
        lq.parse_spec(doc)


def test_invalid_spec_rejected_by_operations():
    # an invalid spec cannot be built, so no operation ever receives one
    bad = _violations(lambda: lq.Atomic(((Fraction(1, 2),),), (0.9,)))
    assert bad == ["weights sum to 0.9, not 1"]


# every site that takes weights holds them to one rule: each weight finite
# and > 0, and their fsum within 1e-12 of 1
WEIGHT_SITES = {
    "DyadicIFS": lambda w: lq.DyadicIFS(1, lq.binomial_ifs(0.5).maps, tuple(w)),
    "GeneralIFS1D": lambda w: lq.cantor_measure(weights=w),
    "Atomic": lambda w: lq.Atomic(((Fraction(1, 3),), (Fraction(2, 3),)), tuple(w)),
    "selfsimilar_beta": lambda w: lq.selfsimilar_beta(w, [0.5, 0.5], 1.0),
    "selfsimilar_s_rho": lambda w: lq.selfsimilar_s_rho(w, [0.5, 0.5], 2.0),
    "AtomicApprox": lambda w: lq.AtomicApprox([1 / 3, 2 / 3], w),
}
REFUSED_WEIGHTS = {
    "nan": [math.nan, 0.5],
    "inf": [math.inf, 0.5],
    "-inf": [-math.inf, 0.5],
    "zero": [0.0, 1.0],
    "negative": [-0.5, 1.5],
    "sum 1 + 2e-12": [0.5, 0.5 + 2e-12],
    "sum 1 - 2e-12": [0.5, 0.5 - 2e-12],
    "sum beyond the floats": [1e308, 1e308],
}


@pytest.mark.parametrize("weights", REFUSED_WEIGHTS.values(), ids=REFUSED_WEIGHTS)
def test_every_weight_site_refuses_with_one_message(weights):
    messages = {}
    for site, build in WEIGHT_SITES.items():
        with pytest.raises(ValueError, match="weights") as err:
            build(weights)
        messages[site] = str(err.value).removeprefix("invalid measure spec: ")
    assert len(set(messages.values())) == 1, messages
    assert messages["AtomicApprox"].startswith("weights ")


def test_every_weight_site_accepts_a_sum_within_the_tolerance():
    for build in WEIGHT_SITES.values():
        build([0.5, 0.5 + 1e-13])


def test_zero_dimensional_specs_rejected():
    assert _violations(lambda: lq.DyadicDensity(3, 1.0)) == [
        "density values need at least one axis"]
    assert _violations(lambda: lq.Atomic(((),), (1.0,))) == [
        "atom points need at least one coordinate"]


def test_negative_density_depth_is_a_violation():
    assert _violations(lambda: lq.DyadicDensity(-1, [1.0])) == ["depth must be >= 0"]


_HALVES = (lq.DyadicMap(1, (Fraction(0),)), lq.DyadicMap(1, (Fraction(1, 2),)))
_THIRD, _HALF = Fraction(1, 3), Fraction(1, 2)
# one build per refusal of the measure layer, with the message it gives
REFUSALS = {
    "Lebesgue-dimension": (lambda: lq.Lebesgue(0), "dimension must be >= 1"),
    "DyadicIFS-dimension": (lambda: lq.DyadicIFS(0, _HALVES, (0.5, 0.5)),
                            "dimension must be >= 1"),
    "DyadicIFS-lengths": (lambda: lq.DyadicIFS(1, _HALVES, (1.0,)),
                          "maps and weights must have equal length"),
    "DyadicIFS-ratio": (lambda: lq.DyadicIFS(1, (lq.DyadicMap(0, (Fraction(0),)), _HALVES[1]),
                                             (0.5, 0.5)),
                        "map 0: ratio exponent must be >= 1"),
    "DyadicIFS-offset": (lambda: lq.DyadicIFS(2, _HALVES, (0.5, 0.5)),
                         "map 0: offset dimension mismatch"),
    "GeneralIFS1D-lengths": (lambda: lq.GeneralIFS1D(lq.cantor_measure().maps, (1.0,)),
                             "maps and weights must have equal length"),
    "GeneralIFS1D-one map": (lambda: lq.GeneralIFS1D((lq.Homothety1D(_HALF, _HALF),), (1.0,)),
                             "at least two maps are required (one map degenerates to a "
                             "point mass)"),
    "GeneralIFS1D-ratio": (lambda: lq.GeneralIFS1D((lq.Homothety1D(Fraction(0), Fraction(0)),
                                                    lq.Homothety1D(_HALF, _HALF)), (0.5, 0.5)),
                           "map 0: ratio must lie in (0, 1)"),
    "GeneralIFS1D-image": (lambda: lq.GeneralIFS1D((lq.Homothety1D(_THIRD, Fraction(0)),
                                                    lq.Homothety1D(_HALF, Fraction(3, 4))),
                                                   (0.5, 0.5)),
                           "map 1: image [3/4, 5/4] leaves [0, 1]"),
    "Atomic-none": (lambda: lq.Atomic((), ()), "at least one atom is required"),
    "Atomic-lengths": (lambda: lq.Atomic(((_HALF,),), (0.5, 0.5)),
                       "points and weights must have equal length"),
    "Atomic-dimensions": (lambda: lq.Atomic(((_THIRD,), (_THIRD, _THIRD)), (0.5, 0.5)),
                          "atom 1: dimension mismatch"),
    "Atomic-duplicates": (lambda: lq.Atomic(((_HALF,), (_HALF,)), (0.5, 0.5)),
                          "duplicate atom positions"),
    "DyadicDensity-shape": (lambda: lq.DyadicDensity(1, [1.0, 1.0, 1.0]),
                            "values must have shape (2,)*m for depth 1"),
    "DyadicDensity-negative": (lambda: lq.DyadicDensity(1, [-1.0, 3.0]),
                               "density values must be finite and >= 0"),
    "Mixture-empty": (lambda: lq.Mixture(()), "at least one component is required"),
    "sierpinski_tetrahedron": (lambda: lq.sierpinski_tetrahedron([1 / 3] * 3),
                               "exactly four weights are required"),
    "preimage_cube-coarser": (lambda: lq.binomial_ifs(0.7).preimage_cube(1, lq.unit_cube(1)),
                              "cube is coarser than the image of the map"),
    "preimage_cube-outside": (lambda: lq.binomial_ifs(0.7).preimage_cube(
        1, lq.DyadicCube(1, (0,))), "cube is not contained in the image of the map"),
    "cube_containing": (lambda: cube_containing((0,), 3), "point coordinate 0 outside (0, 1]"),
    "contains_point": (lambda: lq.DyadicCube(1, (0,)).contains_point((_HALF, _HALF)),
                       "point dimension mismatch"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_measure_refusal_gives_its_message(case):
    build, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        build()
    exc = err.value
    assert message in (exc.violations if isinstance(exc, lq.InvalidMeasureError) else [str(exc)])


@pytest.mark.parametrize("big", [63, 10 ** 12])
def test_exponent_and_dimension_bounds_are_violations(monkeypatch, big):
    # each bound fires before a shift by the exponent or a map is built
    image_cube = lq.DyadicMap.image_cube

    def bounded(mp):
        assert mp.ratio_log2 <= 62
        return image_cube(mp)

    monkeypatch.setattr(lq.DyadicMap, "image_cube", bounded)
    maps = (lq.DyadicMap(big, (Fraction(0),)), lq.DyadicMap(1, (Fraction(1, 2),)))
    assert _violations(lambda: lq.DyadicIFS(1, maps, (0.5, 0.5))) == [
        "map 0: ratio exponent must be <= 62"]
    assert _violations(lambda: lq.DyadicDensity(big, [1.0])) == ["depth must be <= 62"]
    monkeypatch.setattr(measures, "_lebesgue_ifs", None)  # no corner map is built
    for m in (9, big):
        assert _violations(lambda: lq.Lebesgue(m)) == ["dimension must be <= 8"]


def test_exponents_at_the_bounds_are_accepted():
    maps = (lq.DyadicMap(62, (Fraction(0),)), lq.DyadicMap(1, (Fraction(1, 2),)))
    assert lq.validate(lq.DyadicIFS(1, maps, (0.5, 0.5))) == []
    assert lq.validate(lq.Lebesgue(8)) == []
    atom = {"type": "atomic", "atoms": [{"point": [{"num": 1, "log2_den": 1074}], "weight": 1.0}]}
    assert lq.parse_spec(atom).points == ((Fraction(1, 2 ** 1074),),)


@pytest.mark.parametrize("log2_den", [-1, 1075, 10 ** 12])
def test_log2_den_is_bounded_before_the_shift(log2_den):
    atom = {"type": "atomic",
            "atoms": [{"point": [{"num": 1, "log2_den": log2_den}], "weight": 1.0}]}
    with pytest.raises(ValueError, match=r"point log2_den must lie in \[0, 1074\]"):
        lq.parse_spec(atom)


def test_density_values_are_read_only(density2d):
    with pytest.raises(ValueError, match="read-only"):
        density2d.values[0, 0] = -1.0
    source = np.full((2, 2), 1.0)
    spec = lq.DyadicDensity(1, source)
    source[0, 0] = -1.0  # the spec keeps its own copy
    assert lq.validate(spec) == [] and spec.values[0, 0] == 1.0


def test_replace_validates(binom):
    with pytest.raises(lq.InvalidMeasureError, match="sum"):
        dataclasses.replace(binom, weights=(0.5, 0.6))


def test_binomial_and_tetraeder_valid(binom, tetra):
    assert lq.validate(binom) == []
    assert lq.validate(tetra) == []


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_json_roundtrip_all_types(leb2, binom, tetra, cantor, dirac_half,
                                  density2d, mixture, tmp_path):
    for i, spec in enumerate((leb2, binom, tetra, cantor, dirac_half,
                              density2d, mixture)):
        path = tmp_path / f"spec{i}.json"
        lq.save_spec(spec, path)
        back = lq.load_spec(path)
        assert lq.validate(back) == []
        assert type(back) is type(spec)
        cube = lq.unit_cube(spec.dim).child(0)
        assert lq.cube_mass(back, cube) == pytest.approx(
            lq.cube_mass(spec, cube), abs=1e-12)


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="type"):
        lq.parse_spec({"dimension": 1})
    with pytest.raises(ValueError, match="unknown measure type"):
        lq.parse_spec({"type": "weird"})
    with pytest.raises(ValueError, match="malformed"):
        lq.parse_spec({"type": "atomic", "atoms": [{"weight": 1.0}]})


def test_rational_json_forms():
    spec = lq.parse_spec({
        "type": "ifs_1d",
        "maps": [{"ratio": {"num": 1, "den": 3}, "offset": 0},
                 {"ratio": {"num": 1, "den": 3}, "offset": {"num": 2, "den": 3}}],
        "weights": [0.5, 0.5],
    })
    assert spec.maps[0].ratio == Fraction(1, 3)
    assert spec.maps[1].offset == Fraction(2, 3)
    doc = lq.spec_to_dict(spec)
    assert doc["maps"][0]["ratio"] == {"num": 1, "den": 3}
