"""Borel probability measures on the half-open unit cube and their dyadic-cube masses.

Geometry is exact: cube coordinates, IFS offsets and atom positions are
rational numbers (dyadic integers or :class:`fractions.Fraction`), so
containment and disjointness predicates never suffer rounding.  Masses are
ordinary floats; they are exact products/sums of the input weights for
every measure family except ``GeneralIFS1D``, whose self-similar CDF is
truncated at the spec's mass tolerance.

All masses come from one level-synchronous engine (see "Frontier engine"
below).  A frontier holds the cubes of one level that carry mass as arrays:
exact integer positions, masses and per-family state.  One vectorised
``expand`` per family maps level n to level n+1: IFS image tables for
DyadicIFS and Lebesgue, exact atom indices for Atomic, the block-sum
pyramid for DyadicDensity, a merge on position for Mixture and CDF
differences for GeneralIFS1D.  Cube masses, support enumeration, the
adaptive partitions and the exact oracle are walks over these frontiers.

Conventions
-----------
* The unit cube is the half-open product Q = (0, 1]^m, and a level-n dyadic
  cube with index vector l is prod_k (l_k 2^-n, (l_k+1) 2^-n].  An atom
  sitting on a dyadic boundary therefore belongs to exactly one cube: the
  one whose closed right face contains it.
* IFS maps are positive homotheties x -> r*x + c (no rotations or
  reflections), so preimages of boxes are boxes.
* All measures are probability measures; a spec's constructor raises
  :class:`InvalidMeasureError` on normalization defects beyond 1e-12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from . import _checks

__all__ = [
    "DyadicCube",
    "unit_cube",
    "children",
    "Lebesgue",
    "DyadicMap",
    "DyadicIFS",
    "Homothety1D",
    "GeneralIFS1D",
    "Atomic",
    "DyadicDensity",
    "Mixture",
    "MeasureSpec",
    "InvalidMeasureError",
    "validate",
    "ensure_valid",
    "cube_mass",
    "support_cubes",
    "support_masses",
    "support_with_masses",
    "parse_spec",
    "spec_to_dict",
    "load_spec",
    "save_spec",
    "dirac",
    "binomial_ifs",
    "sierpinski_tetrahedron",
    "cantor_measure",
    "exp_decay_atoms",
]

# Bounds on what a few bytes of a spec document can demand: every float's
# denominator divides 2^1074, and Lebesgue measure runs as the IFS of its 2^m
# corner maps, checked pairwise (O(4^m), 0.04 s at m = 8).  Ratio exponents
# and density depths stop at the engine's 62 key bits (_KEY_BITS).
MAX_LOG2_DEN = 1074
MAX_LEBESGUE_DIMENSION = 8

Rational = Union[int, float, Fraction]


def _as_fraction(x, field: str = "coordinate") -> Fraction:
    """Coerce ints, floats (exact binary rationals), Fractions or JSON rational
    objects ({"num", "den"} or {"num", "log2_den"}) to an exact Fraction;
    ``field`` names ``x`` in the error raised for anything else."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, dict):
        return Fraction(_json_number(x, field))  # floats are exact dyadic rationals
    num = _json_int(x["num"], f"{field} num")
    if "log2_den" not in x:
        return Fraction(num, _json_int(x["den"], f"{field} den"))
    k = _json_int(x["log2_den"], f"{field} log2_den")
    if not 0 <= k <= MAX_LOG2_DEN:
        raise ValueError(f"{field} log2_den must lie in [0, {MAX_LOG2_DEN}] (got {k})")
    return Fraction(num, 1 << k)


def _json_int(x, field: str) -> int:
    """``x`` if it is a JSON integer: an int that is not a bool."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{field} must be an integer, not {x!r}")
    return x


def _json_number(x, field: str) -> int | float:
    """``x`` if it is a JSON number: an int or a float that is not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{field} must be a number, not {x!r}")
    return x


def _json_floats(xs, field: str) -> tuple[float, ...]:
    return tuple(float(_json_number(x, field)) for x in xs)


# ---------------------------------------------------------------------------
# Dyadic cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube prod_k (l_k 2^-n, (l_k+1) 2^-n].

    Parameters
    ----------
    level : int
        Subdivision depth n >= 0.
    index : tuple[int, ...]
        Integer corner vector l with 0 <= l_k < 2^n; its length is the
        ambient dimension.
    """

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if type(self.level) is not int or self.level < 0:  # the count rule, at int's speed
            _checks.count("level", self.level, least=0)
        if not self.index or min(self.index) < 0 or max(self.index) >= 1 << self.level:
            raise ValueError(f"cube index {self.index} out of range for level {self.level}")

    @property
    def dim(self) -> int:
        return len(self.index)

    def volume(self) -> float:
        return math.ldexp(1.0, -self.level * self.dim)

    def volume_fraction(self) -> Fraction:
        return Fraction(1, 1 << (self.level * self.dim))

    def child(self, selector: int) -> "DyadicCube":
        """Child cube number ``selector`` in {0, ..., 2^m - 1}; bit k of the
        selector picks the upper half along coordinate k."""
        idx = tuple(2 * l + ((selector >> k) & 1) for k, l in enumerate(self.index))
        return DyadicCube(self.level + 1, idx)

    def children(self) -> list["DyadicCube"]:
        return [self.child(j) for j in range(1 << self.dim)]

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValueError("the unit cube has no parent")
        return DyadicCube(self.level - 1, tuple(l >> 1 for l in self.index))

    def selector_path(self) -> list[int]:
        """Child selectors leading from the unit cube to this cube."""
        path = []
        for d in range(1, self.level + 1):
            sel = 0
            for k, l in enumerate(self.index):
                sel |= ((l >> (self.level - d)) & 1) << k
            path.append(sel)
        return path

    def contains_point(self, point: Sequence[Rational]) -> bool:
        """Exact half-open membership test."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        den = 1 << self.level
        for l, x in zip(self.index, point):
            xf = _as_fraction(x)
            if not (Fraction(l, den) < xf <= Fraction(l + 1, den)):
                return False
        return True


def unit_cube(dim: int) -> DyadicCube:
    return DyadicCube(0, (0,) * dim)


def children(cube: DyadicCube) -> list[DyadicCube]:
    """The 2^m disjoint level-(n+1) cubes whose union is ``cube``."""
    return cube.children()


def cube_containing(point: Sequence[Rational], level: int) -> DyadicCube:
    """The unique level-n cube whose half-open body contains ``point``."""
    idx = []
    scale = 1 << _checks.count("level", level, least=0)
    for x in point:
        xf = _as_fraction(x)
        if not (0 < xf <= 1):
            raise ValueError(f"point coordinate {x} outside (0, 1]")
        l = -((-xf.numerator * scale) // xf.denominator) - 1  # ceil(x*2^n) - 1
        idx.append(int(l))
    return DyadicCube(level, tuple(idx))


# ---------------------------------------------------------------------------
# Measure specifications
# ---------------------------------------------------------------------------

class MeasureSpec:
    """Base class for declarative measure descriptions.

    Instances are immutable and valid after construction: ``__post_init__``
    raises :class:`InvalidMeasureError` on any violation.  Every operation in
    the package treats them as pure values, so they may be shared freely
    across threads.
    """

    def __post_init__(self):
        ensure_valid(self)

    @property
    def dim(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def violations(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Lebesgue(MeasureSpec):
    """Lebesgue measure restricted to the unit cube (0, 1]^m."""

    dimension: int = 1

    @property
    def dim(self) -> int:
        return self.dimension

    def violations(self) -> list[str]:
        if self.dimension < 1:
            return ["dimension must be >= 1"]
        if self.dimension > MAX_LEBESGUE_DIMENSION:
            return [f"dimension must be <= {MAX_LEBESGUE_DIMENSION}"]
        return []


@dataclass(frozen=True)
class DyadicMap:
    """Homothety T(x) = 2^-e x + offset with a dyadic offset on the 2^-e grid."""

    ratio_log2: int
    offset: tuple[Fraction, ...]

    def image_cube(self) -> DyadicCube:
        """T((0,1]^m) as a dyadic cube; requires the offset to be e-dyadic."""
        e = self.ratio_log2
        idx = []
        for c in self.offset:
            scaled = c * (1 << e)
            if scaled.denominator != 1:
                raise ValueError(
                    f"offset {c} is not a multiple of 2^-{e}; image is not a dyadic cube"
                )
            idx.append(int(scaled))
        return DyadicCube(e, tuple(idx))


def _make_dyadic_map(ratio_log2: int, offset) -> DyadicMap:
    return DyadicMap(ratio_log2, tuple(_as_fraction(c, "offset") for c in offset))


@dataclass(frozen=True)
class DyadicIFS(MeasureSpec):
    """Self-similar measure for homotheties with ratios 2^-e_i and dyadic
    offsets, so every image of a dyadic cube is again a dyadic cube and all
    cube masses are exact products of the weights."""

    dimension: int
    maps: tuple[DyadicMap, ...]
    weights: tuple[float, ...]

    @property
    def dim(self) -> int:
        return self.dimension

    def violations(self) -> list[str]:
        out = []
        if self.dimension < 1:
            out.append("dimension must be >= 1")
        if len(self.maps) != len(self.weights):
            out.append("maps and weights must have equal length")
            return out
        if len(self.maps) < 2:
            # the invariant measure of one map is a point mass at its fixed point
            out.append("at least two maps are required (one map degenerates to a point mass)")
            return out
        out.extend(_checks.probability_defects("weights", self.weights))
        images = []
        for i, mp in enumerate(self.maps):
            if mp.ratio_log2 < 1:
                out.append(f"map {i}: ratio exponent must be >= 1")
                continue
            if mp.ratio_log2 > _KEY_BITS:
                out.append(f"map {i}: ratio exponent must be <= {_KEY_BITS}")
                continue
            if len(mp.offset) != self.dimension:
                out.append(f"map {i}: offset dimension mismatch")
                continue
            try:
                img = mp.image_cube()
            except ValueError as exc:
                out.append(f"map {i}: {exc}")
                continue
            images.append((i, img))
        for ai in range(len(images)):
            for bi in range(ai + 1, len(images)):
                i, a = images[ai]
                j, b = images[bi]
                if _cubes_overlap(a, b):
                    out.append(f"images of maps {i} and {j} overlap")
        return out

    def preimage_cube(self, i: int, cube: DyadicCube) -> DyadicCube:
        """T_i^-1(cube) for a cube contained in the image of T_i."""
        img = self.maps[i].image_cube()
        e = self.maps[i].ratio_log2
        if cube.level < e:
            raise ValueError("cube is coarser than the image of the map")
        idx = []
        for l, k in zip(cube.index, img.index):
            shifted = l - (k << (cube.level - e))
            if shifted < 0 or shifted >= (1 << (cube.level - e)):
                raise ValueError("cube is not contained in the image of the map")
            idx.append(shifted)
        return DyadicCube(cube.level - e, tuple(idx))


def _cubes_overlap(a: DyadicCube, b: DyadicCube) -> bool:
    if a.level > b.level:
        a, b = b, a
    shift = b.level - a.level
    return all((lb >> shift) == la for la, lb in zip(a.index, b.index))


@dataclass(frozen=True)
class Homothety1D:
    """T(x) = ratio * x + offset on [0, 1], with exact rational parameters."""

    ratio: Fraction
    offset: Fraction


@dataclass(frozen=True)
class GeneralIFS1D(MeasureSpec):
    """Self-similar measure on [0, 1] for arbitrary rational contraction
    ratios (e.g. the ratio-1/3 Cantor measure).

    Interval masses are evaluated by the self-similarity recursion
    nu(I) = sum_i p_i nu(T_i^-1(I cap T_i([0,1]))); branches whose weight
    drops below an internal cut derived from ``mass_tol`` are resolved
    proportionally, so each returned mass is within ``mass_tol`` of the
    true value and parent/child additivity holds within 2*mass_tol.
    """

    maps: tuple[Homothety1D, ...]
    weights: tuple[float, ...]
    mass_tol: float = 1e-12

    @property
    def dim(self) -> int:
        return 1

    def violations(self) -> list[str]:
        out = []
        if len(self.maps) != len(self.weights):
            return ["maps and weights must have equal length"]
        if len(self.maps) < 2:
            out.append("at least two maps are required (one map degenerates to a point mass)")
        out.extend(_checks.probability_defects("weights", self.weights))
        # the engine's proportional cut mass_tol / 4 stays a normal float; at
        # 5e-324 it is 0.0, and a chain that stays in the support never ends
        if not (1e-300 <= self.mass_tol <= 1e-3):
            out.append("mass_tol must lie in [1e-300, 1e-3]")
        for i, mp in enumerate(self.maps):
            if not (0 < mp.ratio < 1):
                out.append(f"map {i}: ratio must lie in (0, 1)")
            if mp.offset < 0 or mp.offset + mp.ratio > 1:
                out.append(f"map {i}: image [{mp.offset}, {mp.offset + mp.ratio}] leaves [0, 1]")
        ordered = sorted(range(len(self.maps)), key=lambda i: self.maps[i].offset)
        for a, b in zip(ordered, ordered[1:]):
            end_a = self.maps[a].offset + self.maps[a].ratio
            if self.maps[b].offset < end_a:
                out.append(f"images of maps {a} and {b} overlap beyond an endpoint")
        return out


@dataclass(frozen=True)
class Atomic(MeasureSpec):
    """Purely atomic measure: finitely many point masses in the open cube."""

    points: tuple[tuple[Fraction, ...], ...]
    weights: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 1

    def violations(self) -> list[str]:
        out = []
        if not self.points:
            return ["at least one atom is required"]
        if len(self.points) != len(self.weights):
            return ["points and weights must have equal length"]
        m = len(self.points[0])
        if m == 0:
            return ["atom points need at least one coordinate"]
        for i, pt in enumerate(self.points):
            if len(pt) != m:
                out.append(f"atom {i}: dimension mismatch")
                continue
            if any(not (0 < x < 1) for x in pt):
                out.append(f"atom {i}: point must lie in the open cube (0,1)^m")
        if len(set(self.points)) != len(self.points):
            out.append("duplicate atom positions")
        out.extend(_checks.probability_defects("weights", self.weights))
        return out


@dataclass(frozen=True, eq=False)
class DyadicDensity(MeasureSpec):
    """Piecewise-constant density on the level-D dyadic grid.

    ``values[l_1, ..., l_m]`` is the density on the level-D cube with index
    (l_1, ..., l_m); the cell mass is the density times the cell volume.
    """

    depth: int
    values: np.ndarray  # stored as a read-only float copy

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.values.ndim

    def violations(self) -> list[str]:
        if self.depth < 0:
            return ["depth must be >= 0"]
        if self.depth > _KEY_BITS:
            return [f"depth must be <= {_KEY_BITS}"]
        if self.values.ndim == 0:
            return ["density values need at least one axis"]
        out = []
        side = 1 << self.depth
        if any(s != side for s in self.values.shape):
            out.append(f"values must have shape ({side},)*m for depth {self.depth}")
            return out
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            out.append("density values must be finite and >= 0")
        total = float(self.values.sum()) * math.ldexp(1.0, -self.depth * self.dim)
        if abs(total - 1.0) > _checks.NORMALIZATION_TOL:
            out.append(f"total mass is {total!r}, not 1")
        return out


@dataclass(frozen=True)
class Mixture(MeasureSpec):
    """Convex combination of measure specs of a common dimension."""

    components: tuple[tuple[float, MeasureSpec], ...]

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    def violations(self) -> list[str]:
        if not self.components:
            return ["at least one component is required"]
        out = []
        coefs = [c for c, _ in self.components]
        if any(not (math.isfinite(c) and c >= 0) for c in coefs):
            out.append("mixture coefficients must be finite and >= 0")
        if abs(sum(coefs) - 1.0) > _checks.NORMALIZATION_TOL:
            out.append(f"coefficients sum to {sum(coefs)!r}, not 1")
        dims = {spec.dim for _, spec in self.components}
        if len(dims) > 1:
            out.append(f"components have mixed dimensions {sorted(dims)}")
        return out


class InvalidMeasureError(ValueError):
    """Raised by a spec's constructor; ``violations`` lists the defects."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid measure spec: " + "; ".join(violations))


def validate(spec: MeasureSpec) -> list[str]:
    """Return the constraint violations: [] for every constructed spec."""
    return spec.violations()


def ensure_valid(spec: MeasureSpec) -> None:
    """Raise :class:`InvalidMeasureError` on violations (a built spec passes)."""
    if bad := spec.violations():
        raise InvalidMeasureError(bad)


# ---------------------------------------------------------------------------
# Frontier engine
#
# A frontier holds one level of a descent: the cubes that hold a branch of
# the measure, as arrays.  ``keys`` are the cubes' Morton codes (the selector
# path read as one base-2^m number, so ascending keys are depth-first order),
# ``masses`` their nu-masses and ``state`` whatever else the family needs for
# the next level.  Each family has one engine: ``root()`` is the level-0
# frontier, ``expand(fr)`` the frontier of the children of ``fr`` that hold
# a branch (zero-mass children are never materialised) and
# ``take(fr, mask)`` the rows of ``fr`` where ``mask`` is set.  Every
# frontier has ascending keys: ``expand`` keeps the order of the parents and
# ``take`` keeps a subsequence.
# Support enumeration, cube masses, the adaptive partitions, the exact
# oracle and discretization all run on these engines; the helpers below keep
# the key arithmetic in this module.
#
# The IFS engine is a finite automaton: a cube's mass and its children's
# (w, node) depend on its own (w, node) alone.  The spectrum's roots need
# only the multiset of a level's masses, so ``_state_masses`` walks the
# distinct states with their cube counts instead of the cubes: no keys, and
# equal states merged at every level.  The curves ``beta_n`` and
# ``spectrum_curve`` still read ``support_masses``.
#
# Keys are int64 while m * level <= 62 and Python integers (object arrays)
# beyond, so positions are exact at any depth.  A mass that sums several
# terms (IFS images sharing a cube, atoms, mixture components) is correctly
# rounded, as math.fsum gives it, whatever the order of the terms.
#
# Child arrays are (parent, selector) tables filled one selector column at a
# time, with one ufunc call over all parents per column, and then read row
# by row.  Broadcasting an (N, 1) parent array against a (1, width) row
# costs 3-7 times as much: the inner axis is only 2 to 8 long, and numpy
# pays a fixed cost for each of the N rows.  A selector or factor passed as
# a scalar is a Python int or float, which stays exact against
# Python-integer keys (a wide Python int | np.uint8 can overflow).
# ---------------------------------------------------------------------------

_KEY_BITS = 62


@dataclass
class _Frontier:
    level: int
    keys: np.ndarray
    masses: np.ndarray
    state: tuple = ()


def _lifted(levels, keys: np.ndarray, m: int, depth: int) -> np.ndarray:
    """The keys at level ``depth`` of the first descendants of the cubes with
    the given levels (one level or one per key) and Morton keys, as Python
    integers when they need more than 62 bits."""
    if m * depth > _KEY_BITS and keys.dtype != object:
        keys = keys.astype(object)
    return keys << m * (depth - levels)


def _child_keys(lifted: np.ndarray, selectors: Sequence[int]) -> np.ndarray:
    """The (parent, selector) table of the keys ``lifted | s``, filled one
    selector column at a time; the selectors are Python integers, which
    stay exact against Python-integer keys."""
    out = np.empty((len(lifted), len(selectors)), dtype=lifted.dtype)
    for j, sel in enumerate(selectors):
        np.bitwise_or(lifted, sel, out=out[:, j])
    return out


def _interleaved(*columns: np.ndarray) -> np.ndarray:
    """The float arrays ``columns`` read row by row: c0[0], c1[0], ..., c0[1], ..."""
    out = np.empty((len(columns[0]), len(columns)))
    for j, col in enumerate(columns):
        out[:, j] = col
    return out.ravel()


def _all_children(keys: np.ndarray, level: int, m: int) -> np.ndarray:
    """Keys of the 2^m children of each cube, in depth-first order."""
    return _child_keys(_lifted(level, keys, m, level + 1), range(1 << m)).ravel()


def _empty_children(parents: np.ndarray, kids: np.ndarray, level: int, m: int) -> np.ndarray:
    """Keys of the children of the cubes with the ascending keys ``parents``
    that are not among ``kids``, which are children of them."""
    empty = np.ones((len(parents), 1 << m), dtype=bool)
    empty[np.searchsorted(parents, kids >> m), (kids & ((1 << m) - 1)).astype(np.intp)] = False
    return _all_children(parents, level, m)[empty.ravel()]


def _in_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the ascending ``keys``: a binary search,
    which unlike np.isin stays O(n log n) on Python-integer keys."""
    pos = np.searchsorted(keys, values)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == values[hit]
    return hit


def _depth_first(levels: np.ndarray, keys: np.ndarray, m: int) -> np.ndarray:
    """The depth-first order (the order of the selector paths) of the cubes
    with the given levels and Morton keys: by the key of the first descendant
    at the deepest level, and ancestors first."""
    return np.lexsort((levels, _lifted(levels, keys, m, int(levels.max()))))


def _coords(keys: np.ndarray, level: int, m: int) -> list[np.ndarray]:
    """Per-coordinate cube indices of level-``level`` Morton keys."""
    if m == 1:
        return [keys]
    coords = [np.zeros(len(keys), dtype=keys.dtype) for _ in range(m)]
    for d in range(level):
        for k in range(m):
            coords[k] |= ((keys >> (d * m + k)) & 1) << d
    return coords


def _morton(coords: np.ndarray, level: int, m: int) -> np.ndarray:
    """Morton keys of level-``level`` cubes from their per-coordinate
    indices (rows of ``coords``): the inverse of :func:`_coords`."""
    coords = coords.astype(object if m * level > _KEY_BITS else np.int64)
    if m == 1:
        return coords[0]
    keys = np.zeros(coords.shape[1], dtype=coords.dtype)
    for d in range(level):
        for k in range(m):
            keys |= ((coords[k] >> d) & 1) << (d * m + k)
    return keys


def _cubes(level: int, keys: np.ndarray, m: int) -> list[DyadicCube]:
    return [DyadicCube(level, idx) for idx in zip(*(c.tolist() for c in _coords(keys, level, m)))]


def _by_level(levels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(level, rows) for each level present in ``levels``, ascending."""
    return [(level, np.flatnonzero(levels == level)) for level in np.unique(levels).tolist()]


def _level_keys(keys: np.ndarray, level: int, m: int) -> np.ndarray:
    """Keys of one level as int64 where they fit (62 bits), else Python integers."""
    return keys.astype(object if m * level > _KEY_BITS else np.int64)


def _cube_keys(cubes: Sequence[DyadicCube], m: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, Morton keys) of ``cubes``; the keys are int64 unless some
    cube needs more than 62 bits."""
    levels = np.array([c.level for c in cubes], dtype=np.intp)
    keys = np.zeros(len(cubes), dtype=object)
    for level, rows in _by_level(levels):
        keys[rows] = _morton(np.array([cubes[i].index for i in rows.tolist()], dtype=object).T,
                             level, m)
    return levels, _level_keys(keys, int(levels.max()) if len(levels) else 0, m)


def _cube_indices(levels: np.ndarray, keys: np.ndarray, m: int) -> list[tuple[int, ...]]:
    """The index tuple of each cube given by level and Morton key."""
    out = [None] * len(levels)
    for level, rows in _by_level(levels):
        coords = _coords(_level_keys(keys[rows], level, m), level, m)
        for row, idx in zip(rows.tolist(), zip(*(c.tolist() for c in coords))):
            out[row] = idx
    return out


def _exact_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the runs of ``values`` that begin at ``starts``, correctly
    rounded (a run of one or two terms needs no help)."""
    out = np.add.reduceat(values, starts) if len(starts) else np.zeros(0)
    ends = np.append(starts[1:], len(values))
    for g in np.flatnonzero(ends - starts > 2).tolist():
        out[g] = math.fsum(values[starts[g]:ends[g]].tolist())
    return out


class _Engine:
    """The parts common to the families whose state is a tuple of arrays
    aligned with the keys."""

    def __init__(self, spec: MeasureSpec):
        self.m = spec.dim

    def take(self, fr: _Frontier, mask: np.ndarray) -> _Frontier:
        state = tuple(s[mask] for s in fr.state)
        return _Frontier(fr.level, fr.keys[mask], fr.masses[mask], state)


class _IfsEngine(_Engine):
    """State (w, node).  ``w`` is the weight of the cube's nearest ancestor
    that holds a whole rescaled copy of the measure; ``node`` is the cube's
    place in the trie of the maps' image paths below that ancestor (node 0:
    the cube is the copy).  A cube at node k holds the images of the maps
    ``pending[k]``, so its mass is the sum of w * p_i over them.  Images are
    disjoint, so a cube never holds branches of two different copies."""

    def __init__(self, spec: DyadicIFS):
        super().__init__(spec)
        self.p = np.asarray(spec.weights, dtype=float)
        paths = [mp.image_cube().selector_path() for mp in spec.maps]
        self.pending, depth, rules = [list(range(len(paths)))], [0], []
        for node, maps in enumerate(self.pending):  # grows while it is walked
            d = depth[node]
            rules.append([])
            for sel in sorted({paths[i][d] for i in maps}):
                sub = [i for i in maps if paths[i][d] == sel]
                if len(paths[sub[0]]) == d + 1:  # the image is complete: a copy
                    rules[node].append((sel, 0, self.p[sub[0]]))
                else:
                    self.pending.append(sub)
                    depth.append(d + 1)
                    rules[node].append((sel, len(self.pending) - 1, 1.0))
        # (selector, next node, weight factor) per node, padded with NaN factors
        self.width = [len(r) for r in rules]
        width = max(self.width)
        table = np.array([r + [(0, 0, np.nan)] * (width - len(r)) for r in rules])
        self.node_type = np.min_scalar_type(len(rules))
        self.sel = table[..., 0].astype(np.min_scalar_type(1 << self.m))
        self.next = table[..., 1].astype(self.node_type)
        self.factor = table[..., 2]
        self.full = not np.isnan(self.factor).any()

    def _frontier(self, level, keys, w, node):
        masses = w
        if node.any():
            masses = w.copy()
            for k in np.unique(node[node > 0]).tolist():
                rows = node == k
                terms = w[rows, None] * self.p[self.pending[k]]
                masses[rows] = _exact_sums(terms.ravel(), np.arange(0, terms.size, terms.shape[1]))
        return _Frontier(level, keys, masses, (w, node))

    def root(self):
        return self._frontier(0, np.zeros(1, dtype=np.int64), np.ones(1),
                              np.zeros(1, dtype=self.node_type))

    def expand(self, fr):
        w, node = fr.state
        lifted = _lifted(fr.level, fr.keys, self.m, fr.level + 1)
        if len(node) and (node == node[0]).all():
            # one table row serves a frontier that sits at one node, which
            # keeps the deepest full-support levels free of per-child index
            # arrays; its children are the row's columns before the padding
            row, width = node[0], self.width[node[0]]
            keys = _child_keys(lifted, self.sel[row, :width].tolist())
            kids = np.empty(keys.shape)
            for j, factor in enumerate(self.factor[row, :width].tolist()):
                np.multiply(w, factor, out=kids[:, j])
            return self._frontier(fr.level + 1, keys.ravel(), kids.ravel(),
                                  np.tile(self.next[row, :width], len(node)))
        keys = np.empty((len(node), self.sel.shape[1]), dtype=lifted.dtype)
        for j in range(keys.shape[1]):
            np.bitwise_or(lifted, self.sel[node, j], out=keys[:, j])
        kids, nodes = self._child_states(w, node)
        if self.full:
            return self._frontier(fr.level + 1, keys.ravel(), kids.ravel(), nodes.ravel())
        real = ~np.isnan(kids)
        return self._frontier(fr.level + 1, keys[real], kids[real], nodes[real])

    def _child_states(self, w, node):
        """The (parent, column) tables of the children's w and node; a NaN w
        marks a padding column."""
        kids = np.empty((len(node), self.sel.shape[1]))
        nodes = np.empty(kids.shape, dtype=self.node_type)
        for j in range(kids.shape[1]):
            np.multiply(w, self.factor[node, j], out=kids[:, j])
            nodes[:, j] = self.next[node, j]
        return kids, nodes

    def merged_children(self, w, node, count):
        """The distinct states (w, node) of the children of the distinct
        states (w, node), each held by ``count`` cubes, with the number of
        child cubes in each: equal rows are merged and their counts added."""
        kids, nodes = (table.ravel() for table in self._child_states(w, node))
        count = np.repeat(count, self.sel.shape[1])
        if not self.full:
            real = ~np.isnan(kids)
            kids, nodes, count = kids[real], nodes[real], count[real]
        order = np.lexsort((kids, nodes))
        kids, nodes, count = kids[order], nodes[order], count[order]
        new = np.ones(len(kids), dtype=bool)
        new[1:] = (kids[1:] != kids[:-1]) | (nodes[1:] != nodes[:-1])
        starts = np.flatnonzero(new)
        return kids[starts], nodes[starts], np.add.reduceat(count, starts)


def _lebesgue_ifs(spec: Lebesgue) -> DyadicIFS:
    """Lebesgue measure as the IFS of the 2^m corner maps of ratio 1/2; its
    masses are powers of two, so every product is exact."""
    m = spec.dimension
    maps = tuple(DyadicMap(1, tuple(Fraction((j >> k) & 1, 2) for k in range(m)))
                 for j in range(1 << m))
    return DyadicIFS(m, maps, (math.ldexp(1.0, -m),) * (1 << m))


class _Ifs1DEngine(_Engine):
    """State (lo, hi): the CDF F(x) = nu((0, x]) at the cube's end points, so
    the cube mass is F(hi) - F(lo).

    F(x) follows one exact chain per point.  The support lies in the hull
    [a, b] spanned by the fixed points of the outermost maps, and map i
    carries it to [c + r a, c + r b].  With the maps in offset order, a
    point y adds weight w times the total weight of the image hulls that
    end at or before y; if y lies inside the next one, the chain continues
    with y <- (y - c)/r and w <- w p.  Once w < mass_tol/4 the chain adds
    w * y instead (the proportional cut), so F is within mass_tol/4 of the
    exact CDF and each mass within mass_tol/2.  Every gap of the support
    lies between two image hulls at one depth, so F takes one floating point
    value on all of it and cubes inside a gap get mass exactly 0.

    The points of one call share a denominator D: y = N/D with integer N.
    One step serves every map: the hull ends, written E_i / H over their
    common denominator H, are ascending, so a binary search of N H among the
    E_i D counts the hulls that end at or before y, and the next hull's
    start, inverse map and weight are gathered by that count.  The chains
    run on int64 when every inverse map is integral (D stays 2^level) and
    ``bound`` * D < 2^62, where ``bound`` covers H and the inverse maps'
    coefficients, which bounds N H, E_i D and every term of the map step;
    otherwise on Python integers."""

    def __init__(self, spec: GeneralIFS1D):
        super().__init__(spec)
        maps = sorted(zip(spec.maps, spec.weights), key=lambda mw: mw[0].offset)
        a, b = (mp.offset / (1 - mp.ratio) for mp in (maps[0][0], maps[-1][0]))
        self.cut = spec.mass_tol / 4.0
        self.p = np.array([p for _, p in maps])
        self.below = np.concatenate(([0.0], np.cumsum(self.p)))
        hulls, inverse = [], []
        for mp, _ in maps:
            r, c = mp.ratio, mp.offset
            hulls.append((c + r * a, c + r * b))
            u, v = 1 / r, c / r  # y -> u y - v = (P y - Q) / R
            den = math.lcm(u.denominator, v.denominator)
            inverse.append((int(u * den), int(v * den), den))
        self.lcm = math.lcm(*(den for _, _, den in inverse))
        self.hull_den = math.lcm(*(x.denominator for hull in hulls for x in hull))
        # per map: hull start and end over hull_den, P, Q and lcm / R
        columns = [[int(s * self.hull_den) for s, _ in hulls],
                   [int(e * self.hull_den) for _, e in hulls],
                   [pv for pv, _, _ in inverse], [qv for _, qv, _ in inverse],
                   [self.lcm // den for _, _, den in inverse]]
        self.bound = max(self.hull_den, *columns[2], *columns[3])
        self.coef = [np.array(col, dtype=object) for col in columns]
        self.coef64 = ([np.array(col, dtype=np.int64) for col in columns]
                       if self.lcm == 1 and self.bound < 1 << _KEY_BITS else None)

    def _cdf(self, nums: np.ndarray, level: int) -> np.ndarray:
        D = 1 << level
        exact64 = self.lcm == 1 and self.bound * D < 1 << _KEY_BITS
        starts, ends, pv, qv, scale = self.coef64 if exact64 else self.coef
        N = np.array(nums.tolist(), dtype=np.int64 if exact64 else object)
        F = np.zeros(len(N))
        w = np.ones(len(N))
        live = np.arange(len(N))
        last = len(self.p) - 1
        while len(live):
            y = N * self.hull_den
            left = np.searchsorted(ends * D, y, "right")
            F[live] += w * self.below[left]
            i = np.minimum(left, last)
            inside = (left <= last) & (y > starts[i] * D)
            i, N, live = i[inside], N[inside], live[inside]
            N = pv[i] * N - qv[i] * D
            if self.lcm > 1:
                N *= scale[i]
            w, D = w[inside] * self.p[i], D * self.lcm
            cut = w < self.cut
            F[live[cut]] += w[cut] * (N[cut] / D).astype(float)
            N, w, live = N[~cut], w[~cut], live[~cut]
        return F

    def root(self):
        lo, hi = self._cdf(np.array([0, 1]), 0)
        return _Frontier(0, np.zeros(1, dtype=np.int64), np.array([hi - lo]),
                         (np.array([lo]), np.array([hi])))

    def expand(self, fr):
        lo, hi = fr.state
        mid = self._cdf(2 * fr.keys + 1, fr.level + 1)
        lo, hi = _interleaved(lo, mid), _interleaved(mid, hi)
        keep = hi - lo > 0.0
        return _Frontier(fr.level + 1, _all_children(fr.keys, fr.level, 1)[keep],
                         (hi - lo)[keep], (lo[keep], hi[keep]))


class _AtomicEngine(_Engine):
    """No state: at level n an atom x lies in the cube with the indices
    ceil(x_k 2^n) - 1 (right-closed cubes), in exact integer arithmetic."""

    def __init__(self, spec: Atomic):
        super().__init__(spec)
        self.w = np.asarray(spec.weights, dtype=float)
        ratios = zip(*[x.as_integer_ratio() for pt in spec.points for x in pt])
        self.num, self.den = (np.array(col, dtype=object).reshape(len(spec.points), -1).T
                              for col in ratios)
        self.int64 = int(self.den.max()) < 1 << _KEY_BITS
        if self.int64:
            self.num64, self.den64 = self.num.astype(np.int64), self.den.astype(np.int64)

    def _frontier(self, level, parents=None):
        """The cubes of ``level`` holding atoms, among the children of the
        cubes with the ascending keys ``parents`` when given."""
        small = self.int64 and int(self.den.max()) << level < 1 << _KEY_BITS
        num, den = (self.num64, self.den64) if small else (self.num, self.den)
        # every index is below 2^level, so the keys are int64 where they fit
        keys = _morton(-((-(num << level)) // den) - 1, level, self.m)
        atom = np.argsort(keys, kind="stable")
        if parents is not None:
            atom = atom[_in_sorted(keys[atom] >> self.m, parents)]
        keys = keys[atom]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        return _Frontier(level, keys[starts], _exact_sums(self.w[atom], starts))

    def root(self):
        return self._frontier(0)

    def expand(self, fr):
        return self._frontier(fr.level + 1, fr.keys)


class _DensityEngine(_Engine):
    """No state: down to the grid depth a cube's mass is a block sum of the
    density pyramid, below it the density of the grid cell that holds it
    times the cube volume."""

    def __init__(self, spec: DyadicDensity):
        super().__init__(spec)
        self.depth = spec.depth
        self.values = spec.values
        self.pyramid = _density_pyramid(spec)

    def _frontier(self, level, keys):
        coords = _coords(keys, level, self.m)
        if level <= self.depth:
            masses = self.pyramid[level][tuple(coords)] * math.ldexp(1.0, -self.depth * self.m)
        else:
            cell = tuple((c >> (level - self.depth)).astype(np.intp) for c in coords)
            masses = self.values[cell] * math.ldexp(1.0, -level * self.m)
        keep = masses > 0.0
        return _Frontier(level, keys[keep], masses[keep])

    def root(self):
        return self._frontier(0, np.zeros(1, dtype=np.int64))

    def expand(self, fr):
        return self._frontier(fr.level + 1, _all_children(fr.keys, fr.level, self.m))


def _density_pyramid(spec: DyadicDensity) -> list[np.ndarray]:
    """pyramid[l][idx] = sum of level-D density values inside the level-l cube."""
    m = spec.dim
    levels = [spec.values]
    for _ in range(spec.depth):
        arr = levels[-1]
        for axis in range(m):
            n = arr.shape[axis]
            arr = arr.reshape(arr.shape[:axis] + (n // 2, 2) + arr.shape[axis + 1:]).sum(axis + 1)
        levels.append(arr)
    levels.reverse()
    return levels


class _MixtureEngine(_Engine):
    """State: the frontier of each component with a positive coefficient.  A
    cube's mass is the sum of c * (component mass) over the components that
    hold it."""

    def __init__(self, spec: Mixture):
        super().__init__(spec)
        self.parts = [(c, _engine(s)) for c, s in spec.components if c > 0.0]

    def _merge(self, level, subs):
        keys = np.unique(np.concatenate([s.keys for s in subs]))
        terms = np.zeros((len(keys), len(subs)))
        for col, ((c, _), sub) in enumerate(zip(self.parts, subs)):
            terms[np.searchsorted(keys, sub.keys), col] = c * sub.masses
        masses = _exact_sums(terms.ravel(), np.arange(0, terms.size, len(subs)))
        return _Frontier(level, keys, masses, tuple(subs))

    def root(self):
        return self._merge(0, [eng.root() for _, eng in self.parts])

    def expand(self, fr):
        return self._merge(fr.level + 1,
                           [eng.expand(sub) for (_, eng), sub in zip(self.parts, fr.state)])

    def take(self, fr, mask):
        keys = fr.keys[mask]
        subs = tuple(eng.take(sub, _in_sorted(sub.keys, keys))
                     for (_, eng), sub in zip(self.parts, fr.state))
        return _Frontier(fr.level, keys, fr.masses[mask], subs)


def _engine(spec: MeasureSpec) -> _Engine:
    if isinstance(spec, Lebesgue):
        return _IfsEngine(_lebesgue_ifs(spec))
    for family, engine in ((DyadicIFS, _IfsEngine), (GeneralIFS1D, _Ifs1DEngine),
                           (Atomic, _AtomicEngine), (DyadicDensity, _DensityEngine),
                           (Mixture, _MixtureEngine)):
        if isinstance(spec, family):
            return engine(spec)
    raise TypeError(f"unknown measure spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Mass queries
# ---------------------------------------------------------------------------

def cube_mass(spec: MeasureSpec, cube: DyadicCube) -> float:
    """nu(cube).

    Exact (a finite sum of weight products) for Lebesgue, DyadicIFS, Atomic,
    DyadicDensity and mixtures thereof; within ``mass_tol`` for GeneralIFS1D.
    """
    _checks.dimension("cube", cube.dim, spec.dim)
    return float(_key_masses(spec, *_cube_keys([cube], spec.dim))[0])


def _key_masses(spec: MeasureSpec, levels: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """nu of the cubes with the given levels and Morton keys, from one
    level-synchronous walk that follows the cubes' ancestors only; 0.0 where
    no branch reaches a cube.  A frontier row's mass does not depend on the
    other rows, so each mass is the one a walk to that cube alone gives."""
    m = spec.dim
    out = np.zeros(len(levels))
    if not len(levels):
        return out
    rows = dict(_by_level(levels))
    at = {level: _level_keys(keys[r], level, m) for level, r in rows.items()}
    depth = max(rows)
    # the keys of each level whose subtree holds a queried cube, deepest first
    wanted, up = [], np.zeros(0, dtype=np.int64)
    for level in range(depth, -1, -1):
        here = np.unique(np.concatenate((up, at.get(level, up[:0]))))
        wanted.append(_level_keys(here, level, m))
        up = here >> m
    eng = _engine(spec)
    fr = eng.root()
    for level, here in enumerate(reversed(wanted)):
        fr = eng.take(fr, _in_sorted(fr.keys, here))
        if level in rows:
            hit = _in_sorted(at[level], fr.keys)
            out[rows[level][hit]] = fr.masses[np.searchsorted(fr.keys, at[level][hit])]
        if level < depth:
            fr = eng.expand(fr)
    return out


def _supports(spec: MeasureSpec, levels: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Morton keys and masses of the positive-mass cubes at each of the
    non-decreasing ``levels``, depth-first, from one walk.  Only the walk
    holds a frontier.  A consumer must not hold level n's arrays while the
    walk expands to level n+1: a loop variable keeps its pair until the next
    is bound, and ``list(map(f, map(itemgetter(1), _supports(...))))`` keeps
    only the results of f."""
    eng = _engine(spec)
    fr = eng.root()
    for n in levels:
        _checks.count("level", n, least=0)
        while fr.level < n:
            fr = eng.expand(fr)
        keep = slice(None) if fr.masses.all() else fr.masses > 0.0
        yield fr.keys[keep], fr.masses[keep]


def _state_masses(spec: MeasureSpec, levels: Sequence[int]
                  ) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """For a DyadicIFS or Lebesgue spec, the positive masses of the distinct
    engine states (w, node) at each of the non-decreasing ``levels``, with
    the number of cubes in each state as Python integers; None for the
    other families.  One walk over the distinct states, no keys: a cube's
    mass and children depend on its state alone, and a child's w is the
    product the cube walk computes, so the masses taken count times each
    are the multiset :func:`support_masses` returns, bit for bit, at any
    depth."""
    if not isinstance(spec, (DyadicIFS, Lebesgue)):
        return None
    eng = _engine(spec)
    w, node, count = np.ones(1), np.zeros(1, dtype=eng.node_type), np.array([1], dtype=object)
    level, out = 0, []
    for n in levels:
        _checks.count("level", n, least=0)
        while level < n:
            w, node, count = eng.merged_children(w, node, count)
            level += 1
        masses = eng._frontier(n, None, w, node).masses
        keep = masses > 0.0
        out.append((masses[keep], count[keep]))
    return out


def support_with_masses(spec: MeasureSpec, n: int) -> tuple[list[DyadicCube], np.ndarray]:
    """All level-n cubes of positive mass (depth-first selector order) with
    their masses.  The descent prunes zero-mass subtrees, so thin supports
    never cost 2^(nm) work."""
    (keys, masses), = _supports(spec, [n])
    return _cubes(n, keys, spec.dim), masses


def support_cubes(spec: MeasureSpec, n: int) -> list[DyadicCube]:
    """Exactly the level-n dyadic cubes with nu(cube) > 0."""
    return support_with_masses(spec, n)[0]


def support_masses(spec: MeasureSpec, n: int) -> np.ndarray:
    """Masses of the positive level-n cubes, in the depth-first order of
    :func:`support_with_masses`."""
    (_, masses), = _supports(spec, [n])
    return masses


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _fraction_to_json(x: Fraction):
    num, den = x.numerator, x.denominator
    if den & (den - 1) == 0:  # power of two
        return {"num": num, "log2_den": den.bit_length() - 1}
    return {"num": num, "den": den}


def spec_to_dict(spec: MeasureSpec) -> dict:
    if isinstance(spec, Lebesgue):
        return {"type": "lebesgue", "dimension": spec.dimension}
    if isinstance(spec, DyadicIFS):
        return {
            "type": "dyadic_ifs",
            "dimension": spec.dimension,
            "maps": [
                {"ratio_log2": mp.ratio_log2, "offset": [_fraction_to_json(c) for c in mp.offset]}
                for mp in spec.maps
            ],
            "weights": list(spec.weights),
        }
    if isinstance(spec, GeneralIFS1D):
        return {
            "type": "ifs_1d",
            "maps": [
                {"ratio": _fraction_to_json(mp.ratio), "offset": _fraction_to_json(mp.offset)}
                for mp in spec.maps
            ],
            "weights": list(spec.weights),
            "mass_tol": spec.mass_tol,
        }
    if isinstance(spec, Atomic):
        return {
            "type": "atomic",
            "atoms": [
                {"point": [_fraction_to_json(x) for x in pt], "weight": w}
                for pt, w in zip(spec.points, spec.weights)
            ],
        }
    if isinstance(spec, DyadicDensity):
        return {"type": "dyadic_density", "depth": spec.depth, "values": spec.values.tolist()}
    if isinstance(spec, Mixture):
        return {
            "type": "mixture",
            "components": [
                {"coefficient": c, "spec": spec_to_dict(s)} for c, s in spec.components
            ],
        }
    raise TypeError(f"unknown measure spec {type(spec).__name__}")


def parse_spec(doc: dict) -> MeasureSpec:
    """Build a MeasureSpec from its JSON document.

    A document is an object with a ``type`` tag and the fields of its family:

    * ``{"type": "lebesgue", "dimension": m}``
    * ``{"type": "dyadic_ifs", "dimension": m, "maps": [{"ratio_log2": e,
      "offset": [c_1, ..., c_m]}, ...], "weights": [p, ...]}``: the maps
      x -> 2^-e x + c, each offset on the 2^-e grid, images disjoint
    * ``{"type": "ifs_1d", "maps": [{"ratio": r, "offset": c}, ...],
      "weights": [p, ...], "mass_tol": tol}``: the maps x -> r x + c of
      [0, 1], images meeting at most in end points (``mass_tol``: 1e-12)
    * ``{"type": "atomic", "atoms": [{"point": [x_1, ..., x_m],
      "weight": w}, ...]}``: points inside the open cube (0, 1)^m
    * ``{"type": "dyadic_density", "depth": D, "values": [...]}``: nested
      lists of shape (2^D,)*m, the density on each level-D cube
    * ``{"type": "mixture", "components": [{"coefficient": c,
      "spec": document}, ...]}``

    Coordinates, offsets and ratios are exact rationals: a JSON number, or
    ``{"num": a, "den": b}``, or ``{"num": a, "log2_den": k}`` for a / 2^k
    with 0 <= k <= 1074.  Weights and coefficients are positive and sum to 1.
    ``dimension``, ``depth``, ``ratio_log2``, ``num``, ``den`` and
    ``log2_den`` are JSON integers and every other number a JSON number:
    a boolean, a string or a non-integral number in their place is an error.

    Raises ValueError with a descriptive message on malformed input, and
    :class:`InvalidMeasureError`, a ValueError, on a spec that breaks the
    constraints of its family.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("measure spec document must be an object with a 'type' tag")
    kind = doc["type"]
    try:
        if kind == "lebesgue":
            return Lebesgue(_json_int(doc["dimension"], "dimension"))
        if kind == "dyadic_ifs":
            maps = tuple(
                _make_dyadic_map(_json_int(mp["ratio_log2"], "ratio_log2"), mp["offset"])
                for mp in doc["maps"]
            )
            return DyadicIFS(_json_int(doc["dimension"], "dimension"), maps,
                             _json_floats(doc["weights"], "weights"))
        if kind == "ifs_1d":
            maps = tuple(
                Homothety1D(_as_fraction(mp["ratio"], "ratio"),
                            _as_fraction(mp["offset"], "offset"))
                for mp in doc["maps"]
            )
            return GeneralIFS1D(
                maps,
                _json_floats(doc["weights"], "weights"),
                float(_json_number(doc.get("mass_tol", 1e-12), "mass_tol")),
            )
        if kind == "atomic":
            pts = tuple(tuple(_as_fraction(x, "point") for x in atom["point"])
                        for atom in doc["atoms"])
            ws = _json_floats([atom["weight"] for atom in doc["atoms"]], "weight")
            return Atomic(pts, ws)
        if kind == "dyadic_density":
            cells = np.array(doc["values"], dtype=object)
            values = np.array(_json_floats(cells.ravel().tolist(), "values")).reshape(cells.shape)
            return DyadicDensity(_json_int(doc["depth"], "depth"), values)
        if kind == "mixture":
            comps = tuple(
                (float(_json_number(c["coefficient"], "coefficient")), parse_spec(c["spec"]))
                for c in doc["components"]
            )
            return Mixture(comps)
    except (KeyError, TypeError, IndexError, ArithmeticError) as exc:
        raise ValueError(f"malformed '{kind}' measure spec: {exc!r}") from exc
    raise ValueError(f"unknown measure type {kind!r}")


def load_spec(path: str | Path) -> MeasureSpec:
    return parse_spec(json.loads(Path(path).read_text(encoding="utf-8")))


def save_spec(spec: MeasureSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Builders for frequently used measures
# ---------------------------------------------------------------------------

def dirac(point: Sequence[Rational]) -> Atomic:
    """Unit point mass."""
    return Atomic((tuple(_as_fraction(x) for x in point),), (1.0,))


def binomial_ifs(p_left: float) -> DyadicIFS:
    """Binomial measure on (0,1]: mass splits (p_left, 1-p_left) between the
    two half intervals at every scale."""
    maps = (
        _make_dyadic_map(1, (Fraction(0),)),
        _make_dyadic_map(1, (Fraction(1, 2),)),
    )
    return DyadicIFS(1, maps, (float(p_left), 1.0 - float(p_left)))


def sierpinski_tetrahedron(weights: Sequence[float]) -> DyadicIFS:
    """Self-similar measure on the Sierpinski tetrahedron: the four ratio-1/2
    corner maps of the unit cube in R^3 at corners 0, e1/2, e2/2, e3/2."""
    if len(weights) != 4:
        raise ValueError("exactly four weights are required")
    half = Fraction(1, 2)
    zero = Fraction(0)
    corners = [(zero, zero, zero), (half, zero, zero), (zero, half, zero), (zero, zero, half)]
    maps = tuple(_make_dyadic_map(1, c) for c in corners)
    return DyadicIFS(3, maps, tuple(float(w) for w in weights))


def cantor_measure(ratio: Rational = Fraction(1, 3), weights: Sequence[float] = (0.5, 0.5),
                   mass_tol: float = 1e-12) -> GeneralIFS1D:
    """Two-map Cantor-type measure with images anchored at 0 and 1."""
    r = _as_fraction(ratio)
    maps = (Homothety1D(r, Fraction(0)), Homothety1D(r, 1 - r))
    return GeneralIFS1D(maps, tuple(float(w) for w in weights), float(mass_tol))


def exp_decay_atoms(cutoff: int = 30) -> Atomic:
    """Atoms at 1/k with weights proportional to exp(-k), k = 2..cutoff+1.

    A pathological test measure: the atoms accumulate at 0 so slowly that the
    box-counting dimension of the support is 1/2 while every positive-order
    moment sum collapses, which makes all fixed points of the level spectra
    degenerate to 0.  (Points start at k=2 to stay inside the open cube.)
    """
    _checks.count("cutoff", cutoff, least=2)
    ks = range(2, cutoff + 2)
    raw = [math.exp(-k) for k in ks]
    total = math.fsum(raw)
    points = tuple((Fraction(1, k),) for k in ks)
    return Atomic(points, tuple(w / total for w in raw))
