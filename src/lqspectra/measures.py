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
* All measures are probability measures; ``validate`` reports normalization
  defects beyond 1e-12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

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

NORMALIZATION_TOL = 1e-12

Rational = Union[int, float, Fraction]


def _as_fraction(x) -> Fraction:
    """Coerce ints, floats (exact binary rationals), Fractions or JSON rational
    objects ({"num", "den"} or {"num", "log2_den"}) to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a coordinate")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # floats are exact dyadic rationals
    if isinstance(x, dict):
        if "log2_den" in x:
            return Fraction(int(x["num"]), 2 ** int(x["log2_den"]))
        return Fraction(int(x["num"]), int(x["den"]))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


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
        if self.level < 0:
            raise ValueError("cube level must be >= 0")
        top = 1 << self.level
        if not self.index or any(l < 0 or l >= top for l in self.index):
            raise ValueError(
                f"cube index {self.index} out of range for level {self.level}"
            )

    @property
    def dim(self) -> int:
        return len(self.index)

    def volume(self) -> float:
        return math.ldexp(1.0, -self.level * self.dim)

    def volume_fraction(self) -> Fraction:
        return Fraction(1, 1 << (self.level * self.dim))

    def bounds(self) -> list[tuple[Fraction, Fraction]]:
        """Per-coordinate half-open intervals (lo, hi], as exact Fractions."""
        den = 1 << self.level
        return [(Fraction(l, den), Fraction(l + 1, den)) for l in self.index]

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
    scale = 1 << level
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

    Instances are immutable after construction; every operation in the
    package treats them as pure values, so they may be shared freely across
    threads.
    """

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
        return [] if self.dimension >= 1 else ["dimension must be >= 1"]


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
    off = tuple(_as_fraction(c) for c in offset)
    return DyadicMap(int(ratio_log2), off)


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
        if not self.maps:
            out.append("at least one map is required")
            return out
        out.extend(_check_weights(self.weights, "weights"))
        images = []
        for i, mp in enumerate(self.maps):
            if mp.ratio_log2 < 1:
                out.append(f"map {i}: ratio exponent must be >= 1")
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

    def map_cube(self, i: int, cube: DyadicCube) -> DyadicCube:
        """Image T_i(cube), again a dyadic cube."""
        img = self.maps[i].image_cube()
        e = self.maps[i].ratio_log2
        idx = tuple(l + (k << cube.level) for l, k in zip(cube.index, img.index))
        return DyadicCube(cube.level + e, idx)

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
        out.extend(_check_weights(self.weights, "weights"))
        if not (0 < self.mass_tol <= 1e-3):
            out.append("mass_tol must lie in (0, 1e-3]")
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
        for i, pt in enumerate(self.points):
            if len(pt) != m:
                out.append(f"atom {i}: dimension mismatch")
                continue
            if any(not (0 < x < 1) for x in pt):
                out.append(f"atom {i}: point must lie in the open cube (0,1)^m")
        if len(set(self.points)) != len(self.points):
            out.append("duplicate atom positions")
        out.extend(_check_weights(self.weights, "weights"))
        return out


@dataclass(frozen=True, eq=False)
class DyadicDensity(MeasureSpec):
    """Piecewise-constant density on the level-D dyadic grid.

    ``values[l_1, ..., l_m]`` is the density on the level-D cube with index
    (l_1, ..., l_m); the cell mass is the density times the cell volume.
    """

    depth: int
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.ndim

    def violations(self) -> list[str]:
        out = []
        if self.depth < 0:
            out.append("depth must be >= 0")
        side = 1 << self.depth
        if any(s != side for s in self.values.shape):
            out.append(f"values must have shape ({side},)*m for depth {self.depth}")
            return out
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            out.append("density values must be finite and >= 0")
        total = float(self.values.sum()) * math.ldexp(1.0, -self.depth * self.dim)
        if abs(total - 1.0) > NORMALIZATION_TOL:
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
        if abs(sum(coefs) - 1.0) > NORMALIZATION_TOL:
            out.append(f"coefficients sum to {sum(coefs)!r}, not 1")
        dims = {spec.dim for _, spec in self.components}
        if len(dims) > 1:
            out.append(f"components have mixed dimensions {sorted(dims)}")
        for i, (_, spec) in enumerate(self.components):
            out.extend(f"component {i}: {v}" for v in spec.violations())
        return out


def _check_weights(weights: Sequence[float], label: str) -> list[str]:
    out = []
    if any((not math.isfinite(w)) or w <= 0 for w in weights):
        out.append(f"{label} must be finite and > 0")
    total = math.fsum(weights)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        out.append(f"{label} sum to {total!r}, not 1")
    return out


class InvalidMeasureError(ValueError):
    """Raised when an operation receives a spec that fails validation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid measure spec: " + "; ".join(violations))


def validate(spec: MeasureSpec) -> list[str]:
    """Return the list of constraint violations (empty when the spec is valid)."""
    return spec.violations()


def ensure_valid(spec: MeasureSpec) -> None:
    bad = spec.violations()
    if bad:
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
# ``take(frs, masks)`` the rows of the frontiers ``frs`` of one level where
# ``masks`` are set, one frontier after the other.  Frontiers grown from the
# root have ascending keys; one that ``take`` gathers from several need not.
# Support enumeration, cube masses, the adaptive partitions, the exact
# oracle and discretization all run on these engines; the helpers below keep
# the key arithmetic in this module.
#
# Keys are int64 while m * level <= 62 and Python integers (object arrays)
# beyond, so positions are exact at any depth.  A mass that sums several
# terms (IFS images sharing a cube, atoms, mixture components) is correctly
# rounded, as math.fsum gives it, whatever the order of the terms.
# ---------------------------------------------------------------------------

_KEY_BITS = 62


@dataclass
class _Frontier:
    level: int
    keys: np.ndarray
    masses: np.ndarray
    state: tuple = ()


def _shifted(keys: np.ndarray, bits: int, total_bits: int) -> np.ndarray:
    """keys << bits, as Python integers when the result needs more than 62 bits."""
    if total_bits > _KEY_BITS and keys.dtype != object:
        keys = keys.astype(object)
    return keys << bits


def _all_children(keys: np.ndarray, level: int, m: int) -> np.ndarray:
    """Keys of the 2^m children of each cube, in depth-first order."""
    return (_shifted(keys, m, m * (level + 1))[:, None] | np.arange(1 << m)).ravel()


def _child_rows(parents: np.ndarray, kids: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For each key of ``kids``, children of cubes in ``parents``: the row of
    its parent in ``parents`` and its selector."""
    order = np.argsort(parents, kind="stable")
    return order[np.searchsorted(parents[order], kids >> m)], (kids & ((1 << m) - 1)).astype(np.intp)


def _empty_children(parents: np.ndarray, kids: np.ndarray, level: int, m: int) -> np.ndarray:
    """Keys of the children of ``parents`` that are not among ``kids``."""
    empty = np.ones((len(parents), 1 << m), dtype=bool)
    empty[_child_rows(parents, kids, m)] = False
    return _all_children(parents, level, m)[empty.ravel()]


def _in_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the ascending ``keys``: a binary search,
    which unlike np.isin stays O(n log n) on Python-integer keys."""
    pos = np.searchsorted(keys, values)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == values[hit]
    return hit


def _depth_first(groups: list[tuple[int, np.ndarray]], m: int) -> np.ndarray:
    """The order that puts disjoint cubes, given as (level, keys) groups, in
    depth-first order: the order of their first descendants at one level."""
    depth = max(level for level, keys in groups if len(keys))
    return np.argsort(np.concatenate([_shifted(keys, m * (depth - level), m * depth)
                                      for level, keys in groups]), kind="stable")


def _coords(keys: np.ndarray, level: int, m: int) -> list[np.ndarray]:
    """Per-coordinate cube indices of level-``level`` Morton keys."""
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

    def take(self, frs: list[_Frontier], masks: list[np.ndarray]) -> _Frontier:
        cols = zip(*[(fr.keys, fr.masses) + fr.state for fr in frs])
        keys, masses, *state = (np.concatenate([a[k] for a, k in zip(col, masks)]) for col in cols)
        return _Frontier(frs[0].level, keys, masses, tuple(state))


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
        width = max(map(len, rules))
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
        # one table row serves a frontier that sits at one node, which keeps
        # the deepest full-support levels free of per-child index arrays
        rows = node[:1] if len(node) and (node == node[0]).all() else node
        keys = _shifted(fr.keys, self.m, self.m * (fr.level + 1))[:, None] | self.sel[rows]
        w = w[:, None] * self.factor[rows]
        node = np.broadcast_to(self.next[rows], keys.shape)
        if self.full:
            return self._frontier(fr.level + 1, keys.ravel(), w.ravel(), node.ravel())
        real = ~np.isnan(w)
        return self._frontier(fr.level + 1, keys[real], w[real], node[real])


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
    value on all of it and cubes inside a gap get mass exactly 0.  The
    points of one call share a denominator D: y = N/D with integer N."""

    def __init__(self, spec: GeneralIFS1D):
        super().__init__(spec)
        maps = sorted(zip(spec.maps, spec.weights), key=lambda mw: mw[0].offset)
        a, b = (mp.offset / (1 - mp.ratio) for mp in (maps[0][0], maps[-1][0]))
        self.cut = spec.mass_tol / 4.0
        self.p = [p for _, p in maps]
        self.below = np.concatenate(([0.0], np.cumsum(self.p)))
        self.hulls, self.inverse = [], []
        for mp, _ in maps:
            r, c = mp.ratio, mp.offset
            self.hulls.append((c + r * a, c + r * b))
            u, v = 1 / r, c / r  # y -> u y - v = (P y - Q) / R
            den = math.lcm(u.denominator, v.denominator)
            self.inverse.append((int(u * den), int(v * den), den))
        self.lcm = math.lcm(*(den for _, _, den in self.inverse))
        self.bound = max([max(x.numerator, x.denominator) for hull in self.hulls for x in hull]
                         + [max(pv, qv) for pv, qv, _ in self.inverse])

    def _cdf(self, nums: np.ndarray, level: int) -> np.ndarray:
        D = 1 << level
        exact64 = self.lcm == 1 and self.bound * D < 1 << _KEY_BITS
        N = np.array(nums.tolist(), dtype=np.int64 if exact64 else object)
        F = np.zeros(len(N))
        w = np.ones(len(N))
        live = np.arange(len(N))
        while len(live):
            left = sum((N * e.denominator >= e.numerator * D).astype(np.intp)
                       for _, e in self.hulls)
            F[live] += w * self.below[left]
            inside = np.zeros(len(N), dtype=bool)
            nxt = N.copy()
            for i, ((s, _), (pv, qv, den)) in enumerate(zip(self.hulls, self.inverse)):
                rows = (left == i) & (N * s.denominator > s.numerator * D)
                inside |= rows
                nxt[rows] = (pv * N[rows] - qv * D) * (self.lcm // den)
                w[rows] *= self.p[i]
            N, w, live, D = nxt[inside], w[inside], live[inside], D * self.lcm
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
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        keep = hi - lo > 0.0
        return _Frontier(fr.level + 1, _all_children(fr.keys, fr.level, 1)[keep],
                         (hi - lo)[keep], (lo[keep], hi[keep]))


class _AtomicEngine(_Engine):
    """No state: at level n an atom x lies in the cube with the indices
    ceil(x_k 2^n) - 1 (right-closed cubes), in exact integer arithmetic."""

    def __init__(self, spec: Atomic):
        super().__init__(spec)
        self.w = np.asarray(spec.weights, dtype=float)
        self.num, self.den = (np.array([[getattr(x, part) for x in pt] for pt in spec.points],
                                       dtype=object).T for part in ("numerator", "denominator"))
        self.int64 = int(self.den.max()) < 1 << _KEY_BITS
        if self.int64:
            self.num64, self.den64 = self.num.astype(np.int64), self.den.astype(np.int64)

    def _frontier(self, level, parents=None):
        """The cubes of ``level`` holding atoms, among the children of the
        cubes with keys ``parents`` when given."""
        small = self.int64 and int(self.den.max()) << level < 1 << _KEY_BITS
        num, den = (self.num64, self.den64) if small else (self.num, self.den)
        # every index is below 2^level, so the keys are int64 where they fit
        keys = _morton(-((-(num << level)) // den) - 1, level, self.m)
        atom = np.argsort(keys, kind="stable")
        if parents is not None:
            atom = atom[_in_sorted(keys[atom] >> self.m, np.sort(parents))]
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
        self.values = np.asarray(spec.values, dtype=float)
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
    levels = [np.asarray(spec.values, dtype=float)]
    for _ in range(spec.depth):
        arr = levels[-1]
        for axis in range(m):
            n = arr.shape[axis]
            arr = arr.reshape(arr.shape[:axis] + (n // 2, 2) + arr.shape[axis + 1:]).sum(axis + 1)
        levels.append(arr)
    levels.reverse()
    return levels


class _MixtureEngine(_Engine):
    """State (subs, owners): the frontier of each component with a positive
    coefficient, and for each the rows of the mixture frontier its cubes sit
    in.  A cube's mass is the sum of c * (component mass) over the
    components that hold it."""

    def __init__(self, spec: Mixture):
        super().__init__(spec)
        self.parts = [(c, _engine(s)) for c, s in spec.components if c > 0.0]

    def _merge(self, level, subs):
        keys = np.unique(np.concatenate([s.keys for s in subs]))
        terms = np.zeros((len(keys), len(subs)))
        owners = [np.searchsorted(keys, s.keys) for s in subs]
        for col, ((c, _), sub, own) in enumerate(zip(self.parts, subs, owners)):
            terms[own, col] = c * sub.masses
        masses = _exact_sums(terms.ravel(), np.arange(0, terms.size, len(subs)))
        return _Frontier(level, keys, masses, (subs, owners))

    def root(self):
        return self._merge(0, [eng.root() for _, eng in self.parts])

    def expand(self, fr):
        return self._merge(fr.level + 1,
                           [eng.expand(sub) for (_, eng), sub in zip(self.parts, fr.state[0])])

    def take(self, frs, masks):
        row = np.cumsum(np.concatenate(masks)) - 1  # new rows, one frontier after the other
        start = np.cumsum([0] + [len(fr.keys) for fr in frs])
        subs, owners = [], []
        for col, (_, eng) in enumerate(self.parts):
            own = [fr.state[1][col] for fr in frs]
            keep = [mask[o] for mask, o in zip(masks, own)]
            subs.append(eng.take([fr.state[0][col] for fr in frs], keep))
            owners.append(np.concatenate([row[s + o[k]] for s, o, k in zip(start, own, keep)]))
        return _Frontier(frs[0].level, np.concatenate([fr.keys[k] for fr, k in zip(frs, masks)]),
                         np.concatenate([fr.masses[k] for fr, k in zip(frs, masks)]), (subs, owners))


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

def _level_frontier(spec: MeasureSpec, n: int) -> _Frontier:
    ensure_valid(spec)
    if n < 0:
        raise ValueError("level must be >= 0")
    eng = _engine(spec)
    fr = eng.root()
    for _ in range(n):
        fr = eng.expand(fr)
    return fr


def cube_mass(spec: MeasureSpec, cube: DyadicCube) -> float:
    """nu(cube).

    Exact (a finite sum of weight products) for Lebesgue, DyadicIFS, Atomic,
    DyadicDensity and mixtures thereof; within ``mass_tol`` for GeneralIFS1D.
    """
    ensure_valid(spec)
    if cube.dim != spec.dim:
        raise ValueError(f"cube dimension {cube.dim} != measure dimension {spec.dim}")
    eng = _engine(spec)
    fr = eng.root()
    key = 0
    for sel in cube.selector_path():  # follow the cube's ancestors only
        key = (key << spec.dim) | sel
        fr = eng.expand(fr)
        fr = eng.take([fr], [fr.keys == key])
    return float(fr.masses.sum())  # 0.0 once no branch reaches the cube


def support_with_masses(spec: MeasureSpec, n: int) -> tuple[list[DyadicCube], np.ndarray]:
    """All level-n cubes of positive mass (depth-first selector order) with
    their masses.  The descent prunes zero-mass subtrees, so thin supports
    never cost 2^(nm) work."""
    fr = _level_frontier(spec, n)
    keep = fr.masses > 0.0
    return _cubes(n, fr.keys[keep], spec.dim), fr.masses[keep]


def support_cubes(spec: MeasureSpec, n: int) -> list[DyadicCube]:
    """Exactly the level-n dyadic cubes with nu(cube) > 0."""
    return support_with_masses(spec, n)[0]


def support_masses(spec: MeasureSpec, n: int) -> np.ndarray:
    """Masses of the positive level-n cubes, in the depth-first order of
    :func:`support_with_masses`."""
    masses = _level_frontier(spec, n).masses
    return masses if masses.all() else masses[masses > 0.0]


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
    ``{"num": a, "den": b}``, or ``{"num": a, "log2_den": k}`` for a / 2^k.
    Weights and coefficients are positive and sum to 1.

    Raises ValueError with a descriptive message on malformed input; call
    :func:`validate` afterwards for semantic constraints.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("measure spec document must be an object with a 'type' tag")
    kind = doc["type"]
    try:
        if kind == "lebesgue":
            return Lebesgue(int(doc["dimension"]))
        if kind == "dyadic_ifs":
            maps = tuple(
                _make_dyadic_map(mp["ratio_log2"], mp["offset"]) for mp in doc["maps"]
            )
            return DyadicIFS(int(doc["dimension"]), maps, tuple(float(w) for w in doc["weights"]))
        if kind == "ifs_1d":
            maps = tuple(
                Homothety1D(_as_fraction(mp["ratio"]), _as_fraction(mp["offset"]))
                for mp in doc["maps"]
            )
            return GeneralIFS1D(
                maps,
                tuple(float(w) for w in doc["weights"]),
                float(doc.get("mass_tol", 1e-12)),
            )
        if kind == "atomic":
            pts = tuple(tuple(_as_fraction(x) for x in atom["point"]) for atom in doc["atoms"])
            ws = tuple(float(atom["weight"]) for atom in doc["atoms"])
            return Atomic(pts, ws)
        if kind == "dyadic_density":
            values = np.asarray(doc["values"], dtype=float)
            return DyadicDensity(int(doc["depth"]), values)
        if kind == "mixture":
            comps = tuple(
                (float(c["coefficient"]), parse_spec(c["spec"])) for c in doc["components"]
            )
            return Mixture(comps)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed '{kind}' measure spec: {exc!r}") from exc
    raise ValueError(f"unknown measure type {kind!r}")


def load_spec(path: str | Path) -> MeasureSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_spec(doc)


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
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    ks = range(2, cutoff + 2)
    raw = [math.exp(-k) for k in ks]
    total = math.fsum(raw)
    points = tuple((Fraction(1, k),) for k in ks)
    return Atomic(points, tuple(w / total for w in raw))
