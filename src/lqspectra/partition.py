"""Adaptive dyadic partitions, the exact small-budget oracle, and partition entropy.

Every cube Q carries the weight J_a(Q) = vol(Q)^a * nu(Q).  The adaptive
algorithm calls a cube *bad* when J_a >= t and *good* otherwise; bad cubes
are split into their 2^m children until only good cubes remain, which
yields the coarsest dyadic partition whose cubes all satisfy J_a < t.
Zero-mass cubes have J_a = 0 and are emitted immediately, so partitions
always cover the whole unit cube while positive-mass enumeration stays
pruned.

A child never outweighs its parent (J_a(child) <= J_a(parent)), so the bad
cubes form an ancestor-closed set and

    card(t) = 1 + (2^m - 1) * #{Q : J_a(Q) >= t}.

The whole adaptive family therefore follows from one sorted array of J_a
values, collected by one level-synchronous engine walk: the entropy fit
and :func:`counting_N` count in it, :func:`refinement_profile` reads every
state off it, and :func:`budget_partition` and
:func:`gamma_adaptive_profile` read the profile.  Only
:func:`adaptive_partition` and :func:`budget_partition` need the cubes
themselves.  Both cut them out of a walk that split at least every cube
the threshold walk splits (the threshold walk itself, or the profile's
walk), and keep them as (level, Morton key) arrays: a :class:`Partition`
builds its DyadicCube objects when ``cubes`` is first read, which costs
several times the walk.

Two independent routes to the same optimisation are provided:

* :func:`refinement_profile` runs the adaptive family greedily (always
  splitting the cubes of largest J_a) and records every (cardinality,
  max J_a) state, giving upper bounds gamma_hat(n) for all budgets at once;
* :func:`gamma_dyadic_oracle` computes the exact minimum of max J_a over
  all partitions into at most n dyadic cubes of bounded depth by dynamic
  programming over the subdivision tree.  Each subtree's optimum is a
  non-increasing vector over budgets, so a split cube combines all 2^m of
  its children at once, by one sort of their vectors' entries, instead of
  min-max convolutions.  The tree is the one the profile's walk visits, and a
  certificate on the result (or a walk at a lower cut) proves that no
  partition outside it does better.  It is the test oracle for the
  minimality of the adaptive partitions.

When a walk meets its depth limit, :class:`MaxDepthExceeded` names the
first cube at ``max_depth``, in depth-first (key) order, that the walk would
split: at the least offending threshold for the threshold walks, in the
first state that splits such a cube for the profile.  A profile that runs
out of positive cubes ends on the row max J_a = 0.0.

The partition entropy h_a is estimated as the log-log slope of the
cardinality of the threshold-1/t partition against t over the tail half of
a geometric t-grid; no extrapolation beyond the sampled range is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import _checks
from .measures import (
    DyadicCube,
    MeasureSpec,
    _by_level,
    _cube_indices,
    _cube_keys,
    _cubes,
    _depth_first,
    _empty_children,
    _engine,
    _key_masses,
)

__all__ = [
    "Partition",
    "EntropyFit",
    "MaxDepthExceeded",
    "j_weight",
    "adaptive_partition",
    "counting_N",
    "refinement_profile",
    "gamma_adaptive_profile",
    "gamma_dyadic_vector",
    "gamma_dyadic_oracle",
    "minimal_dyadic_cardinality",
    "entropy_estimate",
    "partition_violations",
]

DEFAULT_MAX_DEPTH = 60
_BUDGET = "an integer cube budget"
_TINY = math.ulp(0.0)  # the least positive float: J_a >= _TINY means J_a > 0
_ZERO = np.zeros(1)  # the oracle vector of an empty cube


class MaxDepthExceeded(RuntimeError):
    """A bad cube reached the depth guard; carries the offending cube.

    ``cube`` is the first cube at the depth limit, in depth-first (key)
    order, among those the walk would split next: the bad ones at
    ``threshold``, or for the refinement profile (threshold 0.0) the ones of
    the first state that splits a cube at the limit.  ``j_value`` is their
    J_a, so ``adaptive_partition(spec, a, j_value, max_depth)`` names the
    same cube unless some cube ties its parent (J_a values that underflow,
    or a 2^(-m a) that rounds to 1)."""

    def __init__(self, cube: DyadicCube, j_value: float, threshold: float):
        self.cube = cube
        self.j_value = j_value
        self.threshold = threshold
        if threshold:
            where, remedy = f"(J_a = {j_value!r} >= t = {threshold!r})", "loosen the threshold"
        else:  # the refinement profile, which has a budget and no threshold
            where, remedy = f"in the refinement profile (J_a = {j_value!r})", "lower the budget"
        super().__init__(f"bad cube at depth {cube.level} {where}; raise max_depth or {remedy}")


def j_weight(spec: MeasureSpec, cube: DyadicCube, a: float) -> float:
    """J_a(cube) = vol(cube)^a * nu(cube)."""
    if cube.dim != spec.dim:
        raise ValueError(f"cube dimension {cube.dim} != measure dimension {spec.dim}")
    return float(_key_j(spec, *_cube_keys([cube], spec.dim), a)[0])


def _key_j(spec: MeasureSpec, levels: np.ndarray, keys: np.ndarray, a: float) -> np.ndarray:
    """J_a of the cubes with the given levels and Morton keys, from one
    engine walk for all of them."""
    _checks.real("a", a)
    m = spec.dim
    vols = np.empty(len(levels))
    for level, rows in _by_level(levels):
        vols[rows] = 2.0 ** (-level * m * a)
    return vols * _key_masses(spec, levels, keys)


class _CubeKeys(NamedTuple):
    """Cubes given as arrays: per-cube level and Morton key, and the dimension."""

    levels: np.ndarray
    keys: np.ndarray
    dim: int

    @classmethod
    def of(cls, cubes: Sequence[DyadicCube]) -> "_CubeKeys":
        """The arrays of a list of cubes (of dimension 0 when it is empty)."""
        dim = cubes[0].dim if cubes else 0
        return cls(*_cube_keys(cubes, dim), dim)


class _CubeField:
    """The ``cubes`` field of :class:`Partition` and of
    :class:`~lqspectra.polyapprox.PiecewisePoly`.

    The owner keeps its cubes as :class:`_CubeKeys` in ``_arrays``, which is
    what its own methods read.  Handed the arrays, it builds the DyadicCube
    objects on the first read of ``cubes`` and keeps them (a list to read,
    not to change); handed a list, it keeps the list and converts it to
    arrays once."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("cubes")  # no class default: the field is required
        if obj._cubes is None:
            levels, keys, dim = obj._arrays
            obj._cubes = [DyadicCube(level, idx) for level, idx
                          in zip(levels.tolist(), _cube_indices(levels, keys, dim))]
        return obj._cubes

    def __set__(self, obj, cubes):
        if isinstance(cubes, _CubeKeys):
            obj._cubes, obj._arrays = None, cubes
        else:
            obj._cubes = list(cubes)
            obj._arrays = _CubeKeys.of(obj._cubes)


@dataclass(eq=False)
class Partition:
    """Finite set of disjoint dyadic cubes covering the unit cube.

    Attributes
    ----------
    cubes : list[DyadicCube]
        Built on first read: a partition from the adaptive walks holds its
        cubes as (level, Morton key) arrays, which is all that
        ``cardinality``, ``max_level``, ``level_histogram``, ``to_records``,
        :func:`partition_violations` and
        :func:`~lqspectra.polyapprox.piecewise_project` read.  Building the
        objects costs about 1 ms per 1,000 cubes, several times the walk
        itself.
    masses, j_values : np.ndarray
        Per-cube nu-mass and J_a weight, aligned with ``cubes``.
    a : float
        Weight exponent used.
    threshold : float or None
        The t the adaptive algorithm was run with, if any.
    """

    cubes: list[DyadicCube] = _CubeField()
    masses: np.ndarray
    j_values: np.ndarray
    a: float
    threshold: float | None = None

    @property
    def cardinality(self) -> int:
        return len(self._arrays.levels)

    @property
    def max_j(self) -> float:
        return float(self.j_values.max()) if self.cardinality else 0.0

    @property
    def max_level(self) -> int:
        return int(self._arrays.levels.max())

    def level_histogram(self) -> dict[int, int]:
        levels, counts = np.unique(self._arrays.levels, return_counts=True)
        return dict(zip(levels.tolist(), counts.tolist()))

    def to_records(self) -> list[dict]:
        """JSON-ready dump: one {level, index, mass, J} object per cube."""
        levels, keys, dim = self._arrays
        return [
            {"level": level, "index": list(idx), "mass": float(m), "J": float(j)}
            for level, idx, m, j in zip(levels.tolist(), _cube_indices(levels, keys, dim),
                                        self.masses, self.j_values)
        ]


def partition_violations(part: Partition, spec: MeasureSpec | None = None,
                         atol: float = 1e-9) -> list[str]:
    """Check the partition invariants: pairwise disjointness, exact cover of
    the unit cube, and (when ``spec`` is given) stored J values matching
    recomputation.  Reads the cubes' (level, key) arrays only."""
    out = []
    levels, keys, m = part._arrays
    if not len(levels):
        return ["empty partition"]
    depth = int(levels.max())
    # in depth-first order two cubes overlap only if two neighbours do
    order = _depth_first(levels, keys, m)
    lo, hi = order[:-1], order[1:]
    up = np.flatnonzero(levels[lo] <= levels[hi])
    hit = up[(keys[hi[up]] >> (m * (levels[hi[up]] - levels[lo[up]]))) == keys[lo[up]]]
    if len(hit):
        i, j = (_cubes(int(levels[r]), keys[r:r + 1], m)[0] for r in (lo[hit[0]], hi[hit[0]]))
        out.append(f"cubes overlap (path {tuple(i.selector_path())} is an ancestor of "
                   f"{tuple(j.selector_path())})")
    ls, counts = np.unique(levels, return_counts=True)
    total = Fraction(sum(c << (m * (depth - l)) for l, c in zip(ls.tolist(), counts.tolist())),
                     1 << (m * depth))
    if total != 1:
        out.append(f"volumes sum to {total}, not 1: the cubes do not tile the unit cube")
    if spec is not None:
        if m != spec.dim:
            raise ValueError(f"cube dimension {m} != measure dimension {spec.dim}")
        again = _key_j(spec, levels, keys, part.a)
        bad = np.flatnonzero(np.abs(again - part.j_values) > atol * np.maximum(1.0, np.abs(again)))
        if len(bad):
            r = int(bad[0])
            cube = _cubes(int(levels[r]), keys[r:r + 1], m)[0]
            out.append(f"stored J for cube {cube} is {part.j_values[r]!r}, "
                       f"recomputed {float(again[r])!r}")
    return out


# ---------------------------------------------------------------------------
# The adaptive family: one walk, one sorted multiset of J values
# ---------------------------------------------------------------------------

class _Level(NamedTuple):
    """The cubes of one level that a walk visited, in key order."""

    level: int
    keys: np.ndarray
    masses: np.ndarray
    j: np.ndarray       # J_a
    eff: np.ndarray     # the least J_a on the path from the root to the cube
    parent: np.ndarray  # row of the parent in the previous level
    split: np.ndarray   # whether the walk split the cube


def _walk(spec: MeasureSpec, a: float, cut: float, max_depth: int,
          top: int = 0) -> tuple[list[_Level], float]:
    """The one engine walk behind the adaptive family.

    Visits the root and the children of every cube it splits, one level at a
    time, and splits the cubes whose effective weight (the least J_a on the
    path from the root) is >= the cut and that lie above ``max_depth``.
    When no child outweighs its parent, as the masses of every family
    guarantee, the effective weight is J_a itself.  With ``top`` > 0 the cut
    rises to the top-th largest effective weight met so far, ties included:
    a cube below it cannot be among the ``top`` heaviest, nor can its
    descendants.  Returns the visited levels and the final cut."""
    _checks.real("a", a)
    _checks.real("t", cut)
    _checks.count("max_depth", max_depth, least=0)
    m = spec.dim
    eng = _engine(spec)
    fr = eng.root()
    parent, above = np.zeros(1, dtype=np.intp), np.array([np.inf])
    best = np.zeros(0)
    levels = []
    while True:
        level = fr.level
        j = 2.0 ** (-level * m * a) * fr.masses
        eff = np.minimum(j, above[parent])
        if top:
            best = np.concatenate((best, eff[eff >= cut]))
            if len(best) >= top:
                cut = float(np.partition(best, len(best) - top)[len(best) - top])
                best = best[best >= cut]
        split = eff >= cut
        levels.append(_Level(level, fr.keys, fr.masses, j, eff, parent, split))
        if level >= max_depth or not split.any():
            return levels, cut
        rows = np.flatnonzero(split)
        parents = eng.take(fr, split)
        fr = eng.expand(parents)
        parent, above = rows[np.searchsorted(parents.keys, fr.keys >> m)], eff


def _check_depth(levels: list[_Level], m: int, thresholds: Sequence[float]) -> None:
    """Raise if a walk stopped at max_depth with cubes left that are bad at
    one of ``thresholds`` (effective weight >= t): for the first such t,
    name the first such cube in depth-first order."""
    last = levels[-1]
    if last.split.any():
        for t in thresholds:
            bad = last.eff >= t
            if bad.any():
                i = int(np.argmax(bad))
                raise MaxDepthExceeded(_cubes(last.level, last.keys[i:i + 1], m)[0],
                                       float(last.j[i]), t)


def _bad_weights(spec: MeasureSpec, a: float, thresholds: Sequence[float],
                 max_depth: int) -> np.ndarray:
    """The sorted effective weights of the cubes that are bad at the least of
    ``thresholds`` (a multiset: #{w >= t} of them are bad at t)."""
    levels, _ = _walk(spec, a, min(thresholds), max_depth)
    _check_depth(levels, spec.dim, thresholds)
    return np.sort(np.concatenate([lv.eff[lv.split] for lv in levels]))


def _cards(bad: np.ndarray, thresholds, m: int) -> np.ndarray:
    """card(t) = 1 + (2^m - 1) #{bad weights >= t}: bad cubes form an
    ancestor-closed set, and splitting one adds 2^m - 1 cubes."""
    return 1 + ((1 << m) - 1) * (len(bad) - np.searchsorted(bad, thresholds))


def adaptive_partition(spec: MeasureSpec, a: float, t: float,
                       max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    """Coarsest dyadic partition with J_a < t on every cube.

    Every emitted cube is good, and every emitted cube other than the unit
    cube has a bad parent; by that characterisation the result has minimal
    cardinality among dyadic partitions meeting the threshold.  Terminates
    because J_a(cube) <= 2^(-level*m*a) -> 0; ``max_depth`` only guards
    against inconsistent inputs.  The cubes stay (level, key) arrays until
    ``cubes`` is read.
    """
    levels, _ = _walk(spec, a, t, max_depth)
    return _leaves(levels, spec.dim, a, t)


def _leaves(levels: list[_Level], m: int, a: float, t: float) -> Partition:
    """The adaptive partition at threshold t, in depth-first order: the cubes
    the walk at t leaves unsplit and the empty children of the ones it
    splits.  ``levels`` may come from any walk that split every cube of
    effective weight >= t above max_depth (the walk at t, or the profile's):
    no effective weight exceeds its parent's, so these are the cubes the
    walk at t splits.  Raises if ``levels`` stopped at max_depth with such a
    cube left, naming the first in key order."""
    _check_depth(levels, m, [t])
    leaves = []
    visit = np.ones(1, dtype=bool)  # which cubes of the level the walk at t visits
    for lv, below in zip(levels, levels[1:] + [None]):
        split = lv.eff >= t
        good = visit & ~split
        leaves.append((np.full(good.sum(), lv.level), lv.keys[good], lv.masses[good], lv.j[good]))
        if not split.any():  # the walk at t ends here
            break
        visit = split[below.parent]
        # children that hold no branch have mass 0, so they are good at once
        zero = _empty_children(lv.keys[split], below.keys[visit], lv.level, m)
        leaves.append((np.full(len(zero), lv.level + 1), zero, np.zeros(len(zero)),
                       np.zeros(len(zero))))
    level, keys, masses, j = (np.concatenate(col) for col in zip(*leaves))
    order = _depth_first(level, keys, m)
    return Partition(cubes=_CubeKeys(level[order], keys[order], m), masses=masses[order],
                     j_values=j[order], a=float(a), threshold=float(t))


def counting_N(spec: MeasureSpec, a: float, t: float,
               max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """Minimal cardinality of a dyadic partition with max J_a < 1/t (the
    cardinality of the adaptive partition at threshold 1/t); an upper bound
    for the unconstrained partition problem over arbitrary subcubes."""
    _checks.real("t", t)
    threshold = 1.0 / t
    return int(_cards(_bad_weights(spec, a, [threshold], max_depth), threshold, spec.dim))


# ---------------------------------------------------------------------------
# Refinement profile (all adaptive partitions from one sorted multiset)
# ---------------------------------------------------------------------------

class _Tree(NamedTuple):
    """The cubes a walk visited, all levels in one row space."""

    level: np.ndarray
    key: np.ndarray
    eff: np.ndarray
    tie: np.ndarray     # how many ancestors in a row share the cube's eff


def _tree(levels: list[_Level]) -> _Tree:
    """The levels of a walk as one :class:`_Tree`."""
    ties = [np.zeros(1, dtype=np.intp)]
    for up, lv in zip(levels, levels[1:]):
        ties.append(np.where(lv.eff == up.eff[lv.parent], ties[-1][lv.parent] + 1, 0))
    return _Tree(np.concatenate([np.full(len(lv.keys), lv.level) for lv in levels]),
                 np.concatenate([lv.keys for lv in levels]),
                 np.concatenate([lv.eff for lv in levels]),
                 np.concatenate(ties))


def refinement_profile(spec: MeasureSpec, a: float, budget_cap: int,
                       max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """States (cardinality, max J_a) of the adaptive family, coarse to fine.

    Each state splits every cube tied at the current largest J_a; it equals
    the adaptive partition for thresholds t in (next max, current max].
    Stops once the cardinality exceeds ``budget_cap`` or everything
    remaining is zero-weight.

    Bad cubes form an ancestor-closed set (J_a of a child never exceeds its
    parent's), so state k has cardinality 1 + (2^m - 1) * #{cubes split
    before it}, and the states are read off one sorted array: one walk keeps
    the K = floor((budget_cap - 1) / (2^m - 1)) + 1 largest J_a values,
    ties included, and records the largest one it pruned, which is the max
    J_a of the state after them.  A cube whose J_a equals its parent's is
    split one state after it.  Sorting costs O(K log K) on top of a walk over
    those cubes and their children.

    A profile that splits every positive cube ends on the row max J_a = 0.0.
    If a state within ``budget_cap`` would split a cube at ``max_depth``,
    raises :class:`MaxDepthExceeded` naming the first such cube of that
    state in depth-first (key) order.
    """
    _checks.count("budget_cap", budget_cap, what=_BUDGET)
    return _profile(spec, a, budget_cap, max_depth)[0]


def _profile(spec: MeasureSpec, a: float, budget_cap: int,
             max_depth: int) -> tuple[np.ndarray, list[_Level]]:
    """The states of :func:`refinement_profile` and the levels of its walk."""
    m = spec.dim
    k = (1 << m) - 1
    levels, cut = _walk(spec, a, _TINY, max_depth, top=(budget_cap - 1) // k + 1)
    tree = _tree(levels)
    split = np.flatnonzero(tree.eff >= cut)
    split = split[np.lexsort((tree.tie[split], -tree.eff[split]))]
    eff, tie = tree.eff[split], tree.tie[split]
    first = np.ones(len(split), dtype=bool)
    first[1:] = (eff[1:] != eff[:-1]) | (tie[1:] != tie[:-1])
    starts = np.flatnonzero(first)
    cards = 1 + k * starts
    over = np.flatnonzero(cards > budget_cap)
    stop = int(over[0]) + 1 if len(over) else len(starts)
    deep = np.flatnonzero(tree.level[split] >= max_depth)
    if len(deep):
        g = int(np.searchsorted(starts, deep[0], side="right")) - 1
        if cards[g] <= budget_cap:  # the family splits a cube at max_depth
            end = starts[g + 1] if g + 1 < len(starts) else len(split)
            rows = split[starts[g]:end]  # in key order within each level
            i = rows[tree.level[rows] >= max_depth][0]
            raise MaxDepthExceeded(_cubes(max_depth, tree.key[i:i + 1], m)[0],
                                   float(eff[starts[g]]), 0.0)
    states = np.column_stack((cards[:stop], eff[starts[:stop]])).astype(float)
    if len(over):
        return states, levels
    pruned = tree.eff[tree.eff < cut]
    j_next = float(pruned.max()) if len(pruned) else 0.0
    return np.vstack((states, [[1 + k * len(split), j_next]])), levels


def budget_partition(spec: MeasureSpec, a: float, budget: int,
                     max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    """The adaptive-family partition of largest cardinality <= budget (the
    one whose max J_a realises gamma_hat(budget))."""
    _checks.count("budget", budget, what=_BUDGET)
    states, levels = _profile(spec, a, budget, max_depth)
    j_top = states[int(np.searchsorted(states[:, 0], budget, side="right")) - 1, 1]
    # every cube of that state has J_a <= j_top, so the threshold just above
    # j_top reproduces it exactly; the profile's walk split every cube of
    # effective weight > j_top (it splits down to a cut <= j_top, or
    # everything above the largest weight it pruned, j_top itself), so the
    # threshold walk is a part of it
    t = float(np.nextafter(j_top, np.inf))
    return _leaves(levels, spec.dim, a, t)


def gamma_adaptive_profile(spec: MeasureSpec, a: float, budgets: Sequence[int],
                           max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """Upper bounds gamma_hat(n) on the optimal max J_a for each cube budget
    n, from the adaptive family (the best adaptive state of cardinality <= n)."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("budgets must not be empty")
    for n in budgets:
        _checks.count("budgets", n, what=_BUDGET)
    states = refinement_profile(spec, a, max(budgets), max_depth=max_depth)
    # state 0 has cardinality 1, so every budget >= 1 has a state
    return states[np.searchsorted(states[:, 0], budgets, side="right") - 1, 1]


# ---------------------------------------------------------------------------
# Exact dyadic oracle (dynamic programming over the subdivision tree)
# ---------------------------------------------------------------------------

def gamma_dyadic_vector(spec: MeasureSpec, a: float, k_max: int,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """vector v with v[k] = exact min over partitions of the unit cube into at
    most k dyadic cubes of depth <= max_depth of the max J_a, for k = 1..k_max
    (v[0] = inf).  ``max_depth`` binds on every family.

    The vector folds the tree of one walk (:func:`_fold`, one sort of all
    the children's entries per split cube): the walk of
    :func:`refinement_profile` that splits the K = floor((k_max - 1) /
    (2^m - 1)) + 1 largest effective weights, down to its final ``cut``.  It
    is accepted when v[k_max] >= cut; otherwise the cut is halved and the
    tree of the plain threshold walk at that cut is folded, until the
    certificate holds or the cut is the least positive float, where the walk
    splits every cube of positive J_a above ``max_depth``.

    Why v[k_max] >= cut certifies the whole vector.  The walk splits every
    cube above max_depth whose path from the root (the cube included) has
    J_a >= cut, so the fold is the exact optimum over a family of partitions
    that holds every partition whose split cubes all have such paths, and v
    >= the true optimum v*.  Suppose v*[k_max] < cut, and take
    an optimal partition for k_max.  Coarsening it at every split cube with
    J_a < cut (replacing the cube's descendants by the cube) keeps its max
    below cut and uses no more cubes, and every split cube of the result has
    a path of J_a >= cut: the fold reaches it, and v[k_max] < cut.  So
    v[k_max] >= cut gives v*[k] >= v*[k_max] >= cut for every k <= k_max, and
    coarsening an optimal partition for k at its split cubes with J_a <=
    v*[k] gives one the fold reaches with the same max: v[k] = v*[k].  The
    argument needs neither monotone J_a nor the adaptive tie rule; those only
    make the first walk's certificate hold, so that one walk is enough."""
    _checks.count("k_max", k_max, what=_BUDGET)
    m = spec.dim
    levels, cut = _walk(spec, a, _TINY, max_depth, top=(k_max - 1) // ((1 << m) - 1) + 1)
    while True:
        v = _fold(levels, m, k_max + 1)
        if v[k_max] >= cut or cut == _TINY:
            return v
        cut = max(0.5 * cut, _TINY)
        levels, _ = _walk(spec, a, cut, max_depth)


def _fold(levels: list[_Level], m: int, size: int) -> np.ndarray:
    """The oracle vector (length ``size``) over the partitions into cubes of
    the tree a walk visited and the empty children of the cubes it split.

    Bottom-up, each cube gets its vector X from index 1 on (X[k]: the least
    max J_a with k cubes), non-increasing and cut at its subtree's leaf count
    (constant beyond) or at ``size - 1`` entries: [J_a] if the walk left it
    unsplit, [0.0] if empty, else one merge of its g = 2^m children's
    vectors (:func:`_merge`), capped by its own J_a.  Take T >= every
    child's last entry: child X reaches max <= T with 1 + #{entries of X
    above T} cubes, so k cubes reach max <= T exactly when g + #{entries
    above T} <= k.  For k >= g the least such T is the (k - g)-th largest
    entry (from 0) raised to the largest last entry: one sort, and every
    output is an entry or J_a.  With N entries in all, k = N reaches that
    last entry, so the merge has N entries too."""
    lead, cap = np.full((1 << m) - 1, np.inf), size - 1
    ends = levels[-1].j.tolist()  # the walk stopped at its last level: leaves only
    below = [np.array([j]) for j in ends]
    for lv, down in zip(levels[-2::-1], levels[:0:-1]):
        # the children of row i are rows kids[i]:kids[i + 1] of the level below
        kids = np.searchsorted(down.parent, np.arange(len(lv.j) + 1)).tolist()
        here, last = [], []
        for j, split, lo, hi in zip(lv.j.tolist(), lv.split.tolist(), kids, kids[1:]):
            vec, end = (_merge(below[lo:hi], ends[lo:hi], j, lead, cap) if split
                        else (np.array([j]), j))
            here.append(vec)
            last.append(end)
        below, ends = here, last
    v = np.full(size, ends[0])
    v[0] = np.inf
    v[1:1 + len(below[0])] = below[0]
    return v


def _merge(kids: list[np.ndarray], ends: list[float], j: float, lead: np.ndarray,
           cap: int) -> tuple[np.ndarray, float]:
    """One split cube of :func:`_fold`: its vector (at most ``cap`` entries)
    and last entry, from its weight ``j``, the vectors ``kids`` of its
    nonempty children and their last entries ``ends``; ``lead`` holds g - 1
    inf, which sort first and stand for the budgets below g."""
    g = len(lead) + 1
    merged = np.concatenate(kids + [_ZERO] * (g - len(kids)) + [lead])
    merged[::-1].sort()  # descending, the g - 1 inf first
    t0 = max(ends) if ends else 0.0
    n = len(merged) - g + 1  # the N entries
    vec = merged[:min(n, cap)]
    np.maximum(vec, t0, out=vec)
    np.minimum(vec, j, out=vec)
    return vec, (min(t0, j) if n <= cap else float(vec[-1]))


def gamma_dyadic_oracle(spec: MeasureSpec, a: float, n_cells: int,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Exact minimum of max J_a over partitions into <= n_cells dyadic cubes
    of depth <= max_depth.  Serves as the independent oracle for the
    adaptive partitions and as an upper bound for the optimisation over
    arbitrary axis-aligned subcubes."""
    _checks.count("n_cells", n_cells, what=_BUDGET)
    return float(gamma_dyadic_vector(spec, a, n_cells, max_depth)[n_cells])


def minimal_dyadic_cardinality(spec: MeasureSpec, a: float, t: float,
                               k_cap: int, max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """Smallest k with an exact dyadic partition of max J_a < t, searched up
    to k_cap; raises if no budget up to k_cap is feasible."""
    _checks.count("k_cap", k_cap, what=_BUDGET)
    v = gamma_dyadic_vector(spec, a, k_cap, max_depth)
    feasible = np.nonzero(v < t)[0]
    if len(feasible) == 0:
        raise ValueError(f"no dyadic partition with max J_a < {t} within {k_cap} cubes")
    return int(feasible[0])


# ---------------------------------------------------------------------------
# Partition entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyFit:
    """Least-squares growth exponent of the minimal partition cardinality.

    ``cards[i]`` is the cardinality of the adaptive partition at threshold
    1/t_grid[i]; ``slope`` fits log(card) against log(t) over the tail half
    of the grid (index >= tail_start).  r_squared and the residual spread
    qualify the fit; there is no convergence guarantee to quote.
    """

    a: float
    t_grid: np.ndarray
    cards: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    tail_start: int


def entropy_estimate(spec: MeasureSpec, a: float, t_grid: Sequence[float],
                     max_depth: int = DEFAULT_MAX_DEPTH) -> EntropyFit:
    """Fit the partition-entropy exponent over a geometric grid of t values
    (increasing t means shrinking threshold 1/t).

    One walk collects the J_a values of the cubes that are bad at the least
    threshold 1/t_max and sorts them; every cardinality is then card(1/t) =
    1 + (2^m - 1) #{J_a >= 1/t}, a binary search, so the fit costs about one
    adaptive partition at 1/t_max instead of one per grid point."""
    t = np.asarray(list(t_grid), dtype=float)
    if len(t) < 4 or not np.all(np.isfinite(t)) or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("degenerate grid: need >= 4 strictly increasing positive finite t values")
    # one walk to the least threshold; every card reads the same sorted weights
    thresholds = 1.0 / t
    bad = _bad_weights(spec, a, thresholds.tolist(), max_depth)
    cards = _cards(bad, thresholds, spec.dim).astype(float)
    tail = len(t) // 2
    x = np.log(t[tail:])
    y = np.log(cards[tail:])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return EntropyFit(
        a=float(a),
        t_grid=t,
        cards=cards,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        tail_start=tail,
    )
