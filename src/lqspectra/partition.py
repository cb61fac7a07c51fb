"""Adaptive dyadic partitions, the exact small-budget oracle, and partition entropy.

Every cube Q carries the weight J_a(Q) = vol(Q)^a * nu(Q).  The adaptive
algorithm calls a cube *bad* when J_a >= t and *good* otherwise; bad cubes
are split into their 2^m children until only good cubes remain, which
yields the coarsest dyadic partition whose cubes all satisfy J_a < t.
Zero-mass cubes have J_a = 0 and are emitted immediately, so partitions
always cover the whole unit cube while positive-mass enumeration stays
pruned.

Two independent routes to the same optimisation are provided:

* :func:`refinement_profile` runs the adaptive family greedily (always
  splitting the cubes of largest J_a) and records every (cardinality,
  max J_a) state, giving upper bounds gamma_hat(n) for all budgets at once;
* :func:`gamma_dyadic_oracle` computes the exact minimum of max J_a over
  all partitions into at most n dyadic cubes of bounded depth by dynamic
  programming over the subdivision tree.  Each subtree's optimum is a
  non-increasing vector over budgets, so two subtrees combine by merging
  their breakpoint lists (one sort) instead of a quadratic min-max
  convolution; measures made of ratio-1/2 copies of themselves take one
  budget-indexed recursion over the known prefix instead of the tree.  It is
  the test oracle for the minimality of the adaptive partitions.

The partition entropy h_a is estimated as the log-log slope of the
cardinality of the threshold-1/t partition against t over the tail half of
a geometric t-grid; no extrapolation beyond the sampled range is attempted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measures import (
    DyadicCube,
    MeasureSpec,
    ensure_valid,
    _child_rows,
    _cube_masses,
    _cubes,
    _depth_first,
    _empty_children,
    _engine,
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


class MaxDepthExceeded(RuntimeError):
    """A bad cube reached the depth guard; carries the offending cube."""

    def __init__(self, cube: DyadicCube, j_value: float, threshold: float):
        self.cube = cube
        self.j_value = j_value
        self.threshold = threshold
        super().__init__(
            f"bad cube at depth {cube.level} (J_a = {j_value!r} >= t = {threshold!r}); "
            "raise max_depth or loosen the threshold"
        )


def j_weight(spec: MeasureSpec, cube: DyadicCube, a: float) -> float:
    """J_a(cube) = vol(cube)^a * nu(cube)."""
    return float(_j_weights(spec, [cube], a)[0])


def _j_weights(spec: MeasureSpec, cubes: Sequence[DyadicCube], a: float) -> np.ndarray:
    """J_a of each of ``cubes``, from one engine walk for all of them."""
    if a <= 0:
        raise ValueError("a must be > 0")
    vols = np.array([2.0 ** (-cube.level * cube.dim * a) for cube in cubes])
    return vols * _cube_masses(spec, cubes)


@dataclass(eq=False)
class Partition:
    """Finite set of disjoint dyadic cubes covering the unit cube.

    Attributes
    ----------
    cubes : list[DyadicCube]
    masses, j_values : np.ndarray
        Per-cube nu-mass and J_a weight, aligned with ``cubes``.
    a : float
        Weight exponent used.
    threshold : float or None
        The t the adaptive algorithm was run with, if any.
    """

    cubes: list[DyadicCube]
    masses: np.ndarray
    j_values: np.ndarray
    a: float
    threshold: float | None = None

    @property
    def cardinality(self) -> int:
        return len(self.cubes)

    @property
    def max_j(self) -> float:
        return float(self.j_values.max()) if len(self.cubes) else 0.0

    @property
    def max_level(self) -> int:
        return max(c.level for c in self.cubes)

    def level_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for c in self.cubes:
            hist[c.level] = hist.get(c.level, 0) + 1
        return dict(sorted(hist.items()))

    def to_records(self) -> list[dict]:
        """JSON-ready dump: one {level, index, mass, J} object per cube."""
        return [
            {"level": c.level, "index": list(c.index), "mass": float(m), "J": float(j)}
            for c, m, j in zip(self.cubes, self.masses, self.j_values)
        ]


def partition_violations(part: Partition, spec: MeasureSpec | None = None,
                         atol: float = 1e-9) -> list[str]:
    """Check the partition invariants: pairwise disjointness, exact cover of
    the unit cube, and (when ``spec`` is given) stored J values matching
    recomputation."""
    out = []
    if not part.cubes:
        return ["empty partition"]
    m = part.cubes[0].dim
    paths = sorted(tuple(c.selector_path()) for c in part.cubes)
    for p1, p2 in zip(paths, paths[1:]):
        if p2[: len(p1)] == p1:
            out.append(f"cubes overlap (path {p1} is an ancestor of {p2})")
            break
    total = sum(c.volume_fraction() for c in part.cubes)
    if total != 1:
        out.append(f"volumes sum to {total}, not 1: the cubes do not tile the unit cube")
    if spec is not None:
        recomputed = _j_weights(spec, part.cubes, part.a).tolist()
        for c, j, again in zip(part.cubes, part.j_values, recomputed):
            if abs(again - j) > atol * max(1.0, abs(again)):
                out.append(f"stored J for cube {c} is {j!r}, recomputed {again!r}")
                break
    return out


# ---------------------------------------------------------------------------
# Adaptive threshold partitions
# ---------------------------------------------------------------------------

def _scan(spec: MeasureSpec, a: float, t: float, max_depth: int) -> list[tuple]:
    """Shared level-synchronous walk: emit good cubes (J_a < t), split bad
    ones.  Returns the good cubes as (level, keys, masses, J_a) per level."""
    ensure_valid(spec)
    if a <= 0:
        raise ValueError("a must be > 0")
    if not (t > 0):
        raise ValueError("threshold t must be > 0")
    m = spec.dim
    eng = _engine(spec)
    fr = eng.root()
    leaves = []
    while True:
        level = fr.level
        jvals = 2.0 ** (-level * m * a) * fr.masses
        good = jvals < t
        leaves.append((level, fr.keys[good], fr.masses[good], jvals[good]))
        if good.all():
            return leaves
        if level >= max_depth:
            i = int(np.argmin(good))  # the first bad cube in depth-first order
            raise MaxDepthExceeded(_cubes(level, fr.keys[i:i + 1], m)[0], float(jvals[i]), t)
        parents = eng.take([fr], [~good])
        fr = eng.expand(parents)
        # children that hold no branch have mass 0, so they are good at once
        zero = _empty_children(parents.keys, fr.keys, level, m)
        leaves.append((level + 1, zero, np.zeros(len(zero)), np.zeros(len(zero))))


def adaptive_partition(spec: MeasureSpec, a: float, t: float,
                       max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    """Coarsest dyadic partition with J_a < t on every cube.

    Every emitted cube is good, and every emitted cube other than the unit
    cube has a bad parent; by that characterisation the result has minimal
    cardinality among dyadic partitions meeting the threshold.  Terminates
    because J_a(cube) <= 2^(-level*m*a) -> 0; ``max_depth`` only guards
    against inconsistent inputs.
    """
    leaves = _scan(spec, a, t, max_depth)
    m = spec.dim
    order = _depth_first([(level, keys) for level, keys, _, _ in leaves], m)
    cubes = [c for level, keys, _, _ in leaves for c in _cubes(level, keys, m)]
    return Partition(
        cubes=[cubes[i] for i in order.tolist()],
        masses=np.concatenate([leaf[2] for leaf in leaves])[order],
        j_values=np.concatenate([leaf[3] for leaf in leaves])[order],
        a=float(a),
        threshold=float(t),
    )


def counting_N(spec: MeasureSpec, a: float, t: float,
               max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """Minimal cardinality of a dyadic partition with max J_a < 1/t (the
    cardinality of the adaptive partition at threshold 1/t); an upper bound
    for the unconstrained partition problem over arbitrary subcubes."""
    if not (t > 0):
        raise ValueError("t must be > 0")
    return sum(len(keys) for _, keys, _, _ in _scan(spec, a, 1.0 / t, max_depth))


# ---------------------------------------------------------------------------
# Greedy refinement profile (all adaptive partitions in one sweep)
# ---------------------------------------------------------------------------

def refinement_profile(spec: MeasureSpec, a: float, budget_cap: int,
                       max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """States (cardinality, max J_a) of the adaptive family, coarse to fine.

    Repeatedly splits every cube tied at the current largest J_a; each
    recorded state equals the adaptive partition for thresholds t in
    (next max, current max].  Stops once the cardinality exceeds
    ``budget_cap`` or everything remaining is zero-weight.
    """
    ensure_valid(spec)
    if a <= 0:
        raise ValueError("a must be > 0")
    if budget_cap < 1:
        raise ValueError("budget_cap must be >= 1")
    m = spec.dim
    nkids = 1 << m
    eng = _engine(spec)
    pools = [eng.root()]  # the root, then the children of each split group
    heap = [(-float(pools[0].masses[0]), 0, 0, 0)]  # (-J, counter, pool, row)
    counter = 1
    states = []
    while heap:
        j_top = -heap[0][0]
        card = len(heap)
        states.append((card, j_top))
        if card > budget_cap or j_top <= 0.0:
            break
        batch = []
        while heap and -heap[0][0] == j_top:
            batch.append(heapq.heappop(heap))
        for _, _, pool, row in batch:
            if pools[pool].level >= max_depth:
                cube = _cubes(pools[pool].level, pools[pool].keys[row:row + 1], m)[0]
                raise MaxDepthExceeded(cube, j_top, 0.0)
        # children take the heap counters in batch order, then selector order;
        # the cubes of one level are gathered from their pools and split at
        # once, and their children form a new pool
        first, groups = {}, {}
        for i, (_, _, pool, row) in enumerate(batch):
            first[pool, row] = counter + nkids * i
            groups.setdefault(pools[pool].level, {}).setdefault(pool, []).append(row)
        counter += nkids * len(batch)
        for group in groups.values():
            masks = [np.zeros(len(pools[pool].keys), dtype=bool) for pool in group]
            for mask, rows in zip(masks, group.values()):
                mask[rows] = True
            parents = eng.take([pools[pool] for pool in group], masks)
            kids = eng.expand(parents)
            pools.append(kids)
            counters = np.array([first[pool, row] for pool, mask in zip(group, masks)
                                 for row in np.flatnonzero(mask).tolist()])
            counters = counters[:, None] + np.arange(nkids)
            slot = _child_rows(parents.keys, kids.keys, m)
            jvals = 2.0 ** (-kids.level * m * a) * kids.masses
            for row, (c, j) in enumerate(zip(counters[slot].tolist(), jvals.tolist())):
                heapq.heappush(heap, (-j, c, len(pools) - 1, row))
            counters[slot] = -1
            for c in counters[counters >= 0].tolist():  # children without a branch
                heapq.heappush(heap, (0.0, c, -1, -1))
    return np.asarray(states, dtype=float)


def budget_partition(spec: MeasureSpec, a: float, budget: int,
                     max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    """The adaptive-family partition of largest cardinality <= budget (the
    one whose max J_a realises gamma_hat(budget))."""
    states = refinement_profile(spec, a, int(budget), max_depth=max_depth)
    cards = states[:, 0]
    k = int(np.searchsorted(cards, budget, side="right")) - 1
    if k < 0:
        raise ValueError(f"budget {budget} below the coarsest state")
    j_top = states[k, 1]
    # every cube of that state has J_a <= j_top, so the threshold just above
    # j_top reproduces it exactly
    return adaptive_partition(spec, a, float(np.nextafter(j_top, np.inf)),
                              max_depth=max_depth)


def gamma_adaptive_profile(spec: MeasureSpec, a: float, budgets: Sequence[int],
                           max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """Upper bounds gamma_hat(n) on the optimal max J_a for each cube budget
    n, from the adaptive family (the best adaptive state of cardinality <= n)."""
    budgets = [int(n) for n in budgets]
    if any(n < 1 for n in budgets):
        raise ValueError("budgets must be >= 1")
    states = refinement_profile(spec, a, max(budgets), max_depth=max_depth)
    cards = states[:, 0]
    out = []
    for n in budgets:
        k = int(np.searchsorted(cards, n, side="right")) - 1
        if k < 0:
            raise ValueError(f"budget {n} below the coarsest state")
        out.append(states[k, 1])
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Exact dyadic oracle (dynamic programming over the subdivision tree)
# ---------------------------------------------------------------------------

def _minmax_fold(A: np.ndarray, B: np.ndarray, size: int) -> np.ndarray:
    """out[k] = min over i+j=k (i, j >= 1) of max(A[i], B[j]) for k < size,
    inf where no such pair exists.  A[1:] and B[1:] must be non-increasing.

    For such inputs out[k] = min{T : c_A(T) + c_B(T) <= k} over the values
    T of A and B with T >= max(min A, min B), where
    c_X(T) = min{i >= 1 : X[i] <= T} = 1 + #{i : X[i] > T}.  So
    c_A(T) + c_B(T) = 2 + #{values of A and B above T}, and the least such T
    is the (k-1)-th largest value of the merged breakpoint lists, raised to
    max(min A, min B): one sort, and every output is an element of A or B."""
    a, b = A[1:], B[1:]
    out = np.full(size, np.inf)
    n = min(size, len(a) + len(b) + 1)
    if len(a) and len(b) and n > 2:
        merged = np.sort(np.concatenate((a, b)))[::-1]
        out[2:n] = np.maximum(merged[:n - 2], max(a[-1], b[-1]))
    return out


def _selfsimilar_gamma_vector(weights: Sequence[float], m: int, a: float,
                              k_max: int) -> np.ndarray:
    """Exact oracle vector for measures whose every positive cube carries a
    full rescaled copy of the measure (ratio-1/2 dyadic IFS, Lebesgue):
    v(subtree)[k] = mass * vol^a * V[k] with one budget-indexed recursion
    V[k] = min(1, best split of k-zeros among the child copies scaled by
    p_i 2^(-ma)).  No depth cap is needed; the recursion is well founded in k:
    each copy gets at most k - 2^m + 1 cubes, so V[k] reads only the prefix
    V[:k], which is already non-increasing."""
    size = k_max + 1
    nz = len(weights)
    zeros = (1 << m) - nz
    scale = np.asarray(weights, dtype=float) * 2.0 ** (-m * a)
    V = np.full(size, np.inf)
    if size > 1:
        V[1] = 1.0
    for k in range(2, size):
        idx = k - zeros
        if idx < 1:
            V[k] = 1.0
            continue
        F = scale[0] * V[:k]
        for i in range(1, nz):
            F = _minmax_fold(F, scale[i] * V[:k], idx + 1)
        V[k] = min(1.0, F[idx])
    return V


def gamma_dyadic_vector(spec: MeasureSpec, a: float, k_max: int,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """vector v with v[k] = exact min over partitions of the unit cube into at
    most k dyadic cubes of depth <= max_depth of the max J_a, for k = 1..k_max
    (v[0] = inf).

    A cube's vector is the smaller of its own J_a (one cube) and the fold of
    its children's vectors, shifted by one cube for each zero-mass child.
    These vectors are non-increasing in k, so each fold is the breakpoint
    merge of :func:`_minmax_fold`: one sort of the two vectors' values,
    O(k_max log k_max), and bit-equal to the pairwise min-max.  The subtree
    walk splits every cube of a level or none, down to max_depth or to the
    level L where k_max - L*(2^m - 1) cubes no longer allow a split, and
    folds at every positive cube on the way: on a full-support measure that
    is exponential in that depth.  Lebesgue and dyadic IFS with all ratios
    1/2 dispatch to an exact budget-indexed recursion instead, which folds
    the known prefix of one vector once per budget (O(k_max^2 log k_max) in
    all) and for which max_depth never binds."""
    ensure_valid(spec)
    if a <= 0:
        raise ValueError("a must be > 0")
    if k_max < 1:
        raise ValueError("infeasible budget: k_max must be >= 1")
    m = spec.dim
    from .measures import DyadicIFS, Lebesgue  # local to avoid cycle clutter

    if isinstance(spec, Lebesgue):
        return _selfsimilar_gamma_vector([2.0 ** (-m)] * (1 << m), m, a, k_max)
    if isinstance(spec, DyadicIFS) and all(mp.ratio_log2 == 1 for mp in spec.maps):
        return _selfsimilar_gamma_vector(list(spec.weights), m, a, k_max)
    nkids = 1 << m
    size = k_max + 1
    # the subtree walk splits every cube of a level or none: a cube at level
    # L is handed k_max - L * (2^m - 1) usable cubes
    eng = _engine(spec)
    tree = [eng.root()]
    usable = k_max
    while usable >= nkids and tree[-1].level < max_depth:
        tree.append(eng.expand(tree[-1]))
        usable -= nkids - 1
    # the children of row i of tree[L] are rows kids[L][i]:kids[L][i + 1] of tree[L + 1]
    kids = [np.searchsorted(_child_rows(up.keys, down.keys, m)[0], np.arange(len(up.keys) + 1))
            for up, down in zip(tree, tree[1:])]

    def vec(level, row):
        out = np.full(size, 2.0 ** (-level * m * a) * tree[level].masses[row])
        out[0] = np.inf
        if level + 1 < len(tree):
            lo, hi = int(kids[level][row]), int(kids[level][row + 1])
            if hi > lo:
                acc = vec(level + 1, lo)
                for r in range(lo + 1, hi):
                    acc = _minmax_fold(acc, vec(level + 1, r), size)
            else:
                # a positive mass whose children all round to 0 (a subnormal
                # mass, for instance): the shift below makes every k >= 2^m
                # cost nothing
                acc = np.zeros(size)
            zeros = nkids - (hi - lo)
            if zeros:
                shifted = np.full(size, np.inf)
                shifted[zeros:] = acc[: size - zeros]
                acc = shifted
            out = np.minimum(out, acc)
        return out

    return vec(0, 0)


def gamma_dyadic_oracle(spec: MeasureSpec, a: float, n_cells: int,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Exact minimum of max J_a over partitions into <= n_cells dyadic cubes
    of depth <= max_depth.  Serves as the independent oracle for the
    adaptive partitions and as an upper bound for the optimisation over
    arbitrary axis-aligned subcubes."""
    return float(gamma_dyadic_vector(spec, a, n_cells, max_depth)[n_cells])


def minimal_dyadic_cardinality(spec: MeasureSpec, a: float, t: float,
                               k_cap: int, max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """Smallest k with an exact dyadic partition of max J_a < t, searched up
    to k_cap; raises if no budget up to k_cap is feasible."""
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
    (increasing t means shrinking threshold 1/t)."""
    t = np.asarray(list(t_grid), dtype=float)
    if len(t) < 4 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("degenerate grid: need >= 4 strictly increasing positive t values")
    cards = np.array([counting_N(spec, a, float(ti), max_depth) for ti in t], dtype=float)
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
