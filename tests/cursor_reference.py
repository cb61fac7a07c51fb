"""The per-cube cursor descent that computed dyadic cube masses before the
frontier engine, kept unchanged as the reference for the differential tests.

A cursor represents one dyadic cube together with just enough state to give
its nu-mass and to produce the cursors of its 2^m children.  The mass
queries and the partition walks below are the library's former versions,
written on these cursors; ``tests/test_engine.py`` checks that the frontier
engine reproduces them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from lqspectra.measures import (
    Atomic,
    DyadicCube,
    DyadicDensity,
    DyadicIFS,
    GeneralIFS1D,
    Lebesgue,
    MeasureSpec,
    Mixture,
    ensure_valid,
)
from lqspectra.partition import (
    DEFAULT_MAX_DEPTH,
    MaxDepthExceeded,
    Partition,
    _minmax_fold,
    _selfsimilar_gamma_vector,
)


class _Cursor:
    __slots__ = ()

    def mass(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def split(self) -> list["_Cursor | None"]:
        """Children in selector order; ``None`` marks a zero-mass child."""
        raise NotImplementedError  # pragma: no cover


class _LebCursor(_Cursor):
    __slots__ = ("m", "level")

    def __init__(self, m, level=0):
        self.m = m
        self.level = level

    def mass(self):
        return math.ldexp(1.0, -self.level * self.m)

    def split(self):
        child = _LebCursor(self.m, self.level + 1)
        return [child] * (1 << self.m)


class _IfsTables:
    """Precomputed selector paths of the image cubes of a DyadicIFS."""

    __slots__ = ("spec", "paths", "weights", "nmaps")

    def __init__(self, spec: DyadicIFS):
        self.spec = spec
        self.weights = spec.weights
        self.nmaps = len(spec.maps)
        self.paths = [mp.image_cube().selector_path() for mp in spec.maps]


class _IfsCursor(_Cursor):
    """Branch list semantics: ("copy", w) puts a full rescaled copy of the
    measure inside this cube with total mass w; ("img", w, i, d) records
    that the image of map i lies strictly inside this cube (this cube is
    its depth-d ancestor), contributing mass w."""

    __slots__ = ("tab", "branches")

    def __init__(self, tab: _IfsTables, branches):
        self.tab = tab
        self.branches = branches

    def mass(self):
        return math.fsum(br[1] for br in self.branches)

    def split(self):
        tab = self.tab
        buckets: dict[int, list] = {}
        for br in self.branches:
            if br[0] == "copy":
                w = br[1]
                for i in range(tab.nmaps):
                    path = tab.paths[i]
                    wi = w * tab.weights[i]
                    if len(path) == 1:
                        entry = ("copy", wi)
                    else:
                        entry = ("img", wi, i, 1)
                    buckets.setdefault(path[0], []).append(entry)
            else:
                _, w, i, d = br
                path = tab.paths[i]
                if d + 1 == len(path):
                    entry = ("copy", w)
                else:
                    entry = ("img", w, i, d + 1)
                buckets.setdefault(path[d], []).append(entry)
        return [
            _IfsCursor(self.tab, buckets[j]) if j in buckets else None
            for j in range(1 << self.tab.spec.dimension)
        ]


class _Ifs1DCursor(_Cursor):
    __slots__ = ("spec", "lo", "hi", "_mass")

    def __init__(self, spec: GeneralIFS1D, lo: Fraction, hi: Fraction):
        self.spec = spec
        self.lo = lo
        self.hi = hi
        self._mass = None

    def mass(self):
        if self._mass is None:
            self._mass = _ifs1d_interval_mass(self.spec, self.lo, self.hi)
        return self._mass

    def split(self):
        mid = (self.lo + self.hi) / 2
        left = _Ifs1DCursor(self.spec, self.lo, mid)
        right = _Ifs1DCursor(self.spec, mid, self.hi)
        return [c if c.mass() > 0.0 else None for c in (left, right)]


def _ifs1d_interval_mass(spec: GeneralIFS1D, lo: Fraction, hi: Fraction) -> float:
    """nu((lo, hi]) within mass_tol.  Only branches whose image straddles an
    endpoint recurse; each endpoint owns at most one straddling chain, so the
    proportional cut at weight < mass_tol/4 keeps the total error < mass_tol/2."""
    cut = spec.mass_tol / 4.0
    params = [(mp.ratio, mp.offset, p) for mp, p in zip(spec.maps, spec.weights)]

    def rec(a: Fraction, b: Fraction, w: float) -> float:
        if a < 0:
            a = Fraction(0)
        if b > 1:
            b = Fraction(1)
        if b <= a:
            return 0.0
        if a == 0 and b == 1:
            return w
        if w < cut:
            return w * float(b - a)
        total = 0.0
        for r, c, p in params:
            total += rec((a - c) / r, (b - c) / r, w * p)
        return total

    return rec(lo, hi, 1.0)


class _AtomicCursor(_Cursor):
    __slots__ = ("spec", "level", "index", "ids", "_mass")

    def __init__(self, spec: Atomic, level, index, ids):
        self.spec = spec
        self.level = level
        self.index = index
        self.ids = ids
        self._mass = None

    def mass(self):
        if self._mass is None:
            w = self.spec.weights
            self._mass = math.fsum(w[i] for i in self.ids)
        return self._mass

    def split(self):
        m = self.spec.dim
        nxt = self.level + 1
        buckets: dict[int, list] = {}
        for i in self.ids:
            pt = self.spec.points[i]
            sel = 0
            for k in range(m):
                # child bit 0 iff x_k <= (2 l_k + 1) / 2^(n+1), exactly
                x = pt[k]
                if x.numerator * (1 << nxt) > (2 * self.index[k] + 1) * x.denominator:
                    sel |= 1 << k
            buckets.setdefault(sel, []).append(i)
        out = []
        for j in range(1 << m):
            if j in buckets:
                idx = tuple(2 * l + ((j >> k) & 1) for k, l in enumerate(self.index))
                out.append(_AtomicCursor(self.spec, nxt, idx, buckets[j]))
            else:
                out.append(None)
        return out


class _DensityCursor(_Cursor):
    __slots__ = ("spec", "pyramid", "level", "index", "density")

    def __init__(self, spec, pyramid, level, index, density=None):
        self.spec = spec
        self.pyramid = pyramid
        self.level = level
        self.index = index
        self.density = density  # set once level >= depth

    def mass(self):
        if self.level <= self.spec.depth:
            block = self.pyramid[self.level][self.index]
            return float(block) * math.ldexp(1.0, -self.spec.depth * self.spec.dim)
        return self.density * math.ldexp(1.0, -self.level * self.spec.dim)

    def split(self):
        m = self.spec.dim
        out = []
        for j in range(1 << m):
            idx = tuple(2 * l + ((j >> k) & 1) for k, l in enumerate(self.index))
            if self.level + 1 <= self.spec.depth:
                child = _DensityCursor(self.spec, self.pyramid, self.level + 1, idx)
            else:
                dens = self.density
                if dens is None:
                    dens = float(self.spec.values[self.index])
                child = _DensityCursor(self.spec, self.pyramid, self.level + 1, idx, dens)
            out.append(child if child.mass() > 0.0 else None)
        return out


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


class _MixCursor(_Cursor):
    __slots__ = ("dim", "parts")

    def __init__(self, dim, parts):
        self.dim = dim
        self.parts = parts  # list of (coef, cursor)

    def mass(self):
        return math.fsum(c * cur.mass() for c, cur in self.parts)

    def split(self):
        split_parts = [(c, cur.split()) for c, cur in self.parts]
        out = []
        for j in range(1 << self.dim):
            sub = [(c, ch[j]) for c, ch in split_parts if ch[j] is not None]
            out.append(_MixCursor(self.dim, sub) if sub else None)
        return out


def _root_cursor(spec: MeasureSpec) -> _Cursor:
    if isinstance(spec, Lebesgue):
        return _LebCursor(spec.dimension)
    if isinstance(spec, DyadicIFS):
        return _IfsCursor(_IfsTables(spec), [("copy", 1.0)])
    if isinstance(spec, GeneralIFS1D):
        return _Ifs1DCursor(spec, Fraction(0), Fraction(1))
    if isinstance(spec, Atomic):
        return _AtomicCursor(spec, 0, (0,) * spec.dim, list(range(len(spec.points))))
    if isinstance(spec, DyadicDensity):
        return _DensityCursor(spec, _density_pyramid(spec), 0, (0,) * spec.dim)
    if isinstance(spec, Mixture):
        return _MixCursor(spec.dim, [(c, _root_cursor(s)) for c, s in spec.components if c > 0.0])
    raise TypeError(f"unknown measure spec {type(spec).__name__}")


def cube_mass(spec: MeasureSpec, cube: DyadicCube) -> float:
    """nu(cube).

    Exact (a finite sum of weight products) for Lebesgue, DyadicIFS, Atomic,
    DyadicDensity and mixtures thereof; within ``mass_tol`` for GeneralIFS1D.
    """
    ensure_valid(spec)
    if cube.dim != spec.dim:
        raise ValueError(f"cube dimension {cube.dim} != measure dimension {spec.dim}")
    cur: _Cursor | None = _root_cursor(spec)
    for sel in cube.selector_path():
        cur = cur.split()[sel]
        if cur is None:
            return 0.0
    return cur.mass()


def support_with_masses(spec: MeasureSpec, n: int) -> tuple[list[DyadicCube], np.ndarray]:
    """All level-n cubes of positive mass (depth-first selector order) with
    their masses.  The descent prunes zero-mass subtrees, so thin supports
    never cost 2^(nm) work."""
    ensure_valid(spec)
    if n < 0:
        raise ValueError("level must be >= 0")
    m = spec.dim
    cubes: list[DyadicCube] = []
    masses: list[float] = []
    # stack of (level, index, cursor); selectors pushed in reverse for
    # ascending depth-first order
    stack = [(0, (0,) * m, _root_cursor(spec))]
    while stack:
        level, index, cur = stack.pop()
        if level == n:
            mass = cur.mass()
            if mass > 0.0:
                cubes.append(DyadicCube(level, index))
                masses.append(mass)
            continue
        kids = cur.split()
        for j in range(len(kids) - 1, -1, -1):
            if kids[j] is not None:
                idx = tuple(2 * l + ((j >> k) & 1) for k, l in enumerate(index))
                stack.append((level + 1, idx, kids[j]))
    return cubes, np.asarray(masses, dtype=float)


def support_cubes(spec: MeasureSpec, n: int) -> list[DyadicCube]:
    """Exactly the level-n dyadic cubes with nu(cube) > 0."""
    return support_with_masses(spec, n)[0]


def support_masses(spec: MeasureSpec, n: int) -> np.ndarray:
    """Masses of the positive level-n cubes (order not meaningful).

    Fast closed-form paths cover Lebesgue and DyadicIFS with all ratios 1/2;
    they return the same multiset as the generic descent.
    """
    ensure_valid(spec)
    if n < 0:
        raise ValueError("level must be >= 0")
    if isinstance(spec, Lebesgue):
        return np.full(1 << (n * spec.dimension), math.ldexp(1.0, -n * spec.dimension))
    if isinstance(spec, DyadicIFS) and all(mp.ratio_log2 == 1 for mp in spec.maps):
        out = np.array([1.0])
        w = np.asarray(spec.weights)
        for _ in range(n):
            out = (out[:, None] * w[None, :]).ravel()
        return out
    return support_with_masses(spec, n)[1]


def _scan(spec: MeasureSpec, a: float, t: float, max_depth: int, collect: bool):
    """Shared traversal: emit good cubes (J_a < t), split bad ones."""
    ensure_valid(spec)
    if a <= 0:
        raise ValueError("a must be > 0")
    if not (t > 0):
        raise ValueError("threshold t must be > 0")
    m = spec.dim
    cubes: list[DyadicCube] = []
    masses: list[float] = []
    jvals: list[float] = []
    card = 0
    max_j = 0.0
    depth_max = 0
    # (level, index, cursor); cursor None encodes zero mass
    stack = [(0, (0,) * m, _root_cursor(spec))]
    while stack:
        level, index, cur = stack.pop()
        mass = cur.mass() if cur is not None else 0.0
        j = 2.0 ** (-level * m * a) * mass
        if j < t:
            card += 1
            if j > max_j:
                max_j = j
            if level > depth_max:
                depth_max = level
            if collect:
                cubes.append(DyadicCube(level, index))
                masses.append(mass)
                jvals.append(j)
            continue
        if level >= max_depth:
            raise MaxDepthExceeded(DyadicCube(level, index), j, t)
        kids = cur.split()
        for sel in range(len(kids) - 1, -1, -1):
            idx = tuple(2 * l + ((sel >> k) & 1) for k, l in enumerate(index))
            stack.append((level + 1, idx, kids[sel]))
    return cubes, masses, jvals, card, max_j, depth_max


def adaptive_partition(spec: MeasureSpec, a: float, t: float,
                       max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    """Coarsest dyadic partition with J_a < t on every cube.

    Every emitted cube is good, and every emitted cube other than the unit
    cube has a bad parent; by that characterisation the result has minimal
    cardinality among dyadic partitions meeting the threshold.  Terminates
    because J_a(cube) <= 2^(-level*m*a) -> 0; ``max_depth`` only guards
    against inconsistent inputs.
    """
    cubes, masses, jvals, *_ = _scan(spec, a, t, max_depth, collect=True)
    return Partition(
        cubes=cubes,
        masses=np.asarray(masses),
        j_values=np.asarray(jvals),
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
    *_, card, _, _ = _scan(spec, a, 1.0 / t, max_depth, collect=False)
    return card



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
    counter = itertools.count()
    root = _root_cursor(spec)
    heap = [(-root.mass(), next(counter), 0, (0,) * m, root)]
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
        for _, _, level, index, cur in batch:
            if level >= max_depth:
                raise MaxDepthExceeded(DyadicCube(level, index), j_top, 0.0)
            for sel, child in enumerate(cur.split()):
                idx = tuple(2 * l + ((sel >> k) & 1) for k, l in enumerate(index))
                if child is None:
                    heapq.heappush(heap, (0.0, next(counter), level + 1, idx, None))
                else:
                    j = 2.0 ** (-(level + 1) * m * a) * child.mass()
                    heapq.heappush(heap, (-j, next(counter), level + 1, idx, child))
    return np.asarray(states, dtype=float)


def gamma_dyadic_vector(spec: MeasureSpec, a: float, k_max: int,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """vector v with v[k] = exact min over partitions of the unit cube into at
    most k dyadic cubes of depth <= max_depth of the max J_a, for k = 1..k_max
    (v[0] = inf).  Budgets prune the recursion: a subtree handed k cubes can
    split at most (k-1)/(2^m-1) more times, so the walk stays near-linear in
    k_max for thin supports.  Full-support self-similar measures (Lebesgue,
    dyadic IFS with all ratios 1/2) dispatch to an exact budget-indexed
    recursion instead, for which max_depth never binds."""
    ensure_valid(spec)
    if a <= 0:
        raise ValueError("a must be > 0")
    if k_max < 1:
        raise ValueError("infeasible budget: k_max must be >= 1")
    m = spec.dim

    if isinstance(spec, Lebesgue):
        return _selfsimilar_gamma_vector([2.0 ** (-m)] * (1 << m), m, a, k_max)
    if isinstance(spec, DyadicIFS) and all(mp.ratio_log2 == 1 for mp in spec.maps):
        return _selfsimilar_gamma_vector(list(spec.weights), m, a, k_max)
    nkids = 1 << m
    size = k_max + 1

    def vec(cur, level, usable):
        j_here = 2.0 ** (-level * m * a) * cur.mass()
        out = np.full(size, j_here)
        out[0] = np.inf
        if usable >= nkids and level < max_depth:
            kids = cur.split()
            nz = [c for c in kids if c is not None]
            zeros = nkids - len(nz)
            child_usable = usable - (nkids - 1)
            if nz:
                acc = vec(nz[0], level + 1, child_usable)
                for c in nz[1:]:
                    acc = _minmax_fold(acc, vec(c, level + 1, child_usable))
            else:
                acc = np.full(size, np.inf)
                acc[0] = 0.0  # zero-mass interior: resolved below by the shift
            if zeros:
                shifted = np.full(size, np.inf)
                shifted[zeros:] = acc[: size - zeros]
                acc = shifted
            out = np.minimum(out, acc)
        return out

    return vec(_root_cursor(spec), 0, k_max)
