"""Moment-matching polynomial projections on cubes and piecewise variants.

On every cube Q the operator P_Q is the L^2(Q)-orthogonal projection onto
the polynomials of total degree <= ell-1; it is characterised by matching
all moments of x^k for |k| <= ell-1.  Coefficients are stored in a per-cube
orthonormal basis (affinely rescaled tensor Legendre polynomials restricted
to total degree <= ell-1) rather than raw monomials: the monomial Gram
matrix is badly conditioned already at moderate degree, while the
orthonormal basis turns the moment system into the identity at no modeling
cost.

Moments are evaluated by tensor Gauss-Legendre quadrature with ell+q_extra
nodes per axis (default q_extra = 4): exact for the polynomial factors and
accurate for smooth evaluation oracles.  Independent verification passes use
doubled node counts.

Errors in L^q of a measure nu use exact atom sums when nu is atomic and
otherwise seeded Monte Carlo draws from nu (map compositions for IFS
measures, cell selection for densities); singular measures admit no faithful
grid quadrature, so a standard error accompanies every sampled value.

The layer works on arrays.  A projection evaluates the oracle once per block
of cubes, on the tensor Gauss nodes of all of them, and an evaluation finds
each point's cube from integer keys: the point's cube index at the deepest
level of the pieces, ceil(x 2^L) - 1 per axis (the right-closed cubes of the
mass engine), read as a Morton key, lies in the key run of exactly the
pieces that hold it.  Blocks hold about ``_BLOCK`` points or nodes, which
bounds the temporaries.  Every number equals the one the per-cube loops give:
the same elementwise operations produce the basis values, and each cube's
contraction is one ``basis @ coeffs`` (or ``basis.T @ values``) over that
cube's rows in their original order; for ell = 1 that is one value per
piece, its normalisation times its coefficient.

Keys among piece edges, and uniforms among CDF edges, are located by one
table search (``_located``): the range is cut into 2^b cells, about 16 per
edge and at most 2^16, and a cell with no edge strictly inside it gives all
its needles one count; only the needles of the other cells are searched one
by one.  Every discrete draw (an atom, a density cell, a mixture component,
an IFS map) is the one ``rng.choice(K, size=n, p=p)`` makes: choice draws n
uniforms and returns searchsorted(cdf, u, "right") for cdf = p.cumsum()
divided by its last entry, and so does the sampler, with the same uniforms
and the stream left at the same place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from . import _checks
from .measures import (
    Atomic,
    DyadicCube,
    DyadicDensity,
    DyadicIFS,
    GeneralIFS1D,
    Lebesgue,
    MeasureSpec,
    Mixture,
    _KEY_BITS,
    _by_level,
    _coords,
    _level_keys,
    _lifted,
    _morton,
)
from .partition import Partition, gamma_adaptive_profile, DEFAULT_MAX_DEPTH, _CubeField, _CubeKeys
from .spectrum import OrderParams

__all__ = [
    "kappa",
    "multi_indices",
    "FunctionHandle",
    "project_poly",
    "polynomial_values",
    "moment_residuals",
    "projection_l2_error",
    "PiecewisePoly",
    "piecewise_project",
    "error_Lq",
    "ErrorSample",
    "error_sample",
    "error_from_sample",
    "sample_measure",
    "WidthBounds",
    "width_upper_sequence",
]

BASIS_TAG = "shifted-legendre-orthonormal-v1"
_BLOCK = 1 << 14  # points or quadrature nodes per block
_OUTSIDE = "some points lie outside the partition (expected (0,1]^m)"


def kappa(m: int, ell: int) -> int:
    """Dimension of the m-variate polynomials of total degree <= ell-1."""
    _checks.count("m", m)
    _checks.count("ell", ell)
    return math.comb(m + ell - 1, m)


def multi_indices(m: int, ell: int) -> list[tuple[int, ...]]:
    """All exponent vectors k with |k| <= ell-1, graded lexicographically."""
    idx = [k for k in product(range(ell), repeat=m) if sum(k) <= ell - 1]
    idx.sort(key=lambda k: (sum(k), k))
    return idx


@dataclass(frozen=True)
class FunctionHandle:
    """Evaluation oracle u: points array of shape (npts, m) -> values (npts,).

    The oracle must be pointwise: the value at a point may not depend on the
    other rows of the array.  Projections evaluate it once per block of
    cubes, on all their quadrature nodes together.

    ``smoothness`` is free-form metadata (e.g. a Sobolev order the caller
    believes in); nothing here verifies it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    smoothness: float | None = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.fn(points)


def _eval_u(u, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(u(points), dtype=float)
    if vals.shape != (points.shape[0],):
        raise ValueError(
            f"function returned shape {vals.shape}, expected ({points.shape[0]},); "
            "oracles must map an (npts, m) array to an (npts,) array"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite values on the quadrature grid")
    return vals


# ---------------------------------------------------------------------------
# Orthonormal bases and quadrature on blocks of cubes
# ---------------------------------------------------------------------------

def _geometry(levels: np.ndarray, keys: np.ndarray,
              m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners (k, m), sides (k,) and basis normalisations h^(-m/2) (k,) of
    the cubes with the given levels and Morton keys."""
    corner, norm = np.empty((len(levels), m)), np.empty(len(levels))
    for level, rows in _by_level(levels):
        side = math.ldexp(1.0, -level)
        coords = _coords(_level_keys(keys[rows], level, m), level, m)
        corner[rows] = np.column_stack(coords).astype(float) * side
        norm[rows] = side ** (-0.5 * m)
    return corner, np.ldexp(1.0, -levels), norm


def _basis(points: np.ndarray, corner, side, norm, ell: int) -> np.ndarray:
    """Orthonormal basis values, shape (npts, kappa), of the cube with the
    given corner, side and normalisation; each may be one per point."""
    m = points.shape[1]
    xi = (points - corner) / side
    scale = np.sqrt(2.0 * np.arange(ell) + 1.0)
    vander = [legvander(2.0 * xi[:, j] - 1.0, ell - 1) * scale for j in range(m)]
    indices = multi_indices(m, ell)
    out = np.empty((points.shape[0], len(indices)))
    for i, k in enumerate(indices):
        col = np.ones(points.shape[0])
        for j, kj in enumerate(k):
            col = col * vander[j][:, kj]
        out[:, i] = col
    out *= norm
    return out


def _cube_basis(points: np.ndarray, geometry: tuple, rows: np.ndarray, ell: int) -> np.ndarray:
    """Basis values at points[i] in the basis of the cube in row rows[i] of
    the ``_geometry`` arrays."""
    corner, side, norm = geometry
    return _basis(points, corner[rows], side[rows, None], norm[rows, None], ell)


def _nodes(corner: np.ndarray, side: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre points (b * n_nodes^m, m) and weights of b cubes,
    cube after cube, each cube's nodes in C order of the axes."""
    t, w = leggauss(n_nodes)
    xi = 0.5 * (t + 1.0)
    hw = side[:, None] * (0.5 * w)
    b, m = corner.shape
    grid = (b,) + (n_nodes,) * m
    pts = np.empty(grid + (m,))
    weights = np.ones(grid)
    for j in range(m):
        axis = (b,) + (1,) * j + (n_nodes,) + (1,) * (m - 1 - j)
        pts[..., j] = (corner[:, j, None] + side[:, None] * xi).reshape(axis)
        weights = weights * hw.reshape(axis)
    return pts.reshape(-1, m), weights.reshape(-1)


def _project(u, cubes: _CubeKeys, ell: int, q_extra: int) -> np.ndarray:
    """Coefficients (k, kappa) of the projections of u on the cubes, one
    oracle call per block of cubes."""
    k = len(cubes.levels)
    coeffs = np.empty((k, kappa(cubes.dim, ell)))  # kappa checks ell
    n_nodes = ell + q_extra
    geometry = _geometry(*cubes)
    corner, side, _ = geometry
    per = n_nodes ** cubes.dim
    step = max(1, _BLOCK // per)
    for s in range(0, k, step):
        blk = slice(s, s + step)
        pts, w = _nodes(corner[blk], side[blk], n_nodes)
        vw = _eval_u(u, pts) * w
        at = np.repeat(np.arange(s, min(s + step, k)), per)
        basis = _cube_basis(pts, geometry, at, ell)
        for i in range(len(at) // per):
            rows = slice(i * per, (i + 1) * per)
            coeffs[s + i] = basis[rows].T @ vw[rows]
    return coeffs


def project_poly(u, cube: DyadicCube, ell: int, q_extra: int = 4) -> np.ndarray:
    """Coefficients of the moment-matching projection of u on the cube, in
    the cube's orthonormal basis (length kappa(m, ell))."""
    return _project(u, _CubeKeys.of([cube]), ell, q_extra)[0]


def polynomial_values(cube: DyadicCube, ell: int, coeffs: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector in the cube's basis at given points."""
    corner, side, norm = _geometry(*_CubeKeys.of([cube]))
    return _basis(points, corner[0], side[0], norm[0], ell) @ np.asarray(coeffs)


def _cube_residual(u, cube: DyadicCube, ell: int, coeffs: np.ndarray,
                   n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss points and weights of the cube, and u minus the
    polynomial with the given coefficients on them."""
    corner, side, norm = _geometry(*_CubeKeys.of([cube]))
    pts, w = _nodes(corner, side, n_nodes)
    diff = _eval_u(u, pts) - _basis(pts, corner[0], side[0], norm[0], ell) @ np.asarray(coeffs)
    return pts, w, diff


def moment_residuals(u, cube: DyadicCube, ell: int, coeffs: np.ndarray,
                     n_nodes: int | None = None) -> np.ndarray:
    """Residuals int x^k (u - r) dLambda over the cube for all |k| <= ell-1,
    evaluated with an independent (by default doubled-order) quadrature."""
    if n_nodes is None:
        n_nodes = 2 * (ell + 4)
    pts, w, diff = _cube_residual(u, cube, ell, coeffs, n_nodes)
    out = []
    for k in multi_indices(cube.dim, ell):
        mono = np.ones(pts.shape[0])
        for j, kj in enumerate(k):
            if kj:
                mono = mono * pts[:, j] ** kj
        out.append(float(np.sum(mono * diff * w)))
    return np.asarray(out)


def projection_l2_error(u, cube: DyadicCube, ell: int,
                        coeffs: np.ndarray | None = None,
                        n_nodes: int | None = None) -> float:
    """L^2(cube) error of the projection (or of a supplied coefficient vector)."""
    if coeffs is None:
        coeffs = project_poly(u, cube, ell)
    if n_nodes is None:
        n_nodes = 2 * (ell + 4)
    pts, w, diff = _cube_residual(u, cube, ell, coeffs, n_nodes)
    return float(np.sqrt(np.sum(diff * diff * w)))


# ---------------------------------------------------------------------------
# Piecewise projection
# ---------------------------------------------------------------------------

def _piece_runs(levels: np.ndarray, keys: np.ndarray,
                m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(depth, edges, owner): the deepest level of the pieces with the given
    levels and Morton keys, the sorted Morton keys at that level where a
    piece's key run starts or ends, and for each run [edges[j], edges[j+1])
    the row of the first piece holding it (len(keys) when none does, also
    for the last run)."""
    depth = int(levels.max())
    lo, hi = _lifted(levels, keys, m, depth), _lifted(levels, keys + 1, m, depth)
    edges = np.unique(np.concatenate((lo, hi)))
    first, stop = np.searchsorted(edges, lo), np.searchsorted(edges, hi)
    count = stop - first
    runs = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    owner = np.full(len(edges), len(keys))
    np.minimum.at(owner, runs, np.repeat(np.arange(len(keys)), count))
    return depth, edges, owner


def _owners(points: np.ndarray, depth: int, edges: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Row of the first piece holding each point; raises unless every point
    lies in a piece."""
    if not np.all((points > 0.0) & (points <= 1.0)):
        raise ValueError(_OUTSIDE)
    # exact integers before the - 1: past 2^53 a float - 1.0 rounds back
    index = np.ceil(np.ldexp(points, depth))
    index = (index.astype(np.int64) if depth <= _KEY_BITS else np.frompyfunc(int, 1, 1)(index)) - 1
    bits = depth * points.shape[1]
    keys = _morton(index.T, depth, points.shape[1])
    # 2^b cells of the key range [0, 2^bits): a key's cell is its leading b bits
    b = _cell_bits(len(edges), bits)
    starts = np.arange((1 << b) + 1).astype(keys.dtype) << (bits - b)
    cell = (keys >> (bits - b)).astype(np.intp)
    # a key below every edge reads owner[-1], the run past the last edge,
    # which no piece holds
    rows = owner[_located(edges, keys, cell, starts) - 1]
    if np.any(rows == owner[-1]):
        raise ValueError(_OUTSIDE)
    return rows


@dataclass(eq=False)
class PiecewisePoly:
    """Piecewise polynomial subordinate to a dyadic partition.

    ``coeffs[i]`` is the coefficient vector (length kappa) of the polynomial
    on ``cubes[i]`` in that cube's orthonormal basis.  The pieces are kept as
    (level, Morton key) arrays, which is all that ``evaluate`` reads; the
    DyadicCube objects of ``cubes`` are built when it is first read, as for
    :class:`~lqspectra.partition.Partition`.
    """

    order: int
    cubes: list[DyadicCube] = _CubeField()
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self._arrays.dim

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points in (0,1]^m; each point takes the value of the
        first listed cube that holds it, cubes being right-closed, so
        x in (l 2^-L, (l+1) 2^-L] on every axis.  Points are located by
        integer keys (see the module docstring) and evaluated in blocks of
        about ``_BLOCK`` points; a point outside every cube, outside
        (0,1]^m or NaN raises ValueError."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, k = points.shape[0], len(self._arrays.levels)
        if not n:
            return np.zeros(0)
        if not k:
            raise ValueError(_OUTSIDE)
        if points.shape[1] != self.dim:
            raise ValueError(f"points have {points.shape[1]} coordinates, the cubes {self.dim}")
        runs, geometry = _piece_runs(*self._arrays), _geometry(*self._arrays)
        out = np.empty(n)
        if self.order == 1:
            # kappa = 1: the one basis value is the constant norm (1.0 * norm
            # in _basis), so each piece has one value
            value = geometry[2] * self.coeffs[:, 0]
            for s in range(0, n, _BLOCK):
                blk = slice(s, s + _BLOCK)
                out[blk] = value[_owners(points[blk], *runs)]
            return out
        # one basis @ coeffs per cube over all its points in their order,
        # as the sum order of a BLAS product may depend on the row count
        at = np.concatenate([_owners(points[s:s + _BLOCK], *runs) for s in range(0, n, _BLOCK)])
        rows = np.argsort(at, kind="stable")
        starts = np.searchsorted(at[rows], np.arange(k + 1))
        first = 0
        while first < k:
            last = max(first + 1, int(np.searchsorted(starts, starts[first] + _BLOCK, side="right")) - 1)
            blk = rows[starts[first]:starts[last]]
            basis = _cube_basis(points[blk], geometry, at[blk], self.order)
            for i in range(first, last):
                seg = slice(starts[i] - starts[first], starts[i + 1] - starts[first])
                out[blk[seg]] = basis[seg] @ self.coeffs[i]
            first = last
        return out

    def to_json_dict(self) -> dict:
        return {
            "basis": BASIS_TAG,
            "order": self.order,
            "pieces": [
                {"level": c.level, "index": list(c.index), "coefficients": list(map(float, co))}
                for c, co in zip(self.cubes, self.coeffs)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewisePoly":
        if doc.get("basis") != BASIS_TAG:
            raise ValueError(f"unknown basis tag {doc.get('basis')!r}")
        order = _checks.count("order", doc["order"])
        cubes = [DyadicCube(p["level"], tuple(p["index"])) for p in doc["pieces"]]
        coeffs = np.asarray([p["coefficients"] for p in doc["pieces"]], dtype=float)
        if not cubes or coeffs.shape != (len(cubes), kappa(cubes[0].dim, order)):
            raise ValueError(f"pieces need kappa(m, order) coefficients each, not {coeffs.shape}")
        return cls(order=order, cubes=cubes, coeffs=coeffs)


def piecewise_project(u, partition: Union[Partition, Sequence[DyadicCube]],
                      ell: int, q_extra: int = 4) -> PiecewisePoly:
    """Project u cube by cube over a partition, evaluating u once per block
    of cubes.  A :class:`Partition` hands over its (level, key) arrays, so
    neither it nor the result builds DyadicCube objects."""
    cubes = partition._arrays if isinstance(partition, Partition) else _CubeKeys.of(list(partition))
    if not len(cubes.levels):
        raise ValueError("empty partition")
    return PiecewisePoly(order=ell, cubes=cubes, coeffs=_project(u, cubes, ell, q_extra))


# ---------------------------------------------------------------------------
# Sampling from a measure and empirical L^q errors
# ---------------------------------------------------------------------------

def _located(edges: np.ndarray, needles: np.ndarray, cell: np.ndarray,
             starts: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, needles, side="right")`` for needles that lie
    in cells of a sorted grid, starts[cell[i]] <= needles[i] < starts[cell[i] + 1].

    Between two starts s <= x < s', #{e <= s} <= #{e <= x} <= #{e < s'}, so
    where the two bounds agree (no edge lies strictly inside the cell) the
    count is read from a table of 2 searches per cell; only the needles of
    the other cells are searched one by one.
    """
    lo = np.searchsorted(edges, starts[:-1], side="right")
    hi = np.searchsorted(edges, starts[1:], side="left")
    out = lo.take(cell, mode="clip")
    rows = np.flatnonzero((lo != hi).take(cell, mode="clip"))
    if len(rows):
        out[rows] = np.searchsorted(edges, needles[rows], side="right")
    return out


def _cell_bits(n_edges: int, bits: int = 16) -> int:
    """Bits of the cell grid of :func:`_located`: about 16 cells per edge,
    at most 2^16 cells and at most one cell per value of a ``bits``-bit key."""
    return min(bits, n_edges.bit_length() + 4, 16)


def _choice(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(probs), size=n, p=probs)``: numpy's choice draws n
    uniforms u and returns searchsorted(cdf, u, "right") with cdf =
    probs.cumsum() / its last entry, so this gives the same picks and leaves
    the stream where choice leaves it."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    b = _cell_bits(len(cdf))
    # floor(u 2^b) is exact: u < 1 and the product only shifts the exponent
    cell = np.ldexp(u, b).astype(np.intp)
    return _located(cdf, u, cell, np.ldexp(np.arange((1 << b) + 1, dtype=float), -b))


def sample_measure(spec: MeasureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points distributed by the measure, shape (n, m).

    IFS measures are sampled by composing ~55 independent weight-distributed
    maps (position error below 2^-50); atomic and density measures are
    sampled exactly up to floating point.  Every discrete draw is the one
    ``rng.choice(len(p), size=n, p=p)`` makes, with the same use of the
    stream: n uniforms u, each mapped to searchsorted(cdf, u, "right").
    For the few maps of an IFS that index is counted, one comparison per
    CDF cut, in buffers reused over the steps; atoms, density cells and
    mixture components are located by the cell table of :func:`_located`.
    """
    m = spec.dim
    if isinstance(spec, Lebesgue):
        return 1.0 - rng.random((n, m))
    if isinstance(spec, (DyadicIFS, GeneralIFS1D)):
        if isinstance(spec, DyadicIFS):
            ratios = np.array([math.ldexp(1.0, -mp.ratio_log2) for mp in spec.maps])
            offsets = np.array([[float(c) for c in mp.offset] for mp in spec.maps])
        else:
            ratios = np.array([float(mp.ratio) for mp in spec.maps])
            offsets = np.array([[float(mp.offset)] for mp in spec.maps])
        cdf = np.cumsum(np.asarray(spec.weights) / math.fsum(spec.weights))
        cdf /= cdf[-1]
        cuts = cdf[:-1].tolist()
        r_max = float(ratios.max())
        steps = int(math.ceil(52.0 * math.log(2.0) / -math.log(r_max))) + 3
        x = np.ascontiguousarray((1.0 - rng.random((n, m))).T)  # one row per axis
        # with one ratio for every map, x * r equals x * ratios[pick]
        ratio = float(ratios[0]) if np.all(ratios == ratios[0]) else None
        offset_axes = [np.ascontiguousarray(offsets[:, j]) for j in range(m)]
        u, pick = np.empty(n), np.empty(n, dtype=np.intp)
        ge, buf = np.empty(n, dtype=bool), np.empty(n)
        for _ in range(steps):
            rng.random(out=u)
            # the map #{j : cdf_j <= u}, which is searchsorted(cdf, u, "right");
            # a valid IFS has at least two maps, so one cut or more
            np.greater_equal(u, cuts[0], out=pick)
            for c in cuts[1:]:
                np.greater_equal(u, c, out=ge)
                pick += ge
            x *= ratio if ratio is not None else ratios.take(pick, mode="clip")
            for j in range(m):
                x[j] += offset_axes[j].take(pick, out=buf, mode="clip")
        return np.ascontiguousarray(x.T)
    if isinstance(spec, Atomic):
        pts = np.array([[float(c) for c in p] for p in spec.points])
        return pts[_choice(np.asarray(spec.weights) / math.fsum(spec.weights), n, rng)]
    if isinstance(spec, DyadicDensity):
        side = 1 << spec.depth
        cellmass = spec.values.ravel() * math.ldexp(1.0, -spec.depth * m)
        flat = _choice(cellmass / cellmass.sum(), n, rng)
        out = 1.0 - rng.random((n, m))
        for j in range(m - 1, -1, -1):  # C order: the last axis varies fastest
            flat, idx = np.divmod(flat, side)
            out[:, j] += idx
        out /= side
        return out
    if isinstance(spec, Mixture):
        coefs = np.array([c for c, _ in spec.components])
        pick = _choice(coefs / coefs.sum(), n, rng)
        out = np.empty((n, m))
        for i, (_, sub) in enumerate(spec.components):
            take = pick == i
            if np.any(take):
                out[take] = sample_measure(sub, int(take.sum()), rng)
        return out
    raise ValueError(f"no sampler for measure spec {type(spec).__name__}")


@dataclass(frozen=True)
class ErrorSample:
    """The points an L^q_nu error is summed over, with the oracle's values
    on them.

    ``weights`` holds the atom masses of an atomic measure, whose error is
    an exact sum; it is None for a seeded Monte Carlo draw, whose error is a
    sample mean with a standard error.
    """

    q: float
    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None


def error_sample(u, spec: MeasureSpec, q: float, n_samples: int = 100_000,
                 seed: int = 0) -> ErrorSample:
    """The atoms of an atomic ``spec``, or ``n_samples`` points drawn from it
    by ``default_rng(seed)``, with u evaluated on them: the sample
    ``error_Lq`` integrates over.  One sample serves any number of
    approximations of the same u (``error_from_sample``).

    Requires a finite q >= 1 and n_samples >= 2 (a standard error needs two
    draws).
    """
    _checks.real("q", q, 1.0, inclusive=True)
    _checks.count("n_samples", n_samples, least=2)
    if isinstance(spec, Atomic):
        pts = np.array([[float(c) for c in p] for p in spec.points])
        weights = np.asarray(spec.weights)
    else:
        pts = sample_measure(spec, n_samples, np.random.default_rng(seed))
        weights = None
    return ErrorSample(q=q, points=pts, values=_eval_u(u, pts), weights=weights)


def error_from_sample(sample: ErrorSample, approx: PiecewisePoly) -> tuple[float, float]:
    """|| u - approx ||_{L^q_nu} and its standard error on ``sample``: the
    exact atom sum (standard error 0), or the Monte Carlo mean with the
    delta-method standard error of its q-th root."""
    q = sample.q
    diff = np.abs(sample.values - approx.evaluate(sample.points))
    if sample.weights is not None:
        return float(np.sum(sample.weights * diff ** q) ** (1.0 / q)), 0.0
    powers = diff ** q
    mean = float(powers.mean())
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = float(powers.std(ddof=1)) / math.sqrt(len(powers))
    value = mean ** (1.0 / q)
    return value, se_mean * value / (q * mean)


def error_Lq(u, approx: PiecewisePoly, spec: MeasureSpec, q: float,
             n_samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """|| u - approx ||_{L^q_nu} with an error bar.

    Atomic measures are summed exactly (standard error 0); all other specs
    are integrated by seeded Monte Carlo, returning the delta-method standard
    error of the q-th root.  Requires a finite q >= 1 and n_samples >= 2
    (a standard error needs two draws).
    """
    return error_from_sample(error_sample(u, spec, q, n_samples, seed), approx)


# ---------------------------------------------------------------------------
# Width upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidthBounds:
    """Upper-bound sequence for Kolmogorov widths from partition weights.

    ``dimensions[i] = kappa * n_list[i]`` is the subspace dimension of the
    piecewise-polynomial space on an optimal-cardinality partition, and
    ``bounds[i] = gamma_hat^(1/q)`` its width bound up to an unestimated
    constant; only ``slope`` (log-log least squares over all entries) is
    meaningful, not the levels themselves.
    """

    dimensions: np.ndarray
    gammas: np.ndarray
    bounds: np.ndarray
    slope: float
    a: float
    kappa: int


def width_upper_sequence(spec: MeasureSpec, params: OrderParams,
                         n_list: Sequence[int],
                         max_depth: int = DEFAULT_MAX_DEPTH) -> WidthBounds:
    """Width bound pairs (kappa*n, gamma_hat_{rho/m, kappa*n}^(1/q)) plus the
    fitted decay order of the bound sequence."""
    if spec.dim != params.m:
        raise ValueError(f"measure dimension {spec.dim} != params.m {params.m}")
    a = params.rho / params.m
    kap = kappa(params.m, params.ell)
    dims = kap * np.array(_checks.levels("n_list", n_list))
    gammas = gamma_adaptive_profile(spec, a, dims, max_depth=max_depth)
    bounds = gammas ** (1.0 / params.q)
    if len(dims) >= 2:
        slope = float(np.polyfit(np.log(dims), np.log(bounds), 1)[0])
    else:
        slope = float("nan")
    return WidthBounds(dimensions=dims, gammas=gammas, bounds=bounds,
                       slope=slope, a=a, kappa=kap)
