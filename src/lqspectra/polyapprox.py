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
cube's rows in their original order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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
    _morton,
    _shifted,
    ensure_valid,
)
from .partition import Partition, gamma_adaptive_profile, DEFAULT_MAX_DEPTH
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
    "sample_measure",
    "WidthBounds",
    "width_upper_sequence",
]

BASIS_TAG = "shifted-legendre-orthonormal-v1"
_BLOCK = 1 << 14  # points or quadrature nodes per block
_OUTSIDE = "some points lie outside the partition (expected (0,1]^m)"


def kappa(m: int, ell: int) -> int:
    """Dimension of the m-variate polynomials of total degree <= ell-1."""
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be >= 1")
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

def _geometry(cubes: Sequence[DyadicCube]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners (k, m), sides (k,) and basis normalisations h^(-m/2) (k,)."""
    m = cubes[0].dim
    levels = [c.level for c in cubes]
    deep = max(levels) > _KEY_BITS
    index = np.array([c.index for c in cubes], dtype=object if deep else np.int64)
    side = np.ldexp(1.0, -np.asarray(levels))
    norms = {level: math.ldexp(1.0, -level) ** (-0.5 * m) for level in set(levels)}
    return index.astype(float) * side[:, None], side, np.array([norms[l] for l in levels])


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


def _project(u, cubes: Sequence[DyadicCube], ell: int, q_extra: int) -> np.ndarray:
    """Coefficients (k, kappa) of the projections of u on the cubes, one
    oracle call per block of cubes."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n_nodes = ell + q_extra
    geometry = _geometry(cubes)
    corner, side, _ = geometry
    per = n_nodes ** cubes[0].dim
    step = max(1, _BLOCK // per)
    coeffs = np.empty((len(cubes), kappa(cubes[0].dim, ell)))
    for s in range(0, len(cubes), step):
        blk = slice(s, s + step)
        pts, w = _nodes(corner[blk], side[blk], n_nodes)
        vw = _eval_u(u, pts) * w
        at = np.repeat(np.arange(s, min(s + step, len(cubes))), per)
        basis = _cube_basis(pts, geometry, at, ell)
        for i in range(len(at) // per):
            rows = slice(i * per, (i + 1) * per)
            coeffs[s + i] = basis[rows].T @ vw[rows]
    return coeffs


def project_poly(u, cube: DyadicCube, ell: int, q_extra: int = 4) -> np.ndarray:
    """Coefficients of the moment-matching projection of u on the cube, in
    the cube's orthonormal basis (length kappa(m, ell))."""
    return _project(u, [cube], ell, q_extra)[0]


def polynomial_values(cube: DyadicCube, ell: int, coeffs: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector in the cube's basis at given points."""
    corner, side, norm = _geometry([cube])
    return _basis(points, corner[0], side[0], norm[0], ell) @ np.asarray(coeffs)


def _cube_quadrature(cube: DyadicCube, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    corner, side, _ = _geometry([cube])
    return _nodes(corner, side, n_nodes)


def moment_residuals(u, cube: DyadicCube, ell: int, coeffs: np.ndarray,
                     n_nodes: int | None = None) -> np.ndarray:
    """Residuals int x^k (u - r) dLambda over the cube for all |k| <= ell-1,
    evaluated with an independent (by default doubled-order) quadrature."""
    if n_nodes is None:
        n_nodes = 2 * (ell + 4)
    pts, w = _cube_quadrature(cube, n_nodes)
    diff = _eval_u(u, pts) - polynomial_values(cube, ell, coeffs, pts)
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
    pts, w = _cube_quadrature(cube, n_nodes)
    diff = _eval_u(u, pts) - polynomial_values(cube, ell, coeffs, pts)
    return float(np.sqrt(np.sum(diff * diff * w)))


# ---------------------------------------------------------------------------
# Piecewise projection
# ---------------------------------------------------------------------------

def _piece_runs(cubes: Sequence[DyadicCube]) -> tuple[int, np.ndarray, np.ndarray]:
    """(depth, edges, owner): the deepest level of the pieces, the sorted
    Morton keys at that level where a piece's key run starts or ends, and for
    each run [edges[j], edges[j+1]) the row of the first piece holding it
    (len(cubes) when none does, also for the last run)."""
    m = cubes[0].dim
    depth = max(c.level for c in cubes)
    levels = np.array([c.level for c in cubes])
    lo = np.empty(len(cubes), dtype=object if m * depth > _KEY_BITS else np.int64)
    hi = np.empty_like(lo)
    for level in np.unique(levels).tolist():
        rows = np.flatnonzero(levels == level)
        keys = _morton(np.array([cubes[i].index for i in rows], dtype=object).T, level, m)
        lo[rows] = _shifted(keys, m * (depth - level), m * depth)
        hi[rows] = _shifted(keys + 1, m * (depth - level), m * depth)
    edges = np.unique(np.concatenate((lo, hi)))
    first, stop = np.searchsorted(edges, lo), np.searchsorted(edges, hi)
    count = stop - first
    runs = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    owner = np.full(len(edges), len(cubes))
    np.minimum.at(owner, runs, np.repeat(np.arange(len(cubes)), count))
    return depth, edges, owner


def _owners(points: np.ndarray, depth: int, edges: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Row of the first piece holding each point; raises unless every point
    lies in a piece."""
    if not np.all((points > 0.0) & (points <= 1.0)):
        raise ValueError(_OUTSIDE)
    # exact integers before the - 1: past 2^53 a float - 1.0 rounds back
    index = np.ceil(np.ldexp(points, depth))
    index = (index.astype(np.int64) if depth <= _KEY_BITS else np.frompyfunc(int, 1, 1)(index)) - 1
    keys = _morton(index.T, depth, points.shape[1])
    # a key below every edge reads owner[-1], the run past the last edge,
    # which no piece holds
    rows = owner[np.searchsorted(edges, keys, side="right") - 1]
    if np.any(rows == owner[-1]):
        raise ValueError(_OUTSIDE)
    return rows


@dataclass(eq=False)
class PiecewisePoly:
    """Piecewise polynomial subordinate to a dyadic partition.

    ``coeffs[i]`` is the coefficient vector (length kappa) of the polynomial
    on ``cubes[i]`` in that cube's orthonormal basis.
    """

    order: int
    cubes: list[DyadicCube]
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.cubes[0].dim

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points in (0,1]^m; each point takes the value of the
        first listed cube that holds it, cubes being right-closed, so
        x in (l 2^-L, (l+1) 2^-L] on every axis.  Points are located by
        integer keys (see the module docstring) and evaluated in blocks of
        about ``_BLOCK`` points; a point outside every cube, outside
        (0,1]^m or NaN raises ValueError."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, k = points.shape[0], len(self.cubes)
        if not n:
            return np.zeros(0)
        if not k:
            raise ValueError(_OUTSIDE)
        if points.shape[1] != self.dim:
            raise ValueError(f"points have {points.shape[1]} coordinates, the cubes {self.dim}")
        runs, geometry = _piece_runs(self.cubes), _geometry(self.cubes)
        out = np.empty(n)
        if self.order == 1:  # kappa = 1: the contraction is one product
            for s in range(0, n, _BLOCK):
                blk = slice(s, s + _BLOCK)
                c = _owners(points[blk], *runs)
                out[blk] = _cube_basis(points[blk], geometry, c, 1)[:, 0] * self.coeffs[c, 0]
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
        cubes = [DyadicCube(p["level"], tuple(p["index"])) for p in doc["pieces"]]
        coeffs = np.asarray([p["coefficients"] for p in doc["pieces"]], dtype=float)
        return cls(order=int(doc["order"]), cubes=cubes, coeffs=coeffs)


def piecewise_project(u, partition: Union[Partition, Sequence[DyadicCube]],
                      ell: int, q_extra: int = 4) -> PiecewisePoly:
    """Project u cube by cube over a partition, evaluating u once per block
    of cubes."""
    cubes = list(partition.cubes) if isinstance(partition, Partition) else list(partition)
    if not cubes:
        raise ValueError("empty partition")
    return PiecewisePoly(order=ell, cubes=cubes, coeffs=_project(u, cubes, ell, q_extra))


# ---------------------------------------------------------------------------
# Sampling from a measure and empirical L^q errors
# ---------------------------------------------------------------------------

def _map_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """#{j : cdf_j <= u} for each u in [0, 1), one map at a time (cdf[-1] = 1)."""
    pick = np.zeros(len(u), dtype=np.intp)
    for c in cdf[:-1].tolist():
        pick += u >= c
    return pick


def sample_measure(spec: MeasureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points distributed by the measure, shape (n, m).

    IFS measures are sampled by composing ~55 independent weight-distributed
    maps (position error below 2^-50); atomic and density measures are
    sampled exactly up to floating point.  Each map step draws n uniforms u
    and picks map #{j : cdf_j <= u}, counted one map at a time: the draws
    and the stream use of ``rng.choice(len(p), size=n, p=p)``, whose
    binary search costs more than the count for the few maps of an IFS.
    """
    ensure_valid(spec)
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
        r_max = float(ratios.max())
        steps = int(math.ceil(52.0 * math.log(2.0) / -math.log(r_max))) + 3
        x = 1.0 - rng.random((n, m))
        for _ in range(steps):
            pick = _map_index(cdf, rng.random(n))
            x *= ratios.take(pick)[:, None]
            x += offsets.take(pick, axis=0)
        return x
    if isinstance(spec, Atomic):
        pts = np.array([[float(c) for c in p] for p in spec.points])
        probs = np.asarray(spec.weights) / math.fsum(spec.weights)
        pick = rng.choice(len(probs), size=n, p=probs)
        return pts[pick]
    if isinstance(spec, DyadicDensity):
        side = 1 << spec.depth
        cellmass = spec.values.ravel() * math.ldexp(1.0, -spec.depth * m)
        probs = cellmass / cellmass.sum()
        flat = rng.choice(len(probs), size=n, p=probs)
        idx = np.stack(np.unravel_index(flat, spec.values.shape), axis=-1)
        return (idx + (1.0 - rng.random((n, m)))) / side
    if isinstance(spec, Mixture):
        coefs = np.array([c for c, _ in spec.components])
        pick = rng.choice(len(coefs), size=n, p=coefs / coefs.sum())
        out = np.empty((n, m))
        for i, (_, sub) in enumerate(spec.components):
            take = pick == i
            if np.any(take):
                out[take] = sample_measure(sub, int(take.sum()), rng)
        return out
    raise ValueError(f"no sampler for measure spec {type(spec).__name__}")


def error_Lq(u, approx: PiecewisePoly, spec: MeasureSpec, q: float,
             n_samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """|| u - approx ||_{L^q_nu} with an error bar.

    Atomic measures are summed exactly (standard error 0); all other specs
    are integrated by seeded Monte Carlo, returning the delta-method standard
    error of the q-th root.  Requires a finite q >= 1 and n_samples >= 2
    (a standard error needs two draws).
    """
    if not 1 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1 (q={q})")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 (n_samples={n_samples})")
    ensure_valid(spec)
    if isinstance(spec, Atomic):
        pts = np.array([[float(c) for c in p] for p in spec.points])
        w = np.asarray(spec.weights)
        diff = np.abs(_eval_u(u, pts) - approx.evaluate(pts))
        return float(np.sum(w * diff ** q) ** (1.0 / q)), 0.0
    rng = np.random.default_rng(seed)
    pts = sample_measure(spec, n_samples, rng)
    diff = np.abs(_eval_u(u, pts) - approx.evaluate(pts))
    powers = diff ** q
    mean = float(powers.mean())
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = float(powers.std(ddof=1)) / math.sqrt(n_samples)
    value = mean ** (1.0 / q)
    return value, se_mean * value / (q * mean)


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
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns) or any(x >= y for x, y in zip(ns, ns[1:])):
        raise ValueError("n_list must be nonempty, strictly increasing, >= 1")
    a = params.rho / params.m
    kap = kappa(params.m, params.ell)
    dims = np.array([kap * n for n in ns])
    gammas = gamma_adaptive_profile(spec, a, dims, max_depth=max_depth)
    bounds = gammas ** (1.0 / params.q)
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log(dims), np.log(bounds), 1)[0])
    else:
        slope = float("nan")
    return WidthBounds(dimensions=dims, gammas=gammas, bounds=bounds,
                       slope=slope, a=a, kappa=kap)
