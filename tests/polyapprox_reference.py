"""The per-cube projection, the cube-scanning evaluation and the
``Generator.choice`` IFS sampler that ``lqspectra.polyapprox`` used before it
worked on blocks of cubes and points, kept unchanged as the reference for the
differential tests in ``tests/test_polyapprox.py``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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
from lqspectra.polyapprox import multi_indices


def _cube_corner_side(cube: DyadicCube) -> tuple[np.ndarray, float]:
    h = math.ldexp(1.0, -cube.level)
    corner = np.array([l * h for l in cube.index])
    return corner, h


def _cube_quadrature(cube: DyadicCube, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre points (npts, m) and weights (npts,) on the cube."""
    t, w = leggauss(n_nodes)
    xi = 0.5 * (t + 1.0)
    wu = 0.5 * w
    corner, h = _cube_corner_side(cube)
    m = cube.dim
    axes = [corner[j] + h * xi for j in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    wmesh = np.meshgrid(*([h * wu] * m), indexing="ij")
    weights = np.ones(pts.shape[0])
    for g in wmesh:
        weights = weights * g.ravel()
    return pts, weights


def _basis_values(cube: DyadicCube, ell: int, points: np.ndarray) -> np.ndarray:
    """Orthonormal basis values, shape (npts, kappa)."""
    corner, h = _cube_corner_side(cube)
    m = cube.dim
    xi = (points - corner) / h
    scale = np.sqrt(2.0 * np.arange(ell) + 1.0)
    vander = [legvander(2.0 * xi[:, j] - 1.0, ell - 1) * scale for j in range(m)]
    cols = []
    for k in multi_indices(m, ell):
        col = np.ones(points.shape[0])
        for j, kj in enumerate(k):
            col = col * vander[j][:, kj]
        cols.append(col)
    return np.stack(cols, axis=-1) * h ** (-0.5 * m)


def project_poly(u, cube: DyadicCube, ell: int, q_extra: int = 4) -> np.ndarray:
    pts, w = _cube_quadrature(cube, ell + q_extra)
    vals = np.asarray(u(pts), dtype=float)
    basis = _basis_values(cube, ell, pts)
    return basis.T @ (vals * w)


def polynomial_values(cube: DyadicCube, ell: int, coeffs: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    return _basis_values(cube, ell, points) @ np.asarray(coeffs)


def piecewise_coeffs(u, cubes, ell: int, q_extra: int = 4) -> np.ndarray:
    """The coefficient array of the per-cube piecewise projection."""
    return np.stack([project_poly(u, c, ell, q_extra) for c in cubes])


def scan_evaluate(order: int, cubes, coeffs, points: np.ndarray) -> np.ndarray:
    """Evaluate by testing every point against every cube, first cube first."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(points.shape[0], np.nan)
    claimed = np.zeros(points.shape[0], dtype=bool)
    for cube, coef in zip(cubes, coeffs):
        corner, h = _cube_corner_side(cube)
        inside = np.all((points > corner) & (points <= corner + h), axis=1)
        inside &= ~claimed
        if np.any(inside):
            out[inside] = polynomial_values(cube, order, coef, points[inside])
            claimed |= inside
    if not np.all(claimed):
        raise ValueError("some points lie outside the partition (expected (0,1]^m)")
    return out


def sample_measure(spec: MeasureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points distributed by the measure, one ``rng.choice`` per IFS step."""
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
        probs = np.asarray(spec.weights) / math.fsum(spec.weights)
        r_max = float(ratios.max())
        steps = int(math.ceil(52.0 * math.log(2.0) / -math.log(r_max))) + 3
        x = 1.0 - rng.random((n, m))
        for _ in range(steps):
            pick = rng.choice(len(probs), size=n, p=probs)
            x = x * ratios[pick, None] + offsets[pick]
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
