"""The per-cube projection and the cube-scanning evaluation that
``lqspectra.polyapprox`` used before it worked on blocks of cubes and points,
kept unchanged, and a sampler that makes every discrete draw with one
``Generator.choice`` call and applies an IFS word's maps one at a time: the
references of the differential tests in ``tests/test_polyapprox.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

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


# the stream layout of ``lqspectra.polyapprox.sample_measure`` on an IFS:
# words of at most WORDS maps, drawn for blocks of DRAW_BLOCK points
WORDS = 1 << 10
DRAW_BLOCK = 1 << 13


def word_length(n_maps: int) -> int:
    """The largest k >= 1 with n_maps^k <= WORDS (1 when n_maps > WORDS)."""
    return max([1] + [k for k in range(1, 11) if n_maps ** k <= WORDS])


def sample_measure(spec: MeasureSpec, n: int, rng: np.random.Generator,
                   picks: list | None = None) -> np.ndarray:
    """Draw n points distributed by the measure, one ``rng.choice`` per
    discrete draw; each choice's picks are appended to ``picks`` when given.

    An IFS draws blocks of DRAW_BLOCK points: a block draws its starting
    points, then for each word step one word of k maps per point, with
    probability the product of the word's weights multiplied from the left,
    and applies the word's maps one at a time, first map first."""
    ensure_valid(spec)
    m = spec.dim
    record = picks.append if picks is not None else lambda pick: None

    def choice(probs, size):
        pick = rng.choice(len(probs), size=size, p=probs)
        record(pick)
        return pick

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
        k = word_length(len(probs))
        words = np.array(list(product(range(len(probs)), repeat=k)))
        word_probs = np.array([reduce(mul, probs[word]) for word in words])
        steps = int(math.ceil(52.0 * math.log(2.0) / -math.log(float(ratios.max())))) + 3
        out = np.empty((n, m))
        for start in range(0, n, DRAW_BLOCK):
            size = min(DRAW_BLOCK, n - start)
            x = 1.0 - rng.random((size, m))
            for _ in range(-(-steps // k)):
                for i in words[choice(word_probs, size)].T:
                    x = x * ratios[i, None] + offsets[i]
            out[start:start + size] = x
        return out
    if isinstance(spec, Atomic):
        pts = np.array([[float(c) for c in p] for p in spec.points])
        return pts[choice(np.asarray(spec.weights) / math.fsum(spec.weights), n)]
    if isinstance(spec, DyadicDensity):
        side = 1 << spec.depth
        cellmass = spec.values.ravel() * math.ldexp(1.0, -spec.depth * m)
        flat = choice(cellmass / cellmass.sum(), n)
        idx = np.stack(np.unravel_index(flat, spec.values.shape), axis=-1)
        return (idx + (1.0 - rng.random((n, m)))) / side
    if isinstance(spec, Mixture):
        coefs = np.array([c for c, _ in spec.components])
        pick = choice(coefs / coefs.sum(), n)
        out = np.empty((n, m))
        for i, (_, sub) in enumerate(spec.components):
            take = pick == i
            if np.any(take):
                out[take] = sample_measure(sub, int(take.sum()), rng, picks)
        return out
    raise ValueError(f"no sampler for measure spec {type(spec).__name__}")


def exact_words(spec) -> tuple[list, list, list]:
    """(probs, ratios, offsets): the word table of an IFS in exact Fractions,
    in the order of ``itertools.product``, from the spec's rational ratios
    and offsets and its weights normalised exactly.  A word applies its first
    map first, so its offset is the image of the origin."""
    if isinstance(spec, DyadicIFS):
        maps = [(Fraction(1, 1 << mp.ratio_log2), mp.offset) for mp in spec.maps]
    else:
        maps = [(mp.ratio, (mp.offset,)) for mp in spec.maps]
    weights = [Fraction(w) for w in spec.weights]
    weights = [w / sum(weights) for w in weights]
    # the words of j + 1 maps: each word of j maps, then each map
    words = [(Fraction(1), Fraction(1), (Fraction(0),) * spec.dim)]
    for _ in range(word_length(len(maps))):
        words = [(p * w, r * ratio, tuple(c * ratio + d for c, d in zip(o, offset)))
                 for p, r, o in words for w, (ratio, offset) in zip(weights, maps)]
    probs, ratios, offsets = zip(*words)
    return list(probs), list(ratios), list(offsets)


def word_table_gaps(spec, probs, ratios, offsets) -> tuple[float, float, float]:
    """The largest relative errors of a float word table's probabilities and
    ratios, and the largest absolute error of its offsets, against
    :func:`exact_words`, computed exactly."""
    want_probs, want_ratios, want_offsets = exact_words(spec)
    assert len(probs) == len(ratios) == len(offsets) == len(want_probs)

    def relative(got, want):
        return max(float(abs(Fraction(g) - w) / w) for g, w in zip(np.asarray(got).tolist(), want))

    return (relative(probs, want_probs), relative(ratios, want_ratios),
            max(float(abs(Fraction(g) - w)) for row, want in zip(np.asarray(offsets).tolist(),
                                                                 want_offsets)
                for g, w in zip(row, want)))
