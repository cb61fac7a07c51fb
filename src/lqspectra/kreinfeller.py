"""1D Krein-Feller eigenproblems for atomic measures via the Stieltjes string.

For an atomic measure with atoms 0 < x_1 < ... < x_N < 1 and weights w_j the
eigenproblem  integral(u f) dnu = lambda * integral(u' f') dLambda  over the
Dirichlet space on (0,1) closes exactly on piecewise-linear functions: any
eigenfunction with positive eigenvalue is affine between consecutive atoms,
so the hat-function ansatz at the atoms is not an approximation.  The only
approximation error anywhere in this module is therefore the discretization
of the measure itself, never a FEM error, which keeps decay-order fits
honest.

In the hat basis the problem is the symmetric generalized pencil
W u = lambda K u with W = diag(w) and the tridiagonal stiffness matrix K
built from inverse gap lengths (gaps against the Dirichlet endpoints
included).   Dividing by sqrt(w) on both sides turns it into a symmetric
*tridiagonal* standard problem C y = mu y with mu = 1/lambda, which LAPACK
solves in O(N^2); N = 4096 atoms stay comfortably at desk scale.

Eigenvalues are reported in decreasing order; sqrt(lambda_(n+1)) equals the
Kolmogorov n-width of the Dirichlet-space unit ball in L^2 of the atomic
measure, which is the bridge to the partition/width modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .measures import Atomic, MeasureSpec, ensure_valid, support_with_masses
from .spectrum import _check_levels, _fixed_point, s_b_estimate

__all__ = [
    "AtomicApprox",
    "EigenSystem",
    "OrderFit",
    "SplitCountReport",
    "discretize",
    "stiffness_tridiagonal",
    "solve_eigen",
    "counting_function",
    "width_from_eigen",
    "order_fit",
    "split_counting_check",
]

RESIDUAL_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class AtomicApprox:
    """Finite atomic stand-in for a 1D measure.

    points : strictly increasing positions in (0, 1)
    weights : positive masses summing to 1 (within 1e-10)
    provenance : free-form note on where the atoms came from
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 1 or pts.shape != w.shape or len(pts) == 0:
            raise ValueError("points and weights must be equal-length 1D arrays")
        if pts[0] <= 0.0 or pts[-1] >= 1.0 or np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing inside (0, 1)")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(math.fsum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {math.fsum(w)!r}, not 1")

    @property
    def size(self) -> int:
        return len(self.points)


def discretize(spec: MeasureSpec, n: int) -> AtomicApprox:
    """Atomic approximation at dyadic level n: one atom per positive-mass
    cube at the cube midpoint, carrying the cube mass.

    Atomic specs pass through unchanged (sorted).  Midpoints are used rather
    than endpoints so discretization atoms never sit on the dyadic grid,
    keeping them clear of typical cut points in the counting checks.
    """
    return _discretize(spec, n)[0]


def _discretize(spec: MeasureSpec, n: int) -> tuple[AtomicApprox, np.ndarray | None]:
    """discretize(spec, n) and the unnormalised level-n masses it used (None
    for the atomic passthrough, which uses none)."""
    ensure_valid(spec)
    if spec.dim != 1:
        raise ValueError("the eigensolver only handles 1D measures")
    if isinstance(spec, Atomic):
        pts = np.array([float(p[0]) for p in spec.points])
        order = np.argsort(pts)
        return AtomicApprox(pts[order], np.asarray(spec.weights)[order],
                            provenance="atomic passthrough"), None
    if n < 0:
        raise ValueError("level must be >= 0")
    cubes, masses = support_with_masses(spec, n)
    pts = np.array([(2 * c.index[0] + 1) * math.ldexp(1.0, -(n + 1)) for c in cubes])
    total = math.fsum(masses)
    return AtomicApprox(pts, masses / total,
                        provenance=f"level-{n} midpoint discretization"), masses


def stiffness_tridiagonal(points: np.ndarray, lo: float = 0.0, hi: float = 1.0
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the hat-function stiffness matrix on
    (lo, hi) with Dirichlet ends: K_jj = 1/g_j + 1/g_{j+1}, K_{j,j+1} =
    -1/g_{j+1} for the gaps g between consecutive nodes (endpoints included)."""
    x = np.concatenate(([lo], np.asarray(points, dtype=float), [hi]))
    gaps = np.diff(x)
    if np.any(gaps <= 0):
        raise ValueError("points must be strictly increasing strictly inside the interval")
    inv = 1.0 / gaps
    return inv[:-1] + inv[1:], -inv[1:-1]


@dataclass(eq=False)
class EigenSystem:
    """All positive eigenvalues of the atomic problem, largest first.

    ``vectors`` (atom values of the eigenfunctions, one column per
    eigenvalue, sup-normalized) and the per-pair pencil residuals
    ||W u - lambda K u|| / ||W u|| are filled when the solve is asked for
    eigenvectors.
    """

    eigenvalues: np.ndarray
    atoms: AtomicApprox
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def _solve_string(points, weights, lo, hi, want_vectors):
    diag, off = stiffness_tridiagonal(points, lo, hi)
    w = np.asarray(weights, dtype=float)
    sw = np.sqrt(w)
    d = diag / w
    e = off / (sw[:-1] * sw[1:]) if len(w) > 1 else np.zeros(0)
    if want_vectors:
        mu, y = eigh_tridiagonal(d, e)
    else:
        mu = eigh_tridiagonal(d, e, eigvals_only=True)
        y = None
    lam = 1.0 / mu  # mu ascending, so 1/mu is already descending
    return lam, y, (d, e, diag, off, w, sw)


def _pencil_residuals(lam, u, diag, off, w):
    """||W u - lambda K u||_2 / ||W u||_2 column-wise for tridiagonal K."""
    ku = diag[:, None] * u
    if len(diag) > 1:
        ku[:-1] += off[:, None] * u[1:]
        ku[1:] += off[:, None] * u[:-1]
    wu = w[:, None] * u
    num = np.linalg.norm(wu - lam[None, :] * ku, axis=0)
    den = np.linalg.norm(wu, axis=0)
    return num / den


def solve_eigen(atoms: AtomicApprox, eigenvectors: bool = False) -> EigenSystem:
    """Solve W u = lambda K u for all N eigenpairs of the atomic problem.

    Eigenvalues come from the symmetric tridiagonal reduction
    C = W^(-1/2) K W^(-1/2) (mu = 1/lambda); when eigenvectors are requested
    they are transformed back and, where the pencil residual exceeds the
    1e-8 contract, refined by shifted inverse iteration on C.
    """
    lam, y, (d, e, diag, off, w, sw) = _solve_string(
        atoms.points, atoms.weights, 0.0, 1.0, eigenvectors
    )
    vectors = None
    residuals = None
    if eigenvectors:
        u = y / sw[:, None]
        residuals = _pencil_residuals(lam, u, diag, off, w)
        mu = 1.0 / lam
        n = len(d)
        for j in np.nonzero(residuals > 1e-10)[0]:
            for _ in range(3):
                ab = np.zeros((3, n))
                if n > 1:
                    ab[0, 1:] = e
                    ab[2, :-1] = e
                ab[1, :] = d - mu[j] * (1.0 + 1e-13)
                try:
                    z = solve_banded((1, 1), ab, u[:, j] * sw)
                except np.linalg.LinAlgError:
                    break
                norm = np.linalg.norm(z)
                if norm == 0 or not np.all(np.isfinite(z)):
                    break
                cand = (z / norm) / sw
                r = _pencil_residuals(lam[j:j + 1], cand[:, None], diag, off, w)[0]
                if r < residuals[j]:
                    u[:, j] = cand
                    residuals[j] = r
                else:
                    break
        scale = np.abs(u).max(axis=0)
        vectors = u / scale[None, :]
        if float(residuals.max()) > RESIDUAL_TOL:
            raise RuntimeError(
                f"eigenpair residual {residuals.max():.3e} exceeds {RESIDUAL_TOL}"
            )
    return EigenSystem(eigenvalues=lam, atoms=atoms, vectors=vectors,
                       residuals=residuals)


def counting_function(eigs: EigenSystem, x: float) -> int:
    """N(x) = number of eigenvalues >= x (binary search on the sorted list)."""
    if x <= 0:
        raise ValueError("x must be > 0")
    asc = eigs.eigenvalues[::-1]
    return int(len(asc) - np.searchsorted(asc, x, side="left"))


def width_from_eigen(eigs: EigenSystem, n: int) -> float:
    """Exact Kolmogorov n-width for the discretized measure: sqrt of the
    (n+1)-st eigenvalue, and 0 beyond the finite rank."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= eigs.size:
        return 0.0
    return float(math.sqrt(eigs.eigenvalues[n]))


# ---------------------------------------------------------------------------
# Decay-order fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderFit:
    """Least-squares decay order of log(lambda_n) against log(n).

    ``slope`` belongs to the finest level; ``per_level`` repeats the fit at
    the coarser levels with the same window policy and ``drift`` is the
    largest deviation from the finest slope (the only stability certificate
    available, since no discretization convergence rate is known).
    ``reference_slope`` is -1/s_hat for the b=1 spectral fixed point, the
    decay-order target for these eigenvalues.
    """

    slope: float
    stderr: float
    level: int
    window: tuple[int, int]
    per_level: tuple[tuple[int, float], ...]
    drift: float
    s1_hat: float
    reference_slope: float


def _fit_window(n_eigs: int, index_window) -> tuple[int, int]:
    if index_window is None:
        # drop the top few (pre-asymptotic) and the tail third (corrupted by
        # the finite-rank truncation of the discretization)
        return 5, max(5, (2 * n_eigs) // 3)
    lo, hi = int(index_window[0]), int(index_window[1])
    return lo, min(hi, n_eigs)


def order_fit(spec: MeasureSpec, levels: Sequence[int],
              index_window: tuple[int, int] | None = None,
              reference_levels: Sequence[int] | None = None) -> OrderFit:
    """Fit the eigenvalue decay order across discretization levels.

    The explicit ``index_window`` (1-based, inclusive) applies to the finest
    level; coarser levels always use the default policy scaled to their own
    rank.  Raises when the finest window holds fewer than 10 points.
    """
    levels = sorted(int(l) for l in levels)
    if not levels:
        raise ValueError("levels must be nonempty")
    slopes = []
    stderr_finest = None
    window_finest = None
    raw = []  # each level's masses, reused by the fixed-point step below
    for lvl in levels:
        atoms, masses = _discretize(spec, lvl)
        raw.append(masses)
        eigs = solve_eigen(atoms)
        lam = eigs.eigenvalues
        lo, hi = _fit_window(len(lam), index_window if lvl == levels[-1] else None)
        if hi - lo + 1 < 10:
            raise ValueError(
                f"window [{lo}, {hi}] at level {lvl} has fewer than 10 points"
            )
        idx = np.arange(lo, hi + 1)
        (slope, _), cov = np.polyfit(np.log(idx), np.log(lam[idx - 1]), 1, cov=True)
        slopes.append((lvl, float(slope)))
        if lvl == levels[-1]:
            stderr_finest = float(np.sqrt(cov[0, 0]))
            window_finest = (lo, hi)
    finest_slope = slopes[-1][1]
    drift = max(abs(s - finest_slope) for _, s in slopes)
    if reference_levels is None and not isinstance(spec, Atomic):
        s1 = _fixed_point(1.0, _check_levels(levels), raw).s_hat
    else:
        ref_levels = list(reference_levels) if reference_levels is not None else levels
        s1 = s_b_estimate(spec, 1.0, ref_levels).s_hat
    reference = -1.0 / s1 if s1 > 0 else -math.inf
    return OrderFit(
        slope=finest_slope,
        stderr=stderr_finest,
        level=levels[-1],
        window=window_finest,
        per_level=tuple(slopes),
        drift=drift,
        s1_hat=s1,
        reference_slope=reference,
    )


# ---------------------------------------------------------------------------
# Counting-function splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitCountReport:
    """Eigenvalue-counting comparison between the full interval and the
    direct sum over cut subintervals.

    For each grid x the gap N_full(x) - sum_k N_k(x) must lie in [0, n_cuts]:
    restricting to functions vanishing at the n cut points removes at most n
    eigenvalue crossings.
    """

    level: int | None
    cuts: tuple[float, ...]
    x_grid: np.ndarray
    n_full: np.ndarray
    n_split_sum: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.n_full - self.n_split_sum

    @property
    def passed(self) -> bool:
        g = self.gaps
        return bool(np.all(g >= 0) and np.all(g <= len(self.cuts)))


def split_counting_check(spec: MeasureSpec, level: int | None,
                         cuts: Sequence[float], x_grid: Sequence[float]
                         ) -> SplitCountReport:
    """Solve the eigenproblem on the full interval and on every piece between
    consecutive cut points (Dirichlet conditions at the cuts, using only the
    atoms strictly inside), then compare counting functions on the grid.

    The cuts must carry no mass: an atom exactly at a cut is rejected.
    """
    atoms = discretize(spec, level if level is not None else 0)
    cuts = tuple(sorted(float(c) for c in cuts))
    if not cuts:
        raise ValueError("at least one cut point is required")
    if cuts[0] <= 0.0 or cuts[-1] >= 1.0 or len(set(cuts)) != len(cuts):
        raise ValueError("cuts must be distinct points strictly inside (0, 1)")
    for c in cuts:
        if np.any(atoms.points == c):
            raise ValueError(f"cut {c} coincides with an atom; the sandwich needs nu(cut)=0")
    xs = np.asarray(list(x_grid), dtype=float)
    if len(xs) == 0 or np.any(xs <= 0):
        raise ValueError("x_grid must contain positive values")

    full = solve_eigen(atoms).eigenvalues
    boundaries = (0.0,) + cuts + (1.0,)
    piece_eigs = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        inside = (atoms.points > lo) & (atoms.points < hi)
        if not np.any(inside):
            piece_eigs.append(np.zeros(0))
            continue
        lam, _, _ = _solve_string(atoms.points[inside], atoms.weights[inside],
                                  lo, hi, want_vectors=False)
        piece_eigs.append(lam)

    def count(arr, x):
        asc = arr[::-1]
        return int(len(asc) - np.searchsorted(asc, x, side="left"))

    n_full = np.array([count(full, x) for x in xs])
    n_sum = np.array([sum(count(p, x) for p in piece_eigs) for x in xs])
    return SplitCountReport(level=level, cuts=cuts, x_grid=xs,
                            n_full=n_full, n_split_sum=n_sum)
