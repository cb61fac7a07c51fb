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
*tridiagonal* standard problem C y = mu y with mu = 1/lambda, whose N
eigenvalues scipy's ``eigh_tridiagonal`` computes in O(N^2); N = 4096
atoms stay comfortably at desk scale.  scipy is imported on the first
solve, so importing this module loads numpy only.

Counting needs no solve: by Sylvester's law of inertia the number of
eigenvalues lambda >= x is the number of negative pivots in the LDL^T
factorisation of the tridiagonal K - W/x, an O(N) recurrence per x
(``split_counting_check``).

Eigenvalues are reported in decreasing order; sqrt(lambda_(n+1)) equals the
Kolmogorov n-width of the Dirichlet-space unit ball in L^2 of the atomic
measure, which is the bridge to the partition/width modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _checks
from .measures import Atomic, MeasureSpec, _supports
from .spectrum import _fixed_point, _mass_groups, s_b_estimate

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

    Atomic specs pass through unchanged (sorted) and need no level.
    Midpoints are used rather than endpoints so discretization atoms never
    sit on the dyadic grid, keeping them clear of typical cut points in the
    counting checks.
    """
    (atoms, _), = _discretize(spec, [n])
    return atoms


def _discretize(spec: MeasureSpec, levels: Sequence[int]
                ) -> Iterable[tuple[AtomicApprox, np.ndarray | None]]:
    """discretize(spec, n) at each of the non-decreasing ``levels``, from one
    walk, with the unnormalised level-n masses it used (None for the atomic
    passthrough, which uses none)."""
    if spec.dim != 1:
        raise ValueError("the eigensolver only handles 1D measures")
    if isinstance(spec, Atomic):
        pts = np.array([float(p[0]) for p in spec.points])
        order = np.argsort(pts)
        atoms = AtomicApprox(pts[order], np.asarray(spec.weights)[order],
                             provenance="atomic passthrough")
        return [(atoms, None)] * len(levels)
    if None in levels:
        raise ValueError("a level is required to discretize a non-atomic measure")
    return map(_midpoint_atoms, levels, _supports(spec, levels))


def _midpoint_atoms(n, support):
    keys, masses = support
    # a 1D key is the cube's index l; the midpoint is (2l + 1) 2^-(n+1)
    pts = np.asarray((2 * keys + 1) * math.ldexp(1.0, -(n + 1)), dtype=float)
    return AtomicApprox(pts, masses / math.fsum(masses),
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
    from scipy.linalg import eigh_tridiagonal

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
        from scipy.linalg import solve_banded

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
    _checks.real("x", x)
    asc = eigs.eigenvalues[::-1]
    return int(len(asc) - np.searchsorted(asc, x, side="left"))


def width_from_eigen(eigs: EigenSystem, n: int) -> float:
    """Exact Kolmogorov n-width for the discretized measure: sqrt of the
    (n+1)-st eigenvalue, and 0 beyond the finite rank."""
    if _checks.count("n", n, least=0) >= eigs.size:
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
    lo, hi = (_checks.count(f"index_window[{i}]", n) for i, n in enumerate(index_window))
    return lo, min(hi, n_eigs)


def order_fit(spec: MeasureSpec, levels: Sequence[int],
              index_window: tuple[int, int] | None = None,
              reference_levels: Sequence[int] | None = None) -> OrderFit:
    """Fit the eigenvalue decay order across discretization levels.

    The explicit ``index_window`` (1-based, inclusive) applies to the finest
    level; coarser levels always use the default policy scaled to their own
    rank.  Raises when the finest window holds fewer than 10 points.
    """
    levels = _checks.levels("levels", sorted(levels))
    _fit_window(0, index_window)  # an explicit window is checked before any solve
    slopes = []
    stderr_finest = window_finest = None
    raw = []  # each level's masses, reused by the fixed-point step below
    for lvl, (atoms, masses) in zip(levels, _discretize(spec, levels)):
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
        s1 = _fixed_point(1.0, levels, map(_mass_groups, raw)).s_hat
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


_ROW_BLOCK = 1024  # rows of K - W/x that _inertia_counts holds at once


def _inertia_counts(diag: np.ndarray, off: np.ndarray, weights: np.ndarray,
                    xs: np.ndarray) -> np.ndarray:
    """#{lambda >= x} for each x, for the pencil W u = lambda K u with K the
    tridiagonal matrix (``diag``, ``off``) and W = diag(``weights``).

    Counts the negative pivots of the LDL^T recurrence of K - W/x: a Python
    loop over the rows, each step vectorised over x.  A pivot smaller in
    magnitude than pivmin = tiny * max(1, max off^2) is replaced by -pivmin,
    LAPACK dstebz's rule: it keeps every division finite, and it counts an
    eigenvalue equal to x as >= x, since an exactly singular K - W/x ends in
    a zero pivot.
    """
    off2 = np.concatenate(([0.0], off * off))  # row j is coupled to row j-1 by off[j-1]
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max()))
    count = np.zeros(len(xs), dtype=np.int64)
    prev = np.ones(len(xs))
    step = np.empty(len(xs))
    for s in range(0, len(diag), _ROW_BLOCK):
        rows = slice(s, s + _ROW_BLOCK)
        piv = diag[rows, None] - weights[rows, None] / xs
        for row, o2 in zip(piv, off2[rows]):
            np.divide(o2, prev, out=step)
            row -= step
            row[np.abs(row) < pivmin] = -pivmin
            prev = row
        count += np.count_nonzero(piv < 0, axis=0)
    return count


def split_counting_check(spec: MeasureSpec | AtomicApprox, level: int | None,
                         cuts: Sequence[float], x_grid: Sequence[float]
                         ) -> SplitCountReport:
    """Count the eigenvalues >= x on the full interval and on every piece
    between consecutive cut points (Dirichlet conditions at the cuts, using
    only the atoms strictly inside), and compare the counts on the grid.
    ``spec`` is discretized at ``level``; an :class:`AtomicApprox` (such as
    ``discretize(spec, level)``, already at hand) is used as it is.

    No eigenvalue is computed: N(x) = #{lambda >= x} is the number of
    negative pivots of the LDL^T recurrence of K - W/x (Sylvester's law of
    inertia), O(N |x_grid|) for N atoms, a Python loop over the rows with
    all x at once.  A pivot of magnitude below pivmin = tiny * max(1, max
    off-diagonal^2) becomes -pivmin (LAPACK dstebz's rule), so no division
    overflows and an eigenvalue exactly at x counts as >= x.  The pieces
    form one block-diagonal string whose couplings across the cuts are
    zero, so the recurrence restarts at each cut and counts all pieces in
    one pass.  The cuts must carry no mass: an atom exactly at a cut is
    rejected.
    """
    atoms = spec if isinstance(spec, AtomicApprox) else discretize(spec, level)
    cuts = tuple(sorted(float(c) for c in cuts))
    if not cuts:
        raise ValueError("at least one cut point is required")
    if not all(0.0 < c < 1.0 for c in cuts) or len(set(cuts)) != len(cuts):
        raise ValueError("cuts must be distinct points strictly inside (0, 1)")
    for c in cuts:
        if np.any(atoms.points == c):
            raise ValueError(f"cut {c} coincides with an atom; the sandwich needs nu(cut)=0")
    xs = np.asarray(list(x_grid), dtype=float)
    if len(xs) == 0 or not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError("x_grid must contain finite positive values")

    pts, w = atoms.points, atoms.weights
    n_full = _inertia_counts(*stiffness_tridiagonal(pts), w, xs)
    boundaries = (0.0,) + cuts + (1.0,)
    diags, offs = [], []
    for piece, lo, hi in zip(np.split(pts, np.searchsorted(pts, cuts)),
                             boundaries, boundaries[1:]):
        if len(piece):
            d, e = stiffness_tridiagonal(piece, lo, hi)
            diags.append(d)
            offs.append(np.append(e, 0.0))
    n_sum = _inertia_counts(np.concatenate(diags), np.concatenate(offs)[:-1], w, xs)
    return SplitCountReport(level=level, cuts=cuts, x_grid=xs,
                            n_full=n_full, n_split_sum=n_sum)
