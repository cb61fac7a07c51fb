"""Finite-level L^q-spectra, their fixed points, and approximation-order bounds.

The level-n spectrum of a probability measure nu is

    beta_n(s) = log2( sum over positive-mass level-n cubes of nu(C)^s ) / n,

a convex, non-increasing function of s >= 0 with beta_n(1) = 0.  Sums are
evaluated in log space with a max shift, so skewed weights at depth (cube
masses around 1e-300) do not underflow.  For s = 0 the sum counts the
positive-mass cubes, i.e. zero-mass cubes are excluded rather than given
the value 0^0 = 1.

Fixed points: for b > 0 the function s -> beta_n(s) - b*s is continuous and
strictly decreasing wherever it matters, non-negative at 0 and negative at
1, so it has a unique root s_{n,b} in [0, 1]; bisection finds it without any
smoothness assumptions.  The limit behaviour in n is estimated by the max
of the roots over the tail half of the requested levels, and the whole
sequence is reported because no convergence rate is available in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .measures import MeasureSpec, ensure_valid, support_masses

__all__ = [
    "SpectrumCurve",
    "FixedPoint",
    "OrderParams",
    "OrderBound",
    "beta_n",
    "spectrum_curve",
    "s_nb",
    "s_b_estimate",
    "selfsimilar_beta",
    "selfsimilar_s_rho",
    "order_bound",
]

BISECT_TOL = 1e-12
MAX_BISECT = 200


def _beta_from_masses(log2_masses: np.ndarray, n: int, s: float,
                      out: np.ndarray | None = None) -> float:
    """beta_n(s) from the log2 masses; ``out``, shaped like them, is scratch
    space that a caller evaluating many s can pass to every call."""
    x = np.multiply(log2_masses, s, out=out)
    shift = float(x.max())
    np.subtract(x, shift, out=x)
    with np.errstate(under="ignore"):
        np.exp2(x, out=x)
    return (shift + math.log2(float(x.sum()))) / n


def beta_n(spec: MeasureSpec, n: int, s: float) -> float:
    """Level-n L^q-spectrum beta_n(s); requires n >= 1 and s >= 0."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    masses = support_masses(spec, n)
    return _beta_from_masses(np.log2(masses), n, s)


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled graph of beta_n over an s-grid at a fixed level."""

    level: int
    s_grid: np.ndarray
    values: np.ndarray

    def second_differences(self) -> np.ndarray:
        """Convexity diagnostic on a uniform grid (should be >= -1e-9)."""
        return np.diff(self.values, 2)


def spectrum_curve(spec: MeasureSpec, n: int, s_grid: Sequence[float]) -> SpectrumCurve:
    """Evaluate beta_n on a strictly increasing grid, reusing one mass sweep."""
    s = np.asarray(list(s_grid), dtype=float)
    if s.ndim != 1 or len(s) < 1 or np.any(np.diff(s) <= 0):
        raise ValueError("s_grid must be strictly increasing")
    if s[0] < 0:
        raise ValueError("s must be >= 0")
    if n < 1:
        raise ValueError("level must be >= 1")
    logm = np.log2(support_masses(spec, n))
    buf = np.empty_like(logm)
    vals = np.array([_beta_from_masses(logm, n, float(si), buf) for si in s])
    return SpectrumCurve(n, s, vals)


def s_nb(spec: MeasureSpec, n: int, b: float) -> float:
    """Unique root in [0, 1] of beta_n(s) = b*s, by bisection to ~1e-12.

    Returns 0 when beta_n(0) <= 0 already (single-cube support).
    """
    if b <= 0:
        raise ValueError("b must be > 0")
    if n < 1:
        raise ValueError("level must be >= 1")
    logm = np.log2(support_masses(spec, n))
    return _root_from_masses(logm, n, b)


def _root_from_masses(log2_masses: np.ndarray, n: int, b: float) -> float:
    buf = np.empty_like(log2_masses)

    def g(s):
        return _beta_from_masses(log2_masses, n, s, buf) - b * s

    if g(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FixedPoint:
    """Per-level roots s_{n,b} of beta_n(s) = b*s plus a tail estimate.

    ``s_hat`` is the max of the roots over the last ceil(len/2) levels, a
    finite-level surrogate for the limsup; inspect ``roots`` to judge
    convergence before trusting it.
    """

    b: float
    levels: tuple[int, ...]
    roots: np.ndarray
    residuals: np.ndarray
    s_hat: float


def s_b_estimate(spec: MeasureSpec, b: float, levels: Sequence[int]) -> FixedPoint:
    """Roots at every requested level and the tail-half max as the estimate."""
    levels = _check_levels(levels)
    ensure_valid(spec)
    return _fixed_point(b, levels, (support_masses(spec, n) for n in levels))


def _check_levels(levels: Sequence[int]) -> tuple[int, ...]:
    levels = tuple(int(n) for n in levels)
    if not levels or any(n < 1 for n in levels) or any(
        a >= c for a, c in zip(levels, levels[1:])
    ):
        raise ValueError("levels must be a nonempty strictly increasing list")
    return levels


def _fixed_point(b: float, levels: tuple[int, ...], masses: Iterable[np.ndarray]) -> FixedPoint:
    """s_b_estimate from the positive cube masses of each level, as
    :func:`support_masses` returns them."""
    roots = []
    residuals = []
    for n, logm in zip(levels, map(np.log2, masses)):
        r = _root_from_masses(logm, n, b)
        roots.append(r)
        residuals.append(abs(_beta_from_masses(logm, n, r) - b * r) if r > 0.0 else 0.0)
    tail = (len(levels) + 1) // 2
    return FixedPoint(
        b=float(b),
        levels=levels,
        roots=np.asarray(roots),
        residuals=np.asarray(residuals),
        s_hat=float(max(roots[-tail:])),
    )


# ---------------------------------------------------------------------------
# Closed forms for self-similar measures under the open set condition
# ---------------------------------------------------------------------------

def _check_ifs_data(weights, ratios):
    w = np.asarray(weights, dtype=float)
    r = np.asarray(ratios, dtype=float)
    if w.shape != r.shape or w.ndim != 1 or len(w) < 1:
        raise ValueError("weights and ratios must be 1D arrays of equal length")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1")
    if np.any(w <= 0) or np.any((r <= 0) | (r >= 1)):
        raise ValueError("weights must be positive and ratios in (0, 1)")
    return w, r


def selfsimilar_beta(weights: Sequence[float], ratios: Sequence[float], s: float) -> float:
    """Spectrum value beta(s) of a self-similar measure: the unique root in
    beta of sum_i p_i^s r_i^beta = 1 (strictly decreasing in beta)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    w, r = _check_ifs_data(weights, ratios)
    logw = np.log(w)
    logr = np.log(r)

    def f(beta):
        with np.errstate(over="ignore", under="ignore"):
            return float(np.exp(s * logw + beta * logr).sum()) - 1.0

    lo, hi = -1.0, 1.0
    while f(lo) < 0.0:
        lo *= 2.0
    while f(hi) > 0.0:
        hi *= 2.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14 * max(1.0, abs(mid)):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def selfsimilar_s_rho(weights: Sequence[float], ratios: Sequence[float], rho: float) -> float:
    """Fixed point of the self-similar spectrum against the line rho*s: the
    unique root in (0, 1) of sum_i (p_i r_i^rho)^s = 1."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    w, r = _check_ifs_data(weights, ratios)
    if len(w) == 1:
        return 0.0  # single-map system: point mass, degenerate fixed point
    logc = np.log(w) + rho * np.log(r)

    def g(s):
        return float(np.exp(s * logc).sum()) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Approximation-order bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderParams:
    """Smoothness/integrability parameters (p, q, ell, m) with the standing
    admissibility requirements q >= p > 1, ell*p/m > 1, and the derived
    exponent rho = q*(ell - m/p) > 0."""

    p: float
    q: float
    ell: int
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError(f"p and q must be finite (p={self.p}, q={self.q})")
        if not self.p > 1:
            raise ValueError(f"standing assumption violated: p > 1 fails (p={self.p})")
        if not self.q >= self.p:
            raise ValueError(
                f"standing assumption violated: q >= p fails (q={self.q}, p={self.p})"
            )
        if self.ell < 1 or self.m < 1:
            raise ValueError("ell and m must be positive integers")
        if not self.ell * self.p / self.m > 1:
            raise ValueError(
                f"standing assumption violated: ell*p/m > 1 fails "
                f"(ell={self.ell}, p={self.p}, m={self.m})"
            )
        if not self.rho > 0:
            raise ValueError(
                f"standing assumption violated: rho = q*(ell - m/p) = {self.rho} <= 0"
            )

    @property
    def rho(self) -> float:
        return self.q * (self.ell - self.m / self.p)


@dataclass(frozen=True)
class OrderBound:
    """Approximation-order upper bound -1/(q*s_rho) next to the classical
    uniform-measure bound -ell/m + 1/p - 1/q (never better than ours)."""

    value: float
    classical: float


def order_bound(params: OrderParams, s_rho: float) -> OrderBound:
    """Bound the log-log decay order of the widths given the fixed point s_rho."""
    if not (0 < s_rho <= 1):
        raise ValueError(f"s_rho must lie in (0, 1], got {s_rho}")
    value = -1.0 / (params.q * s_rho)
    classical = -params.ell / params.m + 1.0 / params.p - 1.0 / params.q
    if value > classical + 1e-12:
        raise ValueError(
            f"s_rho = {s_rho} exceeds the uniform-measure fixed point "
            f"m/(m+rho) = {params.m / (params.m + params.rho)}; inputs are inconsistent"
        )
    return OrderBound(value=value, classical=classical)
