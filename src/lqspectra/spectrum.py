"""Finite-level L^q-spectra, their fixed points, and approximation-order bounds.

The level-n spectrum of a probability measure nu is

    beta_n(s) = log2( sum over positive-mass level-n cubes of nu(C)^s ) / n,

a convex, non-increasing function of s >= 0 with beta_n(1) = 0.  For s = 0
the sum counts the positive-mass cubes, i.e. zero-mass cubes are excluded
rather than given the value 0^0 = 1.

A level's masses take few distinct values on self-similar measures (the
binomial at level 18 has 262,144 cubes and 31 distinct log2 masses), so
each level is read once into its distinct log2 masses l_1 < ... < l_K and
their cube counts c_k (distinct masses whose log2 rounds to the same value
are merged), and every evaluation is the grouped sum

    sum_C nu(C)^s = 2^shift * sum_k c_k 2^(s*l_k - shift)

over K values instead of N cubes.  Sums are evaluated in log space with a
max shift, so skewed weights at depth (cube masses around 1e-300) do not
underflow.  The shift is s * l_K: rounding is monotone, so for s >= 0 it
equals the largest rounded product s * l_k, and no pass over the products
is needed to find it.  The counts are held as floats, exact below 2^53;
when every count is 1 the multiply by c_k is skipped, which changes no value.

Fixed points: for b > 0 the function g(s) = beta_n(s) - b*s is continuous
and strictly decreasing wherever it matters, non-negative at 0 and negative
at 1, so it has a unique root s_{n,b} in [0, 1].  Bisection on [0, 1] finds
it, halving down to a width below 1e-14 (47 midpoints); the sign of the
computed g at each midpoint decides the step.  A level of one cube has
beta_n(0) = 0 and root 0; a level of N > 1 equal masses is one group, and
its root is not 0 (m / (m + b) for Lebesgue measure in dimension m).

Most of those signs are certain before they are computed.  Let g~ be g as
an exact function of the computed log2 masses l_k, and g^ the computed g.
If max l_k <= 0, g~ is strictly decreasing (g~' = sum_k w_k l_k / n - b <=
-b with weights w_k >= 0), and an a-priori bound E >= |g^ - g~| on [0, 1]
turns two evaluations into a certified bracket (a, c): once g^(a) > 2E, every
s <= a has g^(s) >= g~(s) - E >= g~(a) - E >= g^(a) - 2E > 0, and once
g^(c) < -2E every s >= c has g^(s) < 0.  The bisection then takes the step
of a midpoint outside (a, c) without evaluating g there, and the steps, the
iterates and the returned root are exactly those of evaluating every
midpoint.  A few Newton steps from s = 0, which approach the root from the
left because g is convex and decreasing, put a and c a few E/|g'| either
side of it; a check that fails widens the bracket a few times and then
gives it up, and the bisection evaluates every midpoint.

The bound E, for N cubes (N = sum_k c_k, not the number K of groups),
M = -min l_k, L = log2 N and u = 2^-53, follows the evaluation step by step
for s in [0, 1]:

- the products s*l_k and the differences from the shift err by at most
  2.01 u s M in the exponents, which moves the log2 of the sum by as much
  (the rounding of the shift itself cancels: the same computed shift is
  added back);
- exp2 errs by about one ulp per term, and the multiply by the exact count
  c_k rounds once more, a relative u per term; terms that underflow lose at
  most c_k 2^-1075 each, N 2^-1075 in all, against a sum >= 1 (its largest
  term is at least 2^0); numpy's pairwise sum of the K <= N terms errs by at
  most (L + 16) u in relative terms, all positive terms; log2 turns a
  relative error e into at most e / ln 2, and 1 / ln 2 < 2;
- log2 of the sum, which lies in [1, N], errs by about u L, and adding the
  shift back by u (s M + L);
- dividing by n errs by u |beta_n|, with |beta_n| <= (L + M) / n on
  [0, 1], and b*s and the final difference by u b and u (|beta_n| + b).

Together E0 = u ((4M + 5L + 34) / n + 2 (L + M) / n + 2b) <= u ((6M + 7L +
34) / n + 2b), of which the rounding of the count multiply gives 2 of the
34, and the code uses E = 64 E0: the factor covers exp2 and log2
implementations up to tens of ulps off.  The bound needs a finite b.

The limit behaviour in n is estimated by the max of the roots over the tail
half of the requested levels, and the whole sequence is reported because no
convergence rate is available in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _checks
from .measures import MeasureSpec, _supports, support_masses

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

BISECT_WIDTH = 1e-14
MAX_BISECT = 200
CERT_SAFETY = 64.0  # the factor of E over the step-by-step rounding bound E0
NEWTON_STEPS = 12
NEWTON_TOL = 1e-7  # the next iterate is then off by about g''/(2|g'|) * 1e-14
WIDENINGS = 4


def _bisect(positive: Callable[[float], bool], lo: float, hi: float, relative: bool = False,
            certified: tuple[float, float] = (-math.inf, math.inf)) -> float:
    """Midpoint of the final bracket of a bisection on [lo, hi] that moves
    ``lo`` up to every midpoint where ``positive`` holds and ``hi`` down to
    the others, until the width falls below 1e-14 (times max(1, |mid|) if
    ``relative``).  ``positive`` is taken as true at midpoints <= a and as
    false at midpoints >= c, for ``certified`` = (a, c), without a call."""
    a, c = certified
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < BISECT_WIDTH * (max(1.0, abs(mid)) if relative else 1.0):
            break
        if mid <= a or (mid < c and positive(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _MassGroups(NamedTuple):
    """One level's positive cube masses as distinct log2 values with counts."""

    log2: np.ndarray  # the distinct l_k, ascending
    counts: np.ndarray | None  # the float c_k, or None when every c_k is 1
    cubes: int  # N = sum_k c_k


def _mass_groups(masses: np.ndarray) -> _MassGroups:
    """The :class:`_MassGroups` of the positive masses of one level."""
    distinct, counts = np.unique(masses, return_counts=True)
    log2 = np.log2(distinct)
    # distinct masses whose log2 rounds to one value are adjacent: merge them
    starts = np.flatnonzero(np.diff(log2, prepend=-np.inf))
    if len(starts) < len(log2):
        log2, counts = log2[starts], np.add.reduceat(counts, starts)
    return _MassGroups(log2, None if len(log2) == len(masses) else counts.astype(float),
                       len(masses))


def _log2_moment(groups: _MassGroups, s: float,
                 out: np.ndarray | None = None) -> tuple[float, float]:
    """(shift, total) with sum_k c_k 2^(s*l_k) = 2^shift * total, for s >= 0
    and the shift s * max_k l_k; ``out``, shaped like the l_k, is left holding
    the terms c_k 2^(s*l_k - shift)."""
    x = np.multiply(groups.log2, s, out=out)
    shift = s * float(groups.log2[-1])
    np.subtract(x, shift, out=x)
    with np.errstate(under="ignore"):
        np.exp2(x, out=x)
    if groups.counts is not None:
        np.multiply(x, groups.counts, out=x)
    return shift, float(x.sum())


def _beta(groups: _MassGroups, n: int, s: float, out: np.ndarray | None = None) -> float:
    """beta_n(s) of one level; ``out``, shaped like its l_k, is scratch space
    that a caller evaluating many s can pass to every call."""
    shift, total = _log2_moment(groups, s, out)
    return (shift + math.log2(total)) / n


def beta_n(spec: MeasureSpec, n: int, s: float) -> float:
    """Level-n L^q-spectrum beta_n(s); requires n >= 1 and finite s >= 0."""
    _checks.count("n", n, what="a level")
    _checks.real("s", s, inclusive=True)
    return _beta(_mass_groups(support_masses(spec, n)), n, s)


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
    s = _checks.grid("s_grid", s_grid, inclusive=True)
    _checks.count("n", n, what="a level")
    groups = _mass_groups(support_masses(spec, n))
    buf = np.empty_like(groups.log2)
    vals = np.array([_beta(groups, n, float(si), buf) for si in s])
    return SpectrumCurve(n, s, vals)


def s_nb(spec: MeasureSpec, n: int, b: float) -> float:
    """Unique root in [0, 1] of beta_n(s) = b*s, by bisection to ~1e-14.

    Returns 0 when beta_n(0) <= 0 already (single-cube support).
    """
    _checks.real("b", b)
    _checks.count("n", n, what="a level")
    return _root(_mass_groups(support_masses(spec, n)), n, b)


def _root(groups: _MassGroups, n: int, b: float) -> float:
    """s_{n,b} of one level's mass groups."""
    if groups.cubes == 1:
        return 0.0  # beta_n(0) = log2(1) / n = 0: the root is 0
    buf = np.empty_like(groups.log2)

    def g(s):
        return _beta(groups, n, s, buf) - b * s

    certified = (-math.inf, math.inf)
    if groups.log2[-1] <= 0.0:  # g~ strictly decreasing: a bracket can be certified
        certified = _certified_bracket(g, groups, n, b, buf)
    return _bisect(lambda s: g(s) > 0.0, 0.0, 1.0, certified=certified)


def _rounding_bound(groups: _MassGroups, n: int, b: float) -> float:
    """E0 of the module docstring: a bound on |g^ - g~| over [0, 1]."""
    spread = -float(groups.log2[0])
    return 2.0 ** -53 * ((6.0 * spread + 7.0 * math.log2(groups.cubes) + 34.0) / n + 2.0 * b)


def _certified_bracket(g: Callable[[float], float], groups: _MassGroups, n: int, b: float,
                       buf: np.ndarray) -> tuple[float, float]:
    """(a, c) with g(a) > 2E and g(c) < -2E for the bound E of the module
    docstring, or an infinite end where no such point was found in (0, 1)."""
    err = CERT_SAFETY * _rounding_bound(groups, n, b)
    count = groups.cubes
    # Newton from s = 0, where g = log2(count) / n and g' = mean(l) / n - b
    s, value = 0.0, math.log2(count) / n
    l_sum = float(groups.log2.sum() if groups.counts is None
                  else np.dot(groups.counts, groups.log2))
    slope = l_sum / (count * n) - b
    for _ in range(NEWTON_STEPS):
        step = -value / slope
        s += step
        if abs(step) < NEWTON_TOL:
            break
        shift, total = _log2_moment(groups, s, buf)
        value = (shift + math.log2(total)) / n - b * s
        slope = float(np.dot(buf, groups.log2)) / (total * n) - b
    half_width = 4.0 * err / -slope

    def end(sign):
        width = half_width
        for _ in range(WIDENINGS):
            t = s + sign * width
            if not 0.0 < t < 1.0:
                break  # no midpoint lies beyond t
            if sign * g(t) < -2.0 * err:
                return t
            width *= 8.0
        return sign * math.inf

    return end(-1.0), end(1.0)


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
    return _fixed_points(spec, [b], levels)[0]


def _fixed_points(spec: MeasureSpec, bs: Sequence[float],
                  levels: Sequence[int]) -> list[FixedPoint]:
    """:func:`s_b_estimate` for each b of ``bs``, from one walk of the levels."""
    for b in bs:
        _checks.real("b", b)
    levels = _checks.levels("levels", levels)
    # one walk to the deepest level, keeping each level's mass groups; the
    # roots are solved after it, when no frontier is left
    per_level = list(map(_mass_groups, map(itemgetter(1), _supports(spec, levels))))
    return [_fixed_point(b, levels, per_level) for b in bs]


def _fixed_point(b: float, levels: tuple[int, ...],
                 per_level: Iterable[_MassGroups]) -> FixedPoint:
    """s_b_estimate from the :func:`_mass_groups` of the positive cube masses
    of each level, as :func:`support_masses` returns them."""
    roots = []
    residuals = []
    for n, groups in zip(levels, per_level):
        r = _root(groups, n, b)
        roots.append(r)
        residuals.append(abs(_beta(groups, n, r) - b * r) if r > 0.0 else 0.0)
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
    w, r = np.asarray(weights, dtype=float), np.asarray(ratios, dtype=float)
    if w.shape != r.shape or w.ndim != 1 or len(w) < 1:
        raise ValueError("weights and ratios must be 1D arrays of equal length")
    if not np.all((0 < r) & (r < 1)):  # a NaN ratio fails too
        raise ValueError("ratios must lie in (0, 1)")
    _checks.probabilities("weights", w)
    return w, r


def selfsimilar_beta(weights: Sequence[float], ratios: Sequence[float], s: float) -> float:
    """Spectrum value beta(s) of a self-similar measure: the unique root in
    beta of sum_i p_i^s r_i^beta = 1 (strictly decreasing in beta)."""
    _checks.real("s", s, inclusive=True)
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
    return _bisect(lambda beta: f(beta) > 0.0, lo, hi, relative=True)


def selfsimilar_s_rho(weights: Sequence[float], ratios: Sequence[float], rho: float) -> float:
    """Fixed point of the self-similar spectrum against the line rho*s: the
    unique root in (0, 1) of sum_i (p_i r_i^rho)^s = 1."""
    _checks.real("rho", rho)
    w, r = _check_ifs_data(weights, ratios)
    if len(w) == 1:
        return 0.0  # single-map system: point mass, degenerate fixed point
    logc = np.log(w) + rho * np.log(r)
    return _bisect(lambda s: float(np.exp(s * logc).sum()) > 1.0, 0.0, 1.0)


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
        _checks.count("ell", self.ell)
        _checks.count("m", self.m)
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
