"""The spectrum layer before certified brackets and mass groups, kept as the
reference of the differential tests: plain bisections that evaluate every
midpoint, beta_n summed over every cube with its own pass for the max
shift, and one engine walk per level in s_b_estimate.

``grouped_root`` and ``grouped_s_b_estimate`` are the same plain bisection
over the package's grouped evaluator ``spectrum._beta``: the certified roots
must equal them bit for bit, while the full-N functions agree with the
grouped ones only to within a rounding bound."""

from __future__ import annotations

import math

import numpy as np

import lqspectra as lq
from lqspectra import spectrum

MAX_BISECT = 200


def beta_from_masses(log2_masses, n, s, out=None):
    """beta_n(s) from the log2 masses, the max shift found by a pass."""
    x = np.multiply(log2_masses, s, out=out)
    shift = float(x.max())
    np.subtract(x, shift, out=x)
    with np.errstate(under="ignore"):
        np.exp2(x, out=x)
    return (shift + math.log2(float(x.sum()))) / n


def root_from_masses(log2_masses, n, b, seen=None):
    """Root of beta_n(s) = b*s on [0, 1], every midpoint evaluated; the
    midpoints are appended to ``seen`` if it is given."""
    buf = np.empty_like(log2_masses)

    def g(s):
        return beta_from_masses(log2_masses, n, s, buf) - b * s

    if g(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if seen is not None:
            seen.append(mid)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _plain_bisection(g, seen):
    if g(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if seen is not None:
            seen.append(mid)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grouped_root(groups, n, b, seen=None):
    """Root of beta_n(s) = b*s on [0, 1] from one level's mass groups, every
    midpoint evaluated by ``spectrum._beta``; the midpoints are appended to
    ``seen`` if it is given."""
    buf = np.empty_like(groups.log2)
    return _plain_bisection(lambda s: spectrum._beta(groups, n, s, buf) - b * s, seen)


def grouped_s_b_estimate(spec, b, levels):
    """(roots, residuals, s_hat) of :func:`grouped_root`, one engine walk per level."""
    roots, residuals = [], []
    for n in levels:
        groups = spectrum._mass_groups(lq.support_masses(spec, n))
        r = grouped_root(groups, n, b)
        roots.append(r)
        residuals.append(abs(spectrum._beta(groups, n, r) - b * r) if r > 0.0 else 0.0)
    tail = (len(levels) + 1) // 2
    return np.asarray(roots), np.asarray(residuals), float(max(roots[-tail:]))


def s_nb(spec, n, b):
    return root_from_masses(np.log2(lq.support_masses(spec, n)), n, b)


def s_b_estimate(spec, b, levels):
    """(roots, residuals, s_hat), one engine walk per level."""
    roots, residuals = [], []
    for n in levels:
        logm = np.log2(lq.support_masses(spec, n))
        r = root_from_masses(logm, n, b)
        roots.append(r)
        residuals.append(abs(beta_from_masses(logm, n, r) - b * r) if r > 0.0 else 0.0)
    tail = (len(levels) + 1) // 2
    return np.asarray(roots), np.asarray(residuals), float(max(roots[-tail:]))


def spectrum_values(spec, n, s_grid):
    logm = np.log2(lq.support_masses(spec, n))
    buf = np.empty_like(logm)
    return np.array([beta_from_masses(logm, n, float(s), buf) for s in s_grid])


def selfsimilar_beta(weights, ratios, s):
    logw = np.log(np.asarray(weights, dtype=float))
    logr = np.log(np.asarray(ratios, dtype=float))

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


def selfsimilar_s_rho(weights, ratios, rho):
    if len(weights) == 1:
        return 0.0
    logc = np.log(np.asarray(weights, dtype=float)) + rho * np.log(np.asarray(ratios, dtype=float))

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
