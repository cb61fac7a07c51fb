"""Independent references for the benchmark's checks.

Nothing here calls into ``lqspectra``: masses come from integer bucketing,
block sums, closed-form weight products and the Cantor function; spectra and
fixed points from those masses with ``scipy.optimize.brentq``; L^q errors
of cube-wise means from midpoint sums over sub-cube masses; eigenvalue counts
from an LDL^T (Sturm) recurrence.
Every ``check_*`` helper returns a list of problems, empty when the program's
output agrees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from collections import Counter

import numpy as np
from scipy.optimize import brentq

# ---------------------------------------------------------------------------
# Cube masses
# ---------------------------------------------------------------------------


def cube_index(x: Fraction, n: int) -> int:
    """Index l of the half-open level-n interval (l 2^-n, (l+1) 2^-n] holding x."""
    return -((-x.numerator << n) // x.denominator) - 1


def atomic_masses(points: list[tuple[Fraction, ...]], weights: list[float], n: int) -> np.ndarray:
    """Positive level-n masses of an atomic measure, by integer bucketing."""
    buckets: dict[tuple[int, ...], list[float]] = {}
    for pt, w in zip(points, weights):
        key = tuple(cube_index(x, n) for x in pt)
        buckets.setdefault(key, []).append(w)
    return np.array([math.fsum(ws) for ws in buckets.values()])


def density_masses(values: np.ndarray, depth: int, n: int) -> np.ndarray:
    """Positive level-n masses of a 2D grid density, by block sums."""
    cell = np.asarray(values, dtype=float) * math.ldexp(1.0, -2 * depth)
    side = 1 << depth
    if n <= depth:
        block = side >> n
        sums = cell.reshape(1 << n, block, 1 << n, block).sum(axis=(1, 3))
        out = sums.ravel()
    else:
        share = 1 << (2 * (n - depth))
        out = np.repeat(cell.ravel() / share, share)
    return out[out > 0]


def product_masses(weights: list[float], n: int) -> np.ndarray:
    """Level-n masses of a ratio-1/2 dyadic IFS: every product of n weights,
    one per word, written as powers with multinomial multiplicities."""
    r = len(weights)
    out = []
    for word in combinations_with_replacement(range(r), n):
        counts = Counter(word)
        mass = math.prod(weights[i] ** k for i, k in counts.items())
        mult = math.factorial(n)
        for k in counts.values():
            mult //= math.factorial(k)
        out.append(np.full(mult, mass))
    return np.concatenate(out) if out else np.array([1.0])


def binomial_masses(p: float, n: int) -> np.ndarray:
    """Level-n masses of binomial(p) in index order: p per left step, 1 - p
    per right step, read from the bits of the index."""
    ones = np.array([bin(k).count("1") for k in range(1 << n)])
    return p ** (n - ones) * (1.0 - p) ** ones


def mixture_binomial_masses(c: float, p: float, n: int) -> np.ndarray:
    """Level-n masses of c * Lebesgue + (1 - c) * binomial(p) on (0, 1]."""
    return c * math.ldexp(1.0, -n) + (1.0 - c) * binomial_masses(p, n)


def mixed_ratio_masses(images: list[tuple[int, int]], weights: list[float], n: int) -> np.ndarray:
    """Level-n masses of a 1D dyadic IFS with map images (k 2^-e, (k+1) 2^-e],
    from nu(Q) = sum_i p_i nu(T_i^-1 Q): a cube inside image i carries p_i
    times the mass of its preimage, a cube holding image i whole carries p_i."""
    memo: dict[int, dict[int, float]] = {0: {0: 1.0}}

    def level(n: int) -> dict[int, float]:
        if n in memo:
            return memo[n]
        out: dict[int, list[float]] = {}
        for (e, k), p in zip(images, weights):
            if e <= n:
                for idx, m in level(n - e).items():
                    out.setdefault((k << (n - e)) + idx, []).append(p * m)
            else:
                out.setdefault(k >> (e - n), []).append(p)
        memo[n] = {idx: math.fsum(ms) for idx, ms in out.items()}
        return memo[n]

    return np.array(list(level(n).values()))


def cantor_function(k: np.ndarray, n: int, digits: int = 60) -> np.ndarray:
    """Cantor function at x = k 2^-n from the ternary digits of x: digits
    0 and 2 contribute bits 0 and 1, the first digit 1 contributes a final
    1 bit.  Truncation after ``digits`` digits errs by at most 2^-digits."""
    num = np.asarray(k, dtype=np.int64).copy()
    den = 1 << n
    value = np.zeros(len(num))
    done = np.zeros(len(num), dtype=bool)
    for j in range(1, digits + 1):
        num *= 3
        d = num // den
        num -= d * den
        bit = math.ldexp(1.0, -j)
        value += np.where(~done & (d == 2), bit, 0.0)
        value += np.where(~done & (d == 1), bit, 0.0)
        done |= d == 1
    value[np.asarray(k) == den] = 1.0
    return value


def cantor_masses(n: int) -> np.ndarray:
    """Positive level-n masses of the ratio-1/3 Cantor measure."""
    cdf = cantor_function(np.arange((1 << n) + 1), n)
    out = np.diff(cdf)
    return out[out > 0]


def check_masses(got: np.ndarray, ref: np.ndarray, rtol: float, atol: float) -> list[str]:
    got = np.sort(np.asarray(got, dtype=float))
    ref = np.sort(np.asarray(ref, dtype=float))
    if got.shape != ref.shape:
        return [f"{len(got)} positive cubes, reference has {len(ref)}"]
    err = np.abs(got - ref)
    bad = err > atol + rtol * ref
    if np.any(bad):
        i = int(np.argmax(err - rtol * ref))
        return [f"mass {got[i]!r} vs reference {ref[i]!r} ({int(bad.sum())} cubes off)"]
    return []


# ---------------------------------------------------------------------------
# Spectra and fixed points
# ---------------------------------------------------------------------------


def beta_from_masses(masses: np.ndarray, n: int, s: float) -> float:
    """beta_n(s) = log2(sum_Q nu(Q)^s) / n with a max shift."""
    x = s * np.log2(masses)
    shift = float(x.max())
    return (shift + math.log2(math.fsum(np.exp2(x - shift)))) / n


def selfsimilar_beta(weights: list[float], s: float) -> float:
    """Closed form log2(sum_i p_i^s) of a ratio-1/2 IFS, at every level."""
    return math.log2(math.fsum(p ** s for p in weights))


def root(fn, b: float) -> float:
    """Root in [0, 1] of fn(s) = b s, or 0 when fn(0) <= 0."""
    if fn(0.0) <= 0.0:
        return 0.0
    return brentq(lambda s: fn(s) - b * s, 0.0, 1.0, xtol=1e-15)


def check_close(label: str, got, ref, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} vs reference {ref.shape}"]
    err = np.abs(got - ref)
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        return [f"{label}: {got.ravel()[i]!r} vs reference {ref.ravel()[i]!r} (tol {tol})"]
    return []


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def check_tiling(cubes) -> list[str]:
    """Disjoint dyadic cubes whose exact volumes sum to 1 tile the unit cube."""
    m = len(cubes[0].index)
    keys = {(c.level, tuple(c.index)) for c in cubes}
    if len(keys) != len(cubes):
        return ["a cube is listed twice"]
    volume = sum(Fraction(1, 1 << (c.level * m)) for c in cubes)
    if volume != 1:
        return [f"cube volumes sum to {volume}, not 1"]
    for level, index in keys:
        for up in range(1, level + 1):
            if (level - up, tuple(l >> up for l in index)) in keys:
                return [f"cube {(level, index)} lies inside another cube"]
    return []


def j_count_bounds(weights: list[float], m: int, a: float, t: float) -> tuple[int, int]:
    """#{Q : J_a(Q) >= t} for a ratio-1/2 IFS from closed-form masses, as a
    (low, high) pair that brackets J values within 1e-9 of t."""
    lo_t, hi_t = t * (1.0 + 1e-9), t * (1.0 - 1e-9)
    low = high = 0
    top = max(weights)
    n = 0
    while 2.0 ** (-n * m * a) * top ** n >= hi_t:
        scale = 2.0 ** (-n * m * a)
        for word in combinations_with_replacement(range(len(weights)), n):
            counts = Counter(word)
            j = scale * math.prod(weights[i] ** k for i, k in counts.items())
            if j < hi_t:
                continue
            mult = math.factorial(n)
            for k in counts.values():
                mult //= math.factorial(k)
            high += mult
            if j >= lo_t:
                low += mult
        n += 1
    return low, high


def check_cardinality(card: int, weights: list[float], m: int, a: float, t: float) -> list[str]:
    """card(t) = 1 + (2^m - 1) #{Q : J_a(Q) >= t}."""
    low, high = j_count_bounds(weights, m, a, t)
    k = (1 << m) - 1
    if not (1 + k * low <= card <= 1 + k * high):
        return [f"cardinality {card} at t={t!r}, closed form gives {1 + k * low}"
                + (f"..{1 + k * high}" if high != low else "")]
    return []


def binomial_sub_masses(p: float, level: int, index: tuple[int, ...], k: int) -> np.ndarray:
    """Masses of the level-(level + k) sub-cubes of one binomial(p) cube:
    nu(Q) times the level-k masses, by self-similarity."""
    ones = bin(index[0]).count("1")
    return p ** (level - ones) * (1.0 - p) ** ones * binomial_masses(p, k)


def density_sub_masses(values: np.ndarray, depth: int, level: int, index: tuple[int, ...],
                       k: int) -> np.ndarray:
    """Masses of the level-(level + k) sub-cubes of one cube of a 2D grid
    density, for level + k >= depth: the density of the grid cell holding
    each sub-cube times its volume."""
    fine = level + k
    if fine < depth:
        raise ValueError(f"sub-cubes at level {fine} are coarser than the grid ({depth})")
    rows = [((i << k) + np.arange(1 << k)) >> (fine - depth) for i in index]
    return np.asarray(values, dtype=float)[np.ix_(*rows)] * math.ldexp(1.0, -2 * fine)


def expsum_mean_error(cubes, sub_masses, q: float, k: int) -> float:
    """(int |u - P u|^q dnu)^(1/q) for u = exp(x_1 + ... + x_m) and P u the
    Lebesgue mean of u on each cube (the ell = 1 projection), as a midpoint
    sum over the level-(l + k) sub-cubes of each cube weighted by
    ``sub_masses(cube, k)``, an array with one axis per coordinate.  The
    mean is the closed form prod_i e^(a_i) (e^h - 1) / h."""
    total = []
    for cube in cubes:
        h = math.ldexp(1.0, -cube.level)
        mids = (np.arange(1 << k) + 0.5) * math.ldexp(h, -k)
        u = np.ones(())
        mean = 1.0
        for i in cube.index:
            u = np.multiply.outer(u, np.exp(i * h + mids))
            mean *= math.exp(i * h) * math.expm1(h) / h
        total.append(float(np.sum(sub_masses(cube, k).reshape(u.shape) * np.abs(u - mean) ** q)))
    return math.fsum(total) ** (1.0 / q)


# ---------------------------------------------------------------------------
# Krein-Feller strings
# ---------------------------------------------------------------------------


def _inverse_gaps(points: np.ndarray) -> np.ndarray:
    """1/g for the gaps g between 0, the beads and 1."""
    return 1.0 / np.diff(np.concatenate(([0.0], points, [1.0])))


def string_matrix(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of C = W^-1/2 K W^-1/2 for the Dirichlet
    string on (0, 1) with beads at ``points``."""
    inv = _inverse_gaps(points)
    sw = np.sqrt(weights)
    return (inv[:-1] + inv[1:]) / weights, -inv[1:-1] / (sw[:-1] * sw[1:])


def sturm_counts(points: np.ndarray, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """#{lambda > x} for each x: the negative pivots of C - (1/x) I in an
    LDL^T recurrence (Sylvester's law of inertia)."""
    d, e = string_matrix(points, weights)
    sigma = 1.0 / np.asarray(xs, dtype=float)
    piv = d[0] - sigma
    count = (piv < 0).astype(int)
    for j in range(1, len(d)):
        piv = d[j] - sigma - e[j - 1] ** 2 / piv
        count += piv < 0
    return count


def binomial_s1(p: float) -> float:
    """Fixed point beta(s) = s of the binomial spectrum: p^s + q^s = 2^s."""
    return brentq(lambda s: p ** s + (1 - p) ** s - 2.0 ** s, 1e-9, 1.0, xtol=1e-14)

