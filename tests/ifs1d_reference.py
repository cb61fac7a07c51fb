"""The GeneralIFS1D frontier engine as it was before its CDF chain took one
step for all maps at once, kept unchanged as the reference for the
differential tests in ``tests/test_engine.py``.

Each step of a chain compares the points with every image hull end over
Fractions, then walks the maps with one mask per map.  The walk below
expands level by level from the root, as the library's engine does, and
builds the children's arrays by broadcasting.
"""

from __future__ import annotations

import math

import numpy as np

from lqspectra.measures import GeneralIFS1D

_KEY_BITS = 62


class Ifs1DEngine:
    """State (lo, hi): the CDF F(x) = nu((0, x]) at the cube's end points."""

    def __init__(self, spec: GeneralIFS1D):
        maps = sorted(zip(spec.maps, spec.weights), key=lambda mw: mw[0].offset)
        a, b = (mp.offset / (1 - mp.ratio) for mp in (maps[0][0], maps[-1][0]))
        self.cut = spec.mass_tol / 4.0
        self.p = [p for _, p in maps]
        self.below = np.concatenate(([0.0], np.cumsum(self.p)))
        self.hulls, self.inverse = [], []
        for mp, _ in maps:
            r, c = mp.ratio, mp.offset
            self.hulls.append((c + r * a, c + r * b))
            u, v = 1 / r, c / r  # y -> u y - v = (P y - Q) / R
            den = math.lcm(u.denominator, v.denominator)
            self.inverse.append((int(u * den), int(v * den), den))
        self.lcm = math.lcm(*(den for _, _, den in self.inverse))
        self.bound = max([max(x.numerator, x.denominator) for hull in self.hulls for x in hull]
                         + [max(pv, qv) for pv, qv, _ in self.inverse])

    def exact64(self, level: int) -> bool:
        """Whether the chains of a level-``level`` call run on int64."""
        return self.lcm == 1 and self.bound * (1 << level) < 1 << _KEY_BITS

    def cdf(self, nums: np.ndarray, level: int) -> np.ndarray:
        D = 1 << level
        exact64 = self.exact64(level)
        N = np.array(nums.tolist(), dtype=np.int64 if exact64 else object)
        F = np.zeros(len(N))
        w = np.ones(len(N))
        live = np.arange(len(N))
        while len(live):
            left = sum((N * e.denominator >= e.numerator * D).astype(np.intp)
                       for _, e in self.hulls)
            F[live] += w * self.below[left]
            inside = np.zeros(len(N), dtype=bool)
            nxt = N.copy()
            for i, ((s, _), (pv, qv, den)) in enumerate(zip(self.hulls, self.inverse)):
                rows = (left == i) & (N * s.denominator > s.numerator * D)
                inside |= rows
                nxt[rows] = (pv * N[rows] - qv * D) * (self.lcm // den)
                w[rows] *= self.p[i]
            N, w, live, D = nxt[inside], w[inside], live[inside], D * self.lcm
            cut = w < self.cut
            F[live[cut]] += w[cut] * (N[cut] / D).astype(float)
            N, w, live = N[~cut], w[~cut], live[~cut]
        return F

    def walk(self, levels):
        """(keys, masses) of the positive-mass cubes at each of the
        ascending ``levels``, from one descent."""
        keys = np.zeros(1, dtype=np.int64)
        lo, hi = self.cdf(np.array([0, 1]), 0)
        lo, hi = np.array([lo]), np.array([hi])
        out = []
        for level in range(max(levels) + 1):
            if level in levels:
                out.append((keys, hi - lo))
            if level == max(levels):
                break
            if level + 1 > _KEY_BITS and keys.dtype != object:
                keys = keys.astype(object)
            mid = self.cdf(2 * keys + 1, level + 1)
            lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
            keep = hi - lo > 0.0
            keys = ((keys << 1)[:, None] | np.arange(2)).ravel()[keep]
            lo, hi = lo[keep], hi[keep]
        return out
