"""The exact dyadic oracle's former fold, kept unchanged as the reference for
the differential tests.

It combines a split cube's children two at a time by the breakpoint merge
of :func:`_minmax_fold` and folds the leaf and empty children at once.
``tests/test_engine.py`` checks that :func:`lqspectra.partition._fold`,
which merges all 2^m children in one sort, gives the same bytes on the same
walk.
"""

from __future__ import annotations

import numpy as np

from lqspectra.partition import _Level


def _minmax_fold(A: np.ndarray, B: np.ndarray, size: int) -> np.ndarray:
    """out[k] = min over i+j=k (i, j >= 1) of max(A[i], B[j]) for k < size,
    inf where no such pair exists.  A[1:] and B[1:] must be non-increasing.

    For such inputs out[k] = min{T : c_A(T) + c_B(T) <= k} over the values
    T of A and B with T >= max(min A, min B), where
    c_X(T) = min{i >= 1 : X[i] <= T} = 1 + #{i : X[i] > T}.  So
    c_A(T) + c_B(T) = 2 + #{values of A and B above T}, and the least such T
    is the (k-1)-th largest value of the merged breakpoint lists, raised to
    max(min A, min B): one sort, and every output is an element of A or B."""
    a, b = A[1:], B[1:]
    out = np.full(size, np.inf)
    n = min(size, len(a) + len(b) + 1)
    if len(a) and len(b) and n > 2:
        merged = np.sort(np.concatenate((a, b)))[::-1]
        out[2:n] = np.maximum(merged[:n - 2], max(a[-1], b[-1]))
    return out


def _fold(levels: list[_Level], m: int, size: int) -> np.ndarray:
    """The oracle vector (length ``size``) over the partitions into cubes of
    the tree a walk visited and the empty children of the cubes it split.

    Bottom-up, a cube's vector is its own J_a (one cube) if the walk left it
    unsplit, and otherwise the smaller of that and the fold of its
    children's vectors, an empty child being a leaf of J_a 0.  These vectors
    are non-increasing in k, so each fold is the breakpoint merge of
    :func:`_minmax_fold`; the leaves among the children fold at once (g
    leaves cost g cubes and their max J_a).  A vector stops at the leaf
    count of its subtree, beyond which it is constant."""
    nkids = 1 << m
    infs = np.full(nkids, np.inf)
    below: list[np.ndarray] = []  # the vectors of the level under this one
    for depth in range(len(levels) - 1, -1, -1):
        lv = levels[depth]
        if depth + 1 == len(levels):  # the walk stopped here: every cube is a leaf
            split = [False] * len(lv.j)
        else:
            split = lv.split.tolist()
            # the children of row i are rows kids[i]:kids[i + 1] of the level below
            kids = np.searchsorted(levels[depth + 1].parent, np.arange(len(lv.j) + 1)).tolist()
        here = []
        for row, j in enumerate(lv.j.tolist()):
            if not split[row]:
                here.append(np.array([np.inf, j]))
                continue
            # the children that are leaves and the empty ones (J_a 0) cost one
            # cube each and together their max J_a, x
            parts, x = [], 0.0
            for r in range(kids[row], kids[row + 1]):
                if len(below[r]) > 2:
                    parts.append(below[r])
                else:
                    x = max(x, below[r][1])
            acc = parts[0] if parts else np.zeros(1)  # no cube, no cost
            for part in parts[1:]:
                acc = _minmax_fold(acc, part, min(size, len(acc) + len(part) - 1))
            group = nkids - len(parts)
            if group:
                acc = np.concatenate((infs[:group], np.maximum(acc, x)))[:size]
            vec = np.minimum(acc, j)
            vec[0] = np.inf
            here.append(vec)
        below = here
    top = below[0]
    v = np.full(size, top[-1])
    v[:len(top)] = top
    return v
