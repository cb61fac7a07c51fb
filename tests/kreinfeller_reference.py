"""The eigen-solve ``split_counting_check`` that ``lqspectra.kreinfeller``
used before it counted eigenvalues by inertia, kept unchanged as the
reference for the differential tests in ``tests/test_kreinfeller.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lqspectra.kreinfeller import SplitCountReport, _solve_string, discretize, solve_eigen
from lqspectra.measures import MeasureSpec


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
