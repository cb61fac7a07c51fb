"""The package docstring's parameter rules; a check's ValueError starts with the parameter name."""

import math

import numpy as np

NORMALIZATION_TOL = 1e-12  # the most a weight, density or mixture sum may miss 1 by


def _integer(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def real(name: str, x, bound: float = 0.0, inclusive: bool = False) -> None:
    """Raise unless ``x`` is finite and > ``bound`` (>= when ``inclusive``)."""
    if not (bound <= x < math.inf if inclusive else bound < x < math.inf):
        raise ValueError(f"{name} must be finite and >{'=' * inclusive} {bound:g} ({name}={x!r})")


def count(name: str, n, least: int = 1, what: str = "an integer") -> int:
    """``n``, when it is a Python or numpy integer >= ``least``."""
    if not _integer(n) or n < least:
        raise ValueError(f"{name} must be >= {least}, {what} ({name}={n!r})")
    return n


def grid(name: str, values, least: int = 1, inclusive: bool = False,
         increasing: bool = True) -> np.ndarray:
    """``values`` as a 1-D float array, when it holds >= ``least`` finite values, each > 0
    (>= 0 when ``inclusive``), strictly increasing when ``increasing``."""
    try:
        # an array is read as it is: a copy through a list takes several times its memory
        g = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    except (TypeError, ValueError):  # a scalar, a ragged list or an entry that is no number
        g = np.empty((0, 0))
    if not (g.ndim == 1 and len(g) >= least
            and np.all((g >= 0 if inclusive else g > 0) & (g < math.inf))  # a NaN fails too
            and not (increasing and np.any(g[1:] <= g[:-1]))):  # views: np.diff would copy g
        raise ValueError(f"{name} must be a {'strictly increasing ' * increasing}1-D grid of "
                         f">= {least} finite {'nonnegative' if inclusive else 'positive'} values")
    return g


def dimension(name: str, dim: int, measure_dim: int) -> None:
    """Raise unless ``name``, of dimension ``dim``, lives in the measure's ``measure_dim``."""
    if dim != measure_dim:
        raise ValueError(f"{name} has dimension {dim}, not the measure dimension {measure_dim}")


def levels(name: str, values) -> tuple[int, ...]:
    """``values`` as Python ints, when nonempty, strictly increasing and >= 1."""
    values = tuple(values)
    if (not values or not all(map(_integer, values)) or values[0] < 1
            or any(a >= c for a, c in zip(values, values[1:]))):
        raise ValueError(f"{name} must be a nonempty strictly increasing list of integers >= 1")
    return tuple(map(int, values))


def probability_defects(name: str, weights) -> list[str]:
    """What keeps ``weights`` from being a probability vector: every weight
    finite and > 0, and their fsum within NORMALIZATION_TOL of 1."""
    w = np.asarray(weights, dtype=float)
    if not np.all((0 < w) & (w < math.inf)):  # a NaN fails too
        return [f"{name} must be finite and positive"]
    try:
        total = math.fsum(w.tolist())
    except OverflowError:  # a sum beyond the largest float
        total = math.inf
    return [] if abs(total - 1.0) <= NORMALIZATION_TOL else [f"{name} sum to {total!r}, not 1"]


def probabilities(name: str, weights) -> None:
    """Raise the :func:`probability_defects` of ``weights``, if it has any."""
    if defects := probability_defects(name, weights):
        raise ValueError("; ".join(defects))
