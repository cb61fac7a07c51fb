"""The package docstring's parameter rules; a check's ValueError starts with the parameter name."""

import math

import numpy as np


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


def levels(name: str, values) -> tuple[int, ...]:
    """``values`` as Python ints, when nonempty, strictly increasing and >= 1."""
    values = tuple(values)
    if (not values or not all(map(_integer, values)) or values[0] < 1
            or any(a >= c for a, c in zip(values, values[1:]))):
        raise ValueError(f"{name} must be a nonempty strictly increasing list of integers >= 1")
    return tuple(map(int, values))
