"""Shared measure fixtures for the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lqspectra as lq

FIG1_WEIGHTS = (0.659, 0.28, 0.001, 0.06)

# property tests run the same examples on every run and write no example database
settings.register_profile("lqspectra", derandomize=True, database=None, deadline=None,
                          max_examples=40, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("lqspectra")


@pytest.fixture(scope="session")
def leb1():
    return lq.Lebesgue(1)


@pytest.fixture(scope="session")
def leb2():
    return lq.Lebesgue(2)


@pytest.fixture(scope="session")
def leb3():
    return lq.Lebesgue(3)


@pytest.fixture(scope="session")
def binom():
    return lq.binomial_ifs(0.7)


@pytest.fixture(scope="session")
def tetra():
    return lq.sierpinski_tetrahedron(FIG1_WEIGHTS)


@pytest.fixture(scope="session")
def cantor():
    return lq.cantor_measure()


@pytest.fixture(scope="session")
def dirac_half():
    return lq.dirac([Fraction(1, 2)])


@pytest.fixture(scope="session")
def atom_pair():
    return lq.Atomic(((Fraction(1, 3),), (Fraction(2, 3),)), (0.5, 0.5))


@pytest.fixture(scope="session")
def quarter_pair():
    return lq.Atomic(((Fraction(1, 4),), (Fraction(3, 4),)), (0.5, 0.5))


@pytest.fixture(scope="session")
def density2d():
    values = np.array([[0.5, 1.5], [2.0, 0.0]], dtype=float)
    # cell masses: values * 2^-2, sum = 4/4 = 1
    return lq.DyadicDensity(1, values)


@pytest.fixture(scope="session")
def mixture(binom):
    return lq.Mixture(((0.25, lq.Lebesgue(1)), (0.75, binom)))
