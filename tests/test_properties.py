"""Mass invariants of the frontier engine on generated specs of every family.

The strategies draw dyadic IFS with disjoint images of mixed ratios, Cantor-
type GeneralIFS1D, atoms on and off the dyadic grid (float coordinates among
them), grid densities and mixtures of these.  With ``exact`` weights every
weight, coefficient and density value is a multiple of 1/16, so at the
levels checked here every mass of the exact families is a dyadic rational
that floating point holds exactly, and additivity must hold to the bit.  With ``float`` weights the
engine is compared with the cursor reference instead.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import cursor_reference as ref
import lqspectra as lq

MAX_CUBES = 256


@st.composite
def exact_weights(draw, n):
    """n positive multiples of 1/16 summing to exactly 1 (n <= 16)."""
    cuts = draw(st.lists(st.integers(1, 15), min_size=n - 1, max_size=n - 1, unique=True))
    edges = [0] + sorted(cuts) + [16]
    return [(b - a) / 16 for a, b in zip(edges, edges[1:])]


@st.composite
def float_weights(draw, n):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(raw)
    return [x / total for x in raw]


@st.composite
def dyadic_ifs(draw, m, weights):
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=3))
        if all(path[:len(p)] != p and p[:len(path)] != path for p in paths):
            paths.append(path)  # images are disjoint iff no path prefixes another
    maps = []
    for path in paths:
        e = len(path)
        index = [sum(((s >> k) & 1) << (e - 1 - d) for d, s in enumerate(path)) for k in range(m)]
        maps.append(lq.DyadicMap(e, tuple(Fraction(i, 1 << e) for i in index)))
    return lq.DyadicIFS(m, tuple(maps), tuple(draw(weights(len(maps)))))


@st.composite
def ifs_1d(draw, weights):
    n = draw(st.integers(2, 3))
    ratios = [Fraction(draw(st.integers(1, 2)), draw(st.integers(2 * n + 2, 2 * n + 5)))
              for _ in range(n)]
    gaps = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).filter(any))
    free = (1 - sum(ratios)) / sum(gaps)
    maps, start = [], Fraction(0)
    for r, g in zip(ratios, gaps):
        maps.append(lq.Homothety1D(r, start + g * free))
        start += g * free + r
    tol = draw(st.sampled_from([1e-12, 1e-9]))
    return lq.GeneralIFS1D(tuple(maps), tuple(draw(weights(n))), tol)


def coordinate():
    dyadic = st.builds(lambda j, k: Fraction(2 * k + 1, 1 << j),
                       st.integers(1, 5), st.integers(0, 15)).filter(lambda x: x < 1)
    other = st.builds(lambda d, k: Fraction(k % (d - 1) + 1, d),
                      st.integers(3, 40), st.integers(0, 100))
    # a float is a binary fraction with a denominator up to 2^1074
    binary = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(Fraction)
    return st.one_of(dyadic, other, binary)


@st.composite
def atomic(draw, m, weights):
    points = draw(st.lists(st.tuples(*[coordinate()] * m), min_size=1, max_size=5, unique=True))
    return lq.Atomic(tuple(points), tuple(draw(weights(len(points)))))


@st.composite
def density(draw, m, weights):
    depth = draw(st.integers(0, 2))
    cells = 1 << (depth * m)
    where = draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=cells, unique=True))
    values = np.zeros(cells)
    values[where] = np.asarray(draw(weights(len(where)))) * cells
    return lq.DyadicDensity(depth, values.reshape((1 << depth,) * m))


def plain(m, weights):
    families = [st.just(lq.Lebesgue(m)), dyadic_ifs(m, weights), atomic(m, weights),
                density(m, weights)]
    return st.one_of(families + ([ifs_1d(weights)] if m == 1 else []))


@st.composite
def specs(draw, weights):
    m = draw(st.integers(1, 2))
    if draw(st.booleans()):
        return draw(plain(m, weights))
    parts = draw(st.lists(plain(m, weights), min_size=2, max_size=3))
    return lq.Mixture(tuple(zip(draw(weights(len(parts))), parts)))


def _truncated(spec):
    """Total truncation allowance of the GeneralIFS1D parts (0: exact)."""
    if isinstance(spec, lq.GeneralIFS1D):
        return spec.mass_tol
    if isinstance(spec, lq.Mixture):
        return sum(_truncated(s) for _, s in spec.components)
    return 0.0


def _levels(spec):
    """(level, cubes, masses) from level 0 while the support stays small."""
    out = []
    for n in range(9):
        cubes, masses = lq.support_with_masses(spec, n)
        if len(cubes) > MAX_CUBES:
            break
        out.append((n, cubes, masses))
    return out


@given(specs(exact_weights))
def test_children_sum_to_parent_and_levels_to_one(spec):
    assert lq.validate(spec) == []
    tol = _truncated(spec)
    levels = _levels(spec)
    for n, cubes, masses in levels:
        if tol:
            assert abs(math.fsum(masses) - 1.0) <= tol
        else:
            assert math.fsum(masses) == 1.0
    for (_, cubes, masses), (_, kids, kid_masses) in zip(levels, levels[1:]):
        parent_of = {c: i for i, c in enumerate(cubes)}
        sums = [[] for _ in cubes]
        for kid, mass in zip(kids, kid_masses):
            sums[parent_of[kid.parent()]].append(mass)
        for mass, parts in zip(masses, sums):
            if tol:
                assert abs(math.fsum(parts) - mass) <= 2 * tol
            else:
                assert math.fsum(parts) == mass


@given(specs(exact_weights))
def test_support_is_positive_and_depth_first(spec):
    for _, cubes, masses in _levels(spec):
        assert np.all(masses > 0.0)
        paths = [c.selector_path() for c in cubes]
        assert all(p < q for p, q in zip(paths, paths[1:]))


@given(specs(float_weights))
def test_engine_matches_cursors_on_generated_specs(spec):
    tol = _truncated(spec)
    for n, cubes, masses in _levels(spec)[:7]:
        want_cubes, want = ref.support_with_masses(spec, n)
        if not tol:
            assert cubes == want_cubes
            assert np.array_equal(masses, want)
            continue
        # truncation may leave a mass below mass_tol on either side of zero:
        # the cursors give the fixed point of an outer map a positive cube
        # to its right, for instance
        got, exp = dict(zip(cubes, masses)), dict(zip(want_cubes, want))
        assert all(abs(got.get(c, 0.0) - exp.get(c, 0.0)) <= tol for c in got.keys() | exp.keys())
