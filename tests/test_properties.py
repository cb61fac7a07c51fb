"""Mass invariants of the frontier engine on generated specs of every family,
the adaptive family's card(t) identity and depth-limit naming, the shape of
the spectra and their Newton roots on the same specs, the roots' mass
groups from the distinct engine states of generated dyadic IFS, the
spectrum bracket of a mixture by its components, the oracle's merge of a
split cube's children on generated vectors, JSON round trips of the specs,
one support walk over many levels against a walk to each level alone, and
the sampler's IFS word tables against their exact composition.

The strategies draw dyadic IFS with disjoint images of mixed ratios, Cantor-
type GeneralIFS1D, atoms on and off the dyadic grid (float coordinates among
them), grid densities and mixtures of these, a mixture among them nesting
another that has a component of coefficient 0.  With ``exact`` weights every
weight, coefficient and density value is a multiple of 1/16, so at the
levels checked here every mass of the exact families is a dyadic rational
that floating point holds exactly, and additivity must hold to the bit.  With ``float`` weights the
engine is compared with the cursor reference instead.
"""

import json
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cursor_reference as ref
import lqspectra as lq
import polyapprox_reference as polyapprox_ref
import spectrum_reference as spectrum_ref
from lqspectra import measures, partition, polyapprox, spectrum

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
    if len(paths) == 1:  # one map makes a point mass; its sibling image is disjoint
        paths.append(paths[0][:-1] + [paths[0][-1] ^ 1])
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
    if draw(st.booleans()):
        # a mixture nested in the last part, with a component of coefficient 0
        inner = draw(st.lists(plain(m, weights), min_size=1, max_size=2))
        comps = list(zip(draw(weights(len(inner))), inner))
        comps.insert(draw(st.integers(0, len(comps))), (0.0, draw(plain(m, weights))))
        parts[-1] = lq.Mixture(tuple(comps))
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


@given(specs(float_weights))
def test_json_round_trip_keeps_the_document_and_the_masses(spec):
    doc = lq.spec_to_dict(spec)
    back = lq.parse_spec(json.loads(json.dumps(doc)))  # raises unless the spec is valid
    assert type(back) is type(spec) and lq.spec_to_dict(back) == doc
    for n in range(5):
        masses = lq.support_masses(spec, n)
        if len(masses) > MAX_CUBES:
            break
        assert np.array_equal(lq.support_masses(back, n), masses)


@given(specs(float_weights), st.lists(st.integers(0, 6), max_size=4).map(sorted))
def test_one_walk_gives_each_level_as_a_walk_to_it_alone(spec, levels):
    walk = list(measures._supports(spec, levels))
    assert len(walk) == len(levels)
    for n, (keys, masses) in zip(levels, walk):
        (alone_keys, alone), = measures._supports(spec, [n])
        assert np.array_equal(keys, alone_keys)
        assert masses.tobytes() == alone.tobytes() == lq.support_masses(spec, n).tobytes()
        assert np.all(masses > 0.0)


ORACLE_VALUES = st.sampled_from([0.0, 0.125, 0.5, 1.0, 3.0]) | st.floats(0.0, 4.0)


@st.composite
def split_cubes(draw):
    """A split cube: g = 2^m children, 0 to g of them with a vector of 1 to
    24 non-increasing entries with ties (a few exact values, 0 among them, or
    any floats), the rest empty; the cube's own J_a; and a length cap."""
    g = draw(st.sampled_from([2, 4, 8]))
    kids = [np.array(sorted(body, reverse=True)) for body in
            draw(st.lists(st.lists(ORACLE_VALUES, min_size=1, max_size=24), max_size=g))]
    n = sum(len(kid) for kid in kids) + g - len(kids)
    return g, kids, draw(ORACLE_VALUES), draw(st.integers(1, n + 2))


@settings(max_examples=100)
@given(split_cubes())
def test_breakpoint_merge_equals_quadratic_fold(cube):
    g, kids, j, cap = cube
    got, end = partition._merge(kids, [float(kid[-1]) for kid in kids], j,
                                np.full(g - 1, np.inf), cap)
    # the reference folds two vectors of equal length at a time, index 0
    # inf; a vector is constant beyond its last entry, an empty child is
    # [inf, 0.0], and one cube reaches J_a
    n = sum(len(kid) for kid in kids) + g - len(kids)
    full = [np.concatenate(([math.inf], kid, np.full(n + 2 - len(kid), kid[-1])))
            for kid in kids + [np.zeros(1)] * (g - len(kids))]
    want = full[0]
    for vec in full[1:]:
        want = ref._minmax_fold(want, vec)
    want = np.minimum(want, j)[1:]
    assert want[n - 1:].tobytes() == np.full(3, want[n - 1]).tobytes()  # n entries suffice
    assert got.tobytes() == want[:min(n, cap)].tobytes()
    assert end == got[-1]


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.integers(1, 16),
       st.integers(0, 3))
def test_oracle_equals_the_reference_subtree_walk(spec, a, k_max, depth):
    # the reference folds at every positive cube down to the depth cap (the
    # spec wrapped in a mixture keeps it off its ratio-1/2 recursion)
    got = lq.gamma_dyadic_vector(spec, a, k_max, max_depth=depth)
    want = ref.gamma_dyadic_vector(lq.Mixture(((1.0, spec),)), a, k_max, max_depth=depth)
    tol = _truncated(spec)
    if not tol:
        assert got.tobytes() == want.tobytes()
    else:  # each J moves by at most mass_tol, and so does a min of maxes
        assert got[0] == want[0] == math.inf
        assert np.all(np.abs(got[1:] - want[1:]) <= tol)


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.integers(1, 300))
def test_oracle_never_loses_to_the_adaptive_family(spec, a, k_max):
    # oracle <= gamma_hat at every budget, and equal at the cardinality of
    # every adaptive state: the adaptive partitions are minimal
    try:
        states = lq.refinement_profile(spec, a, k_max)
    except lq.MaxDepthExceeded:
        assume(False)
    v = lq.gamma_dyadic_vector(spec, a, k_max)
    assert v[0] == math.inf and v[1] == states[0, 1]
    assert np.all(v[1:] <= lq.gamma_adaptive_profile(spec, a, range(1, k_max + 1)))
    for card, j in states[states[:, 0] <= k_max]:
        assert v[int(card)] == j


# ---------------------------------------------------------------------------
# The adaptive family: J monotone down the tree, card(t) from the J multiset
# ---------------------------------------------------------------------------

def _j_levels(spec, a, t):
    """J_a of the positive cubes of each level, down to the first level whose
    J_a all fall below t, or None once a level holds more than MAX_CUBES."""
    out = []
    for n in range(64):
        masses = lq.support_masses(spec, n)
        if len(masses) > MAX_CUBES:
            return None
        out.append(2.0 ** (-n * spec.dim * a) * masses)
        if out[-1].max() < t:
            return out
    return None


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.floats(1e-4, 0.3))
def test_children_never_outweigh_their_parents(spec, a, t):
    levels, _ = partition._walk(spec, a, t, 40)
    for up, lv in zip(levels, levels[1:]):
        assert np.all(up.split[lv.parent])
        assert np.all(lv.j <= up.j[lv.parent])
        assert np.array_equal(lv.eff, lv.j)  # so the effective weight is J_a itself


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.floats(1e-4, 0.3),
       st.integers(1, 60))
def test_walk_levels_have_ascending_keys(spec, a, t, top):
    # every frontier has ascending keys, which take, expand and the cut of
    # the threshold partition out of a walk rely on
    for levels in (partition._walk(spec, a, t, 40)[0],
                   partition._walk(spec, a, partition._TINY, 40, top=top)[0]):
        for lv in levels:
            assert np.all(lv.keys[1:] > lv.keys[:-1])


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.floats(1e-4, 0.3))
def test_cardinality_is_one_plus_split_cubes_times_fanout(spec, a, t):
    # card(t) = 1 + (2^m - 1) #{Q : J_a(Q) >= t}, counted here level by level
    # from the support masses
    levels = _j_levels(spec, a, t)
    if levels is None:
        return
    card = 1 + ((1 << spec.dim) - 1) * sum(int(np.sum(j >= t)) for j in levels)
    part = lq.adaptive_partition(spec, a, t)
    assert part.cardinality == card == lq.counting_N(spec, a, 1.0 / t)
    assert lq.partition_violations(part, spec) == []
    # the same cubes as a list: the arrays derived from it read the same
    listed = partition.Partition(part.cubes, part.masses, part.j_values, part.a)
    assert listed.to_records() == part.to_records()
    assert listed.level_histogram() == part.level_histogram()
    assert lq.partition_violations(listed, spec) == []


@given(specs(float_weights), st.sampled_from([0.5, 1.0, 1.7]), st.integers(1, 60))
def test_profile_states_are_threshold_partitions(spec, a, cap):
    # state k is the adaptive partition for thresholds in (j_k, j_(k-1)]
    states = lq.refinement_profile(spec, a, cap)
    assert np.all(np.diff(states[:, 0]) > 0) and np.all(np.diff(states[:, 1]) < 0)
    for (_, j_up), (card, j) in zip(states, states[1:]):
        part = lq.adaptive_partition(spec, a, j_up)
        assert (part.cardinality, part.max_j) == (card, j)
    part = lq.budget_partition(spec, a, cap)
    assert part.cardinality <= cap
    assert lq.partition_violations(part, spec) == []


@st.composite
def mirrored_atoms(draw):
    """Atoms at x and 1 - x of one weight, which tie at every level, and a
    third atom 2^-j away from the right one, which makes its ancestors
    heavier: an order by the ancestors' weights would name the right one."""
    x = draw(coordinate().filter(lambda c: c < Fraction(1, 2)))
    sign = draw(st.sampled_from([-1, 1]))
    y = 1 - x + sign * Fraction(1, 1 << draw(st.integers(2, 5)))
    assume(0 < y < 1 and y not in (x, 1 - x))
    w = draw(st.integers(1, 7)) / 16
    return lq.Atomic(((x,), (1 - x,), (y,)), (w, w, 1 - 2 * w))


@given(st.one_of(mirrored_atoms(), specs(exact_weights), specs(float_weights)),
       st.floats(0.25, 2.0), st.integers(1, 5))
def test_profile_depth_error_names_the_threshold_walks_cube(spec, a, max_depth):
    # the profile and the threshold walk at the J_a it reports meet the depth
    # limit at the same cube: both name the first in depth-first order, also
    # among tied cubes of which a later one has the heavier ancestors
    try:
        lq.refinement_profile(spec, a, 4000, max_depth=max_depth)
    except lq.MaxDepthExceeded as exc:
        if exc.j_value < sys.float_info.min:
            return
        with pytest.raises(lq.MaxDepthExceeded) as want:
            lq.adaptive_partition(spec, a, exc.j_value, max_depth)
        assert (exc.cube, exc.j_value) == (want.value.cube, want.value.j_value)


# ---------------------------------------------------------------------------
# Spectra: beta_n and the Newton roots s_{n,b}
# ---------------------------------------------------------------------------

S_GRID = np.linspace(0.0, 3.0, 13)


def _spectrum_levels(spec):
    """(level, support masses) from level 1 while the support stays small."""
    out = []
    for n in range(1, 9):
        masses = lq.support_masses(spec, n)
        if len(masses) > MAX_CUBES:
            break
        out.append((n, masses))
    return out


@given(specs(float_weights), st.sampled_from([0.01, 0.3, 1.0, 2.5, 8.0]))
def test_spectrum_shape_and_certified_roots(spec, b):
    # beta_n(1) = log2(total mass) / n, which truncation may move off 0
    tol = 1e-12 + 2 * _truncated(spec)
    levels = _spectrum_levels(spec)
    fp = lq.s_b_estimate(spec, b, [n for n, _ in levels])
    for (n, masses), root, residual in zip(levels, fp.roots, fp.residuals):
        values = lq.spectrum_curve(spec, n, S_GRID).values
        assert values[0] == math.log2(len(masses)) / n
        assert abs(values[S_GRID.tolist().index(1.0)]) <= tol
        assert np.all(np.diff(values) <= 1e-12)
        assert np.all(np.diff(values, 2) >= -1e-9)
        assert 0.0 <= root <= 1.0 and residual <= 1e-10
        groups = spectrum._mass_groups(masses)
        want = spectrum_ref.grouped_root(groups, n, b)
        assert abs(root - want) <= spectrum_ref.root_bound(groups, n, b)
        assert _newton_evaluations(groups, n, b) <= 20


def _newton_evaluations(groups, n, b):
    """The beta_n evaluations of one root, one per Newton step."""
    with mock.patch.object(spectrum, "_log2_moment", wraps=spectrum._log2_moment) as moment:
        spectrum._root(groups, n, b)
    return moment.call_count


@given(specs(float_weights).filter(lambda spec: isinstance(spec, lq.Mixture)))
def test_mixture_spectrum_lies_in_the_bracket_of_its_components(spec):
    # for the K components of coefficient c_i > 0, least c_min, with masses
    # a_i(C): (c_j a_j)^s <= (sum_i c_i a_i)^s <= (max_i a_i)^s <= sum_i a_i^s
    # on every cube, so summed over a level's cubes
    #   max_i beta_i + s log2(c_min) / n <= beta_mix <= max_i beta_i + log2(K) / n,
    # up to the rounding bounds E0 of the mixture's and a component's sums
    coefs, comps = zip(*[(c, sub) for c, sub in spec.components if c > 0.0])
    for n, masses in _spectrum_levels(spec):
        parts = [spectrum._mass_groups(lq.support_masses(sub, n)) for sub in comps]
        beta = lq.spectrum_curve(spec, n, S_GRID).values
        top = np.max([[spectrum._beta(part, n, s) for s in S_GRID] for part in parts], axis=0)
        slack = np.maximum(1.0, S_GRID) * (
            spectrum._rounding_bound(spectrum._mass_groups(masses), n, 0.0)
            + max(spectrum._rounding_bound(part, n, 0.0) for part in parts))
        assert np.all(top + S_GRID * math.log2(min(coefs)) / n - slack <= beta), n
        assert np.all(beta <= top + math.log2(len(comps)) / n + slack), n


@st.composite
def mass_vectors(draw):
    """Positive masses <= 1: all distinct, or few values with many ties; with
    neighbouring floats of tiny masses, whose log2 values round to one."""
    values = draw(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=40, unique=True))
    if draw(st.booleans()):  # heavy ties
        counts = draw(st.lists(st.integers(1, 60), min_size=len(values), max_size=len(values)))
        values = [v for v, c in zip(values, counts) for _ in range(c)]
    if draw(st.booleans()):
        values += [float(np.nextafter(1e-250, 1.0)), 1e-250, float(np.nextafter(1e-250, 0.0))]
    return np.array(draw(st.permutations(values)))


@given(mass_vectors(), st.integers(1, 20), st.sampled_from([0.01, 0.3, 1.0, 2.5, 8.0]))
def test_grouped_spectrum_within_the_rounding_bound_of_the_full_sum(masses, n, b):
    # the groups are the distinct log2 masses with their cube counts; beta
    # and the root lie within the bounds of test_spectrum_certified's
    # docstring of the full sum over every cube
    groups = spectrum._mass_groups(masses)
    log2_masses = np.log2(masses)
    distinct, counts = np.unique(log2_masses, return_counts=True)
    assert np.array_equal(groups.log2, distinct) and groups.cubes == len(masses)
    assert np.array_equal(np.ones(len(distinct)) if groups.counts is None else groups.counts,
                          counts)
    assert (groups.counts is None) == (len(distinct) == len(masses))
    for s in S_GRID:
        beta_bound = 2.0 * spectrum._rounding_bound(groups, n, 0.0) * max(1.0, s)
        assert abs(spectrum._beta(groups, n, s)
                   - spectrum_ref.beta_from_masses(log2_masses, n, s)) <= beta_bound
    want = spectrum_ref.root_from_masses(log2_masses, n, b)
    assert abs(spectrum._root(groups, n, b) - want) <= spectrum_ref.root_bound(groups, n, b)
    assert _newton_evaluations(groups, n, b) <= 20


@st.composite
def half_ratio_ifs(draw):
    """A dyadic IFS whose maps all have ratio 1/2: distinct children of the
    unit cube, at least two."""
    m = draw(st.integers(1, 2))
    cells = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=2, max_size=1 << m,
                          unique=True))
    maps = tuple(lq.DyadicMap(1, tuple(Fraction((c >> k) & 1, 2) for k in range(m)))
                 for c in sorted(cells))
    return lq.DyadicIFS(m, maps, tuple(draw(float_weights(len(maps)))))


@given(half_ratio_ifs())
def test_half_ratio_spectrum_is_the_closed_form_at_every_level(spec):
    ratios = [0.5] * len(spec.weights)
    want = [lq.selfsimilar_beta(spec.weights, ratios, float(s)) for s in S_GRID]
    for n, _ in _spectrum_levels(spec):
        got = lq.spectrum_curve(spec, n, S_GRID).values
        assert np.all(np.abs(got - want) <= 1e-12)


@given(st.integers(1, 3).flatmap(lambda m: dyadic_ifs(m, float_weights)
                                 | dyadic_ifs(m, exact_weights)))
def test_state_walk_groups_equal_the_cube_walk(spec):
    # the roots' mass groups from the distinct engine states, against the
    # groups of every cube's mass; exact weights give many equal masses
    levels = []
    for n in range(1, 13):
        if len(lq.support_masses(spec, n)) > 16 * MAX_CUBES:
            break
        levels.append(n)
    for n, got in zip(levels, spectrum._level_groups(spec, levels)):
        assert spectrum_ref.same_groups(got, spec, n), n


@given(st.integers(1, 3).flatmap(lambda m: dyadic_ifs(m, float_weights)))
def test_ifs_word_table_is_the_exact_composition(spec):
    # the sampler's words of k maps against their exact Fraction composition;
    # ratios of powers of 2 multiply exactly
    probs, ratios, offsets, _ = polyapprox._ifs_words(spec)
    prob_gap, ratio_gap, offset_gap = polyapprox_ref.word_table_gaps(spec, probs, ratios, offsets)
    assert prob_gap <= 1e-14 and ratio_gap == 0.0 and offset_gap <= 2.0 ** -50
