"""Seeded inputs for the benchmark workloads (standard library only).

``make_inputs(workload, seed)`` returns a JSON-ready document holding every
measure spec and parameter a workload's job list needs.  The same seed gives
the same document.  Specs are written either as a measure document
(``{"doc": ...}``, parsed with ``lqspectra.parse_spec``), as the name of a
shipped spec (``{"shipped": name}``), or as a call to one of the package's
public constructors (``{"call": name, "args": [...]}``).
The program under test sees only these generated specs.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from importlib import resources

WORKLOADS = ("levels", "partitions", "cli")

FIG1_WEIGHTS = [0.659, 0.28, 0.001, 0.06]


def _rational(x: Fraction) -> dict:
    num, den = x.numerator, x.denominator
    if den & (den - 1) == 0:
        return {"num": num, "log2_den": den.bit_length() - 1}
    return {"num": num, "den": den}


def _normalized(raw: list[float]) -> list[float]:
    total = math.fsum(raw)
    return [r / total for r in raw]


def binomial_doc(p: float) -> dict:
    return {
        "type": "dyadic_ifs",
        "dimension": 1,
        "maps": [
            {"ratio_log2": 1, "offset": [_rational(Fraction(0))]},
            {"ratio_log2": 1, "offset": [_rational(Fraction(1, 2))]},
        ],
        "weights": [p, 1.0 - p],
    }


def atomic_doc(rng: random.Random, n_atoms: int, dyadic_share: float) -> dict:
    """``n_atoms`` distinct rational atoms in (0, 1) with log-normal weights.
    About ``dyadic_share`` of them sit on dyadic grid points, where the
    right-closed cube convention decides which cube owns them."""
    points: set[Fraction] = set()
    while len(points) < n_atoms:
        if rng.random() < dyadic_share:
            j = rng.randint(1, 16)
            x = Fraction(2 * rng.randrange(1 << (j - 1)) + 1, 1 << j)
        else:
            den = rng.randint(3, 1 << 20)
            x = Fraction(rng.randint(1, den - 1), den)
        points.add(x)
    ordered = sorted(points)
    rng.shuffle(ordered)
    weights = _normalized([math.exp(rng.gauss(0.0, 1.5)) for _ in ordered])
    return {
        "type": "atomic",
        "atoms": [{"point": [_rational(x)], "weight": w} for x, w in zip(ordered, weights)],
    }


def density_doc(rng: random.Random, depth: int, zero_share: float) -> dict:
    """2D piecewise-constant density on the level-``depth`` grid; about
    ``zero_share`` of the cells carry no mass."""
    side = 1 << depth
    raw = [[0.0 if rng.random() < zero_share else rng.expovariate(1.0) for _ in range(side)]
           for _ in range(side)]
    raw[0][0] = max(raw[0][0], 0.5)
    total = math.fsum(v for row in raw for v in row) * math.ldexp(1.0, -2 * depth)
    return {"type": "dyadic_density", "depth": depth,
            "values": [[v / total for v in row] for row in raw]}


def mixed_ratio_doc(rng: random.Random) -> dict:
    """1D dyadic IFS with maps of ratios 1/2, 1/4 and 1/8 whose images are
    disjoint dyadic intervals at random places: the half image takes one
    half, the quarter image one quarter of the other half, the eighth image
    one eighth of what is left.  The support size at every level is the same
    for every placement."""
    images = []
    free = 0  # index of the interval still free at the current level
    for e in (1, 2, 3):
        side = rng.randrange(2)
        images.append((e, 2 * free + side))
        free = 2 * free + 1 - side
    rng.shuffle(images)
    return {
        "type": "dyadic_ifs",
        "dimension": 1,
        "maps": [{"ratio_log2": e, "offset": [_rational(Fraction(k, 1 << e))]} for e, k in images],
        "weights": _normalized([rng.uniform(0.2, 1.0) for _ in images]),
    }


def random_atomic_small(rng: random.Random, grid_log2: int, max_atoms: int) -> dict:
    """A few atoms on the 2^-grid_log2 grid, as in the minimality criterion."""
    n_atoms = rng.randint(1, max_atoms)
    nums = rng.sample(range(1, 1 << grid_log2), n_atoms)
    weights = _normalized([rng.expovariate(1.0) + 1e-3 for _ in nums])
    return {
        "type": "atomic",
        "atoms": [{"point": [_rational(Fraction(v, 1 << grid_log2))], "weight": w}
                  for v, w in zip(sorted(nums), weights)],
    }


def _s_grid(rng: random.Random) -> list[float]:
    """Strictly increasing s grid on [0, 3] that contains 0 and 1."""
    values = {0.0, 1.0}
    while len(values) < 20:
        values.add(round(rng.uniform(0.0, 3.0), 6))
    return sorted(values)


def _levels_inputs(rng: random.Random) -> dict:
    c = rng.uniform(0.15, 0.5)
    p_mix = rng.uniform(0.6, 0.8)
    specs = {
        "cantor": {"call": "cantor_measure", "args": []},
        "atomic": {"doc": atomic_doc(rng, 1000, 0.05)},
        "exp_decay": {"call": "exp_decay_atoms", "args": [rng.randint(20, 40)]},
        "density2d": {"doc": density_doc(rng, 5, 0.15)},
        "mixture": {"doc": {"type": "mixture", "components": [
            {"coefficient": c, "spec": {"type": "lebesgue", "dimension": 1}},
            {"coefficient": 1.0 - c, "spec": binomial_doc(p_mix)},
        ]}},
        "mixed_ratio": {"doc": mixed_ratio_doc(rng)},
        "binomial": {"call": "binomial_ifs", "args": [rng.uniform(0.55, 0.85)]},
        "tetra": {"call": "sierpinski_tetrahedron", "args": [FIG1_WEIGHTS]},
    }
    # (mass level, curve level, s_b_estimate levels, s_nb level) per family
    depth = {
        "cantor": (10, 10, [5, 7, 9], 9),
        "atomic": (16, 18, [8, 12, 16], 14),
        "exp_decay": (20, 24, [10, 16, 22], 20),
        "density2d": (7, 7, [3, 5, 7], 6),
        "mixture": (12, 12, [8, 10, 12], 11),
        "mixed_ratio": (14, 14, [10, 12, 14], 13),
        "binomial": (16, 18, [14, 16, 18], 18),
        "tetra": (7, 9, [6, 8, 9], 9),
    }
    params = {}
    for name in specs:
        mass_level, curve_level, est_levels, nb_level = depth[name]
        params[name] = {
            "mass_level": mass_level,
            "curve_level": curve_level,
            "est_levels": est_levels,
            "nb_level": nb_level,
            "b_est": round(rng.uniform(0.5, 2.5), 6),
            "b_nb": round(rng.uniform(0.5, 2.5), 6),
            "s_grid": _s_grid(rng),
        }
    return {"specs": specs, "params": params}


def _partitions_inputs(rng: random.Random) -> dict:
    # Exponents a are fixed, thresholds vary within a factor of 1.02 and the
    # binomial's p within 0.698..0.702, so the work per pass hardly depends on
    # the seed: the cardinality of an adaptive partition grows like a power of
    # 1/t whose exponent depends on a, and the oracle's work moves with p.
    specs = {
        "binomial": {"call": "binomial_ifs", "args": [rng.uniform(0.698, 0.702)]},
        "tetra": {"call": "sierpinski_tetrahedron", "args": [FIG1_WEIGHTS]},
        "lebesgue2": {"doc": {"type": "lebesgue", "dimension": 2}},
        "density2d": {"doc": density_doc(rng, 4, 0.1)},
    }
    minimality = []
    for i in range(12):
        specs[f"atoms{i}"] = {"doc": random_atomic_small(rng, 10, 10)}
        minimality.append({"spec": f"atoms{i}", "a": rng.uniform(0.5, 2.2),
                           "t": 10.0 ** rng.uniform(-5.0, -1.0)})

    def near(t: float) -> float:
        return t * rng.uniform(1.0, 1.02)

    params = {
        "adaptive": [
            {"spec": "binomial", "a": 1.0, "t": near(4e-9)},
            {"spec": "tetra", "a": 0.5, "t": near(1e-7)},
            {"spec": "density2d", "a": 1.0, "t": near(1e-6)},
        ],
        "entropy": [
            {"spec": "binomial", "a": 1.0, "t_max": near(1e8)},
            {"spec": "tetra", "a": 1.0, "t_max": near(1e8)},
            {"spec": "lebesgue2", "a": 1.0, "t_max": near(1e7)},
        ],
        "profile": {"spec": "binomial", "a": 1.0, "k_max": 448},
        "widths": {"spec": "tetra", "p": 2.0, "q": round(rng.uniform(2.95, 3.05), 6), "ell": 2,
                   "log2_n_max": 13},
        "minimality": minimality,
        "project": [
            {"spec": "binomial", "a": 1.0, "budget": rng.randint(240, 256),
             "q": 2.0, "samples": 100_000, "seed": rng.randrange(1 << 30)},
            {"spec": "density2d", "a": 1.0, "budget": rng.randint(60, 64),
             "q": 3.0, "samples": 100_000, "seed": rng.randrange(1 << 30)},
        ],
        "poly": {"spec": "tetra", "a": 0.5, "budget": rng.randint(120, 128), "ell": 3,
                 "coeffs": [round(rng.uniform(-1.0, 1.0), 6) for _ in range(10)],
                 "points": 2000, "seed": rng.randrange(1 << 30)},
    }
    return {"specs": specs, "params": params}


def _cli_inputs(rng: random.Random) -> dict:
    p = round(rng.uniform(0.55, 0.85), 6)
    return {
        "specs": {"generated": {"doc": binomial_doc(p)},
                  "binomial_07_03": {"shipped": "binomial_07_03"},
                  "fig1_tetraeder": {"shipped": "fig1_tetraeder"}},
        "params": {"p": p, "b": [1.0, round(rng.uniform(1.2, 3.0), 6)],
                   "t_grid_start": 1e-6 * rng.uniform(1.0, 1.1)},
    }


def build_spec(entry: dict):
    """Measure spec from a generated entry: a document, a shipped spec name,
    or a constructor call.  Raises ValueError if the spec does not validate."""
    import lqspectra

    if "doc" in entry:
        spec = lqspectra.parse_spec(entry["doc"])
    elif "shipped" in entry:
        data = resources.files("lqspectra").joinpath(f"data/{entry['shipped']}.json")
        spec = lqspectra.parse_spec(json.loads(data.read_text()))
    else:
        spec = getattr(lqspectra, entry["call"])(*entry["args"])
    bad = lqspectra.validate(spec)
    if bad:
        raise ValueError(f"generated spec is invalid: {bad}")
    return spec


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"lqspectra-bench:{workload}:{seed}")
    build = {
        "levels": _levels_inputs,
        "partitions": _partitions_inputs,
        "cli": _cli_inputs,
    }[workload]
    doc = build(rng)
    doc.update({"workload": workload, "seed": seed})
    return doc
