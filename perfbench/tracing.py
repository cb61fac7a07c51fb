"""Spans around the public functions of ``lqspectra``, installed from outside.

``Tracer.install`` replaces every binding of each traced function with a
wrapper: the package attribute, the defining module's attribute, and every
``from .x import f`` site in the other modules (for example
``lqspectra.spectrum.support_masses`` and ``lqspectra.cli.solve_eigen``), so
calls made inside the package are seen too.  Spans stay in memory as
``[function, layer, start, end, parent, units]`` lists.  ``layer_stats``
turns a list of spans into per-layer busy time, self time and work units.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("measures", "spectrum", "partition", "polyapprox", "kreinfeller", "cli")


def _len_result(args, kwargs, result):
    return len(result)


def _len_masses(args, kwargs, result):
    return len(result[1])


def _roots_estimate(args, kwargs, result):
    return len(result.levels)


def _one(args, kwargs, result):
    return 1


def _cardinality(args, kwargs, result):
    return result.cardinality


def _count(args, kwargs, result):
    return int(result)


def _final_state(args, kwargs, result):
    return int(result[-1][0])


def _budget(args, kwargs, result):
    return len(result) - 1


def _samples(args, kwargs, result):
    from lqspectra import Atomic

    spec = args[2] if len(args) > 2 else kwargs["spec"]
    if isinstance(spec, Atomic):
        return len(spec.points)  # atomic measures are summed exactly
    return args[5] if len(args) > 5 else kwargs.get("n_samples", 100_000)


def _atoms(args, kwargs, result):
    return result.size


# function -> (layer, work units of one call or None)
TRACED = {
    "measures": {
        "support_masses": ("measures", _len_result),
        "support_with_masses": ("measures", _len_masses),
    },
    "spectrum": {
        "beta_n": ("spectrum", None),
        "spectrum_curve": ("spectrum", None),
        "s_nb": ("spectrum", _one),
        "s_b_estimate": ("spectrum", _roots_estimate),
        "selfsimilar_beta": ("spectrum", None),
        "selfsimilar_s_rho": ("spectrum", _one),
    },
    "partition": {
        "adaptive_partition": ("adaptive", _cardinality),
        "counting_N": ("adaptive", _count),
        "refinement_profile": ("adaptive", _final_state),
        "budget_partition": ("adaptive", None),
        "gamma_adaptive_profile": ("adaptive", None),
        "entropy_estimate": ("adaptive", None),
        "gamma_dyadic_vector": ("oracle", _budget),
        "gamma_dyadic_oracle": ("oracle", None),
        "minimal_dyadic_cardinality": ("oracle", None),
    },
    "polyapprox": {
        "width_upper_sequence": ("adaptive", None),
        "piecewise_project": ("project", None),
        "project_poly": ("project", None),
        "error_Lq": ("error", _samples),
    },
    "kreinfeller": {
        "discretize": ("discretize", None),
        "solve_eigen": ("eigen", _atoms),
        "order_fit": ("fit", None),
        "split_counting_check": ("fit", None),
    },
}

LAYERS = ("measures", "spectrum", "adaptive", "oracle", "project", "error",
          "discretize", "eigen", "fit")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, layer, units):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if units is not None:
                span[5] = units(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("lqspectra")
        modules = [package] + [importlib.import_module(f"lqspectra.{m}") for m in MODULES]
        wrappers = {}
        for modname, functions in TRACED.items():
            module = importlib.import_module(f"lqspectra.{modname}")
            for name, (layer, units) in functions.items():
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer, units))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: ``busy`` (time in spans with no enclosing span of the same
    layer), ``self`` (span time minus direct child spans), ``units`` (work
    counted on spans with no direct child of the same layer) and ``calls``
    (spans counted for busy)."""
    stats = {}
    child_time = [0.0] * len(spans)
    same_layer_child = [False] * len(spans)
    for span in spans:
        parent = span[4]
        if parent >= 0:
            child_time[parent] += span[3] - span[2]
            if spans[parent][1] == span[1]:
                same_layer_child[parent] = True
    for i, (name, layer, start, end, parent, units) in enumerate(spans):
        st = stats.setdefault(layer, {"busy": 0.0, "self": 0.0, "units": 0, "calls": 0})
        st["self"] += (end - start) - child_time[i]
        if not same_layer_child[i]:
            st["units"] += units
        outer = parent
        while outer >= 0 and spans[outer][1] != layer:
            outer = spans[outer][4]
        if outer < 0:
            st["busy"] += end - start
            st["calls"] += 1
    return stats
