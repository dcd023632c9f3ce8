"""Per-layer tracing by wrapping featmc's module attributes from outside.

Each wrapper records a span (name, start, end, parent) in memory.  A layer's
time is its spans' self time: duration minus the time covered by their
child spans, so nested layers are not counted twice.  A layer's call count
counts only spans not nested in a span of the same name.

Wrapped names are patched where they are bound (``featmc.dsl`` holds its own
reference to ``sync_product``, for example).  A target that no longer exists
is skipped; a metric whose targets are all missing is reported as absent, and
one whose targets exist but never ran reads 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: span name -> (module, attribute path) binding sites to wrap
TARGETS = {
    "engine.enum": [("featmc.engines.enumerative", "check_family_enumerative")],
    "engine.param": [("featmc.engines.parametric", "check_family_parametric")],
    "engine.bounded": [("featmc.engines.bounded", "check_family_bounded")],
    "dsl.parse": [("featmc.dsl", "parse_model_file")],
    "dsl.build": [("featmc.dsl", "build_model")],
    "models.compose": [
        ("featmc.dsl", "sync_product"),
        ("featmc.dsl", "observer_product"),
        ("featmc.dsl", "complete_deterministic"),
        ("featmc.dsl", "as_fdtmc"),
    ],
    "models.validate": [("featmc.dsl", "validate_fdtmc")],
    "models.project": [
        ("featmc.engines.enumerative", "project"),
        ("featmc.models", "project"),
    ],
    "features.valid_products": [("featmc.features", "FeatureDiagram.valid_products")],
    "profiles.to_dense": [
        ("featmc.profiles", "to_dense"),
        ("featmc.models", "to_dense"),
        ("featmc.dsl", "to_dense"),
        ("featmc.engines.bounded", "to_dense"),
    ],
    "properties.parse": [
        ("featmc.properties", "parse_property"),
        ("featmc.dsl", "parse_property"),
    ],
    "enum.check_product": [("featmc.engines.enumerative", "check_product")],
    "enum.partition": [("featmc.engines.enumerative", "until_state_partition")],
    "enum.solve": [("featmc.engines.enumerative", "solve_linear")],
    "enum.float_iter": [
        ("featmc.engines.enumerative", "until_values_float"),
        ("featmc.engines.enumerative", "expected_reward_float"),
    ],
    "param.function": [("featmc.engines.parametric", "property_function")],
    "param.evaluate": [("featmc.engines.parametric", "RationalFunction.evaluate")],
    "param.interpolate": [("featmc.engines.parametric", "interpolate_family")],
    "bounded.dense": [("featmc.engines.bounded", "DenseModel.__init__")],
    "bounded.sat": [("featmc.engines.bounded", "sat_states")],
    "bounded.until": [
        ("featmc.engines.bounded", "_family_until_run"),
        ("featmc.engines.bounded", "until_lower_approx"),
        ("featmc.engines.bounded", "bounded_until_vectors"),
    ],
    "bounded.reward": [("featmc.engines.bounded", "bounded_expected_reward")],
    "report.render": [("featmc.report", "render_json")],
}

#: Spans recorded only inside another span: featmc calls these itself under
#: an engine or build span, while the benchmark's own calls come from outside.
NESTED_ONLY = {"features.valid_products"}

#: Enumerative work done inside the parametric engine is its fallback.
FALLBACK = "param.fallback"
_FALLBACK_SOURCES = {
    "enum.check_product",
    "enum.partition",
    "enum.solve",
    "enum.float_iter",
    "models.project",
}


def _rf_coeff_bits(rf) -> int:
    bits = 0
    for poly in (rf.num, rf.den):
        for coeff in poly.terms.values():
            size = int(coeff.numerator).bit_length() + int(coeff.denominator).bit_length()
            bits = max(bits, size)
    return bits


def _on_return(tracer: "Tracer", name: str, args, result):
    """Counters read at a layer boundary from its arguments or result."""
    if name == "enum.solve":
        tracer.counters["enum.solve_rows"] += len(args[1])
    elif name == "param.function":
        tracer.counters["param.rf_terms"] += len(result.num.terms) + len(result.den.terms)
        tracer.maximum("param.rf_coeff_bits", _rf_coeff_bits(result))
    elif name == "engine.param":
        tracer.counters["param.fallback_products"] += sum(
            o.fallback for o in result.outcomes.values()
        )
    elif name == "engine.bounded":
        tracer.counters["bounded.unknown_products"] += len(result.unknown_products)
        for outcome in result.outcomes.values():
            if outcome.error_bound is not None:
                tracer.maximum("bounded.max_error_bound", float(outcome.error_bound))
    elif name == "dsl.build":
        system = result.system
        tracer.counters["models.system_states"] += len(system.states)
        tracer.counters["models.system_transitions"] += len(system.transitions)
        tracer.counters["features.products"] += len(system.diagram.valid_products())


#: metric name -> (unit, kind, span name); kind is "self" (seconds),
#: "calls", or "counter" (read from Tracer.counters, sourced at span name)
LAYER_METRICS = {
    "dsl.parse_s": ("s", "self", "dsl.parse"),
    "dsl.build_s": ("s", "self", "dsl.build"),
    "models.compose_s": ("s", "self", "models.compose"),
    "models.validate_s": ("s", "self", "models.validate"),
    "models.project_s": ("s", "self", "models.project"),
    "models.project_calls": ("count", "calls", "models.project"),
    "models.system_states": ("count", "counter", "dsl.build"),
    "models.system_transitions": ("count", "counter", "dsl.build"),
    "features.products": ("count", "counter", "dsl.build"),
    "features.valid_products_calls": ("count", "calls", "features.valid_products"),
    "profiles.to_dense_s": ("s", "self", "profiles.to_dense"),
    "profiles.to_dense_calls": ("count", "calls", "profiles.to_dense"),
    "properties.parse_s": ("s", "self", "properties.parse"),
    "enum.check_product_s": ("s", "self", "enum.check_product"),
    "enum.partition_s": ("s", "self", "enum.partition"),
    "enum.solve_s": ("s", "self", "enum.solve"),
    "enum.solve_calls": ("count", "calls", "enum.solve"),
    "enum.solve_rows": ("count", "counter", "enum.solve"),
    "enum.float_iter_s": ("s", "self", "enum.float_iter"),
    "param.function_s": ("s", "self", "param.function"),
    "param.rf_terms": ("count", "counter", "param.function"),
    "param.rf_coeff_bits": ("bits", "counter", "param.function"),
    "param.evaluate_s": ("s", "self", "param.evaluate"),
    "param.fallback_products": ("count", "counter", "engine.param"),
    "param.fallback_s": ("s", "self", FALLBACK),
    "param.interpolate_s": ("s", "self", "param.interpolate"),
    "bounded.dense_s": ("s", "self", "bounded.dense"),
    "bounded.sat_s": ("s", "self", "bounded.sat"),
    "bounded.until_s": ("s", "self", "bounded.until"),
    "bounded.until_calls": ("count", "calls", "bounded.until"),
    "bounded.reward_s": ("s", "self", "bounded.reward"),
    "bounded.max_error_bound": ("prob", "counter", "engine.bounded"),
    "bounded.unknown_products": ("count", "counter", "engine.bounded"),
    "report.render_s": ("s", "self", "report.render"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) of a dotted path in a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and counters of one traced pass; patches are undone on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def __enter__(self):
        for name, sites in TARGETS.items():
            for module_name, path in sites:
                found = _resolve(module_name, path)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(name, original))
                self._patches.append((owner, attr, original))
                self.present.add(name)
                if name in _FALLBACK_SOURCES:
                    self.present.add(FALLBACK)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrapper(self, name: str, fn):
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in NESTED_ONLY and not open_:
                return fn(*args, **kwargs)
            span_name = name
            if name in _FALLBACK_SOURCES and any(
                spans[i][0] == "engine.param" for i in open_
            ):
                span_name = FALLBACK
            index = len(spans)
            spans.append([span_name, time.perf_counter(), None, open_[-1] if open_ else None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()
            _on_return(self, span_name, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, parent in self.spans:
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                counts[name] += 1
        return counts

    def metrics(self, scale: float = 1.0) -> tuple[dict, list]:
        """Every layer metric whose targets exist, and the absent ones.
        Times are multiplied by ``scale``."""
        self_times = self.self_times()
        calls = self.calls()
        values, absent = {}, []
        for metric, (unit, kind, span) in LAYER_METRICS.items():
            if span not in self.present:
                absent.append(metric)
                continue
            if kind == "self":
                value = self_times.get(span, 0.0) * scale
            elif kind == "calls":
                value = calls.get(span, 0)
            else:
                value = self.counters.get(metric, 0)
            values[metric] = {"value": value, "unit": unit}
        return values, absent
