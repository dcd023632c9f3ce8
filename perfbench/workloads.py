"""Workload definitions and the verdict check against exact reference values.

A workload is a list of models, each with the properties it is checked
against.  Every property runs under every engine configuration in
``ENGINES``.  Models are handed to featmc as model-file text, so parsing is
part of the measured set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


ENGINES = ("enum", "enum_float", "param", "bounded")


@dataclass(frozen=True)
class ModelSpec:
    """Properties of one model, checked under the listed engines."""

    key: str
    source: tuple  # ("service", n) | ("failure", n) | ("bundled", name)
    properties: tuple
    engines: tuple = ENGINES


SERVICE7 = ModelSpec("service7", ("service", 7), ("fail_value", "fail_risk"))
FAILURE8 = ModelSpec("failure8", ("failure", 8), ("fail_value", "fail_risk"))
WIPER = ModelSpec("wiper", ("bundled", "wiper"), ("energy", "finishes", "fast_next"))
MINEPUMP_NEXT = ModelSpec("minepump", ("bundled", "minepump"), ("methane_next",))
# The parametric check of risk_value takes 19 s or 30 s depending on the hash
# seed, so it runs in a workload of its own (README.md, "Seeds").
MINEPUMP_RISK = ModelSpec(
    "minepump", ("bundled", "minepump"), ("risk_value",), ("enum", "enum_float", "bounded")
)
MINEPUMP_RISK_PARAM = ModelSpec(
    "minepump", ("bundled", "minepump"), ("risk_value",), ("param",)
)

WORKLOADS = {
    "service": (SERVICE7,),
    "failure": (FAILURE8,),
    "bundled": (WIPER, MINEPUMP_RISK, MINEPUMP_NEXT),
    "minepump_param": (MINEPUMP_RISK_PARAM,),
}

#: Tiny inputs for the benchmark's own tests.
QUICK_WORKLOADS = {
    "service": (ModelSpec("service2", ("service", 2), ("fail_value", "fail_risk")),),
    "failure": (ModelSpec("failure2", ("failure", 2), ("fail_value", "fail_risk")),),
    "bundled": (WIPER,),
}

#: Bounded-engine precision, and the tolerance of the float64 mode.
BOUNDED_EPSILON = "1/1000"
FLOAT_TOLERANCE = 1e-6


def workload_models(name: str, quick: bool) -> tuple:
    table = QUICK_WORKLOADS if quick else WORKLOADS
    if name not in table:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def checks(models) -> list:
    """Every (engine, model, property) combination one pass runs."""
    return [
        (engine, spec, prop)
        for spec in models
        for prop in spec.properties
        for engine in spec.engines
    ]


def model_text(spec: ModelSpec) -> str:
    from featmc import dsl, generators
    from featmc.cli import bundled_model_path

    kind, arg = spec.source
    if kind == "bundled":
        return bundled_model_path(arg).read_text(encoding="utf-8")
    generate = {
        "service": generators.gen_service_provider,
        "failure": generators.gen_failure_recovery,
    }[kind]
    return dsl.print_model_file(generate(arg))


def run_engine(engine: str, system, prop_text: str):
    """One family check through featmc's public engine entry points.

    Entry points are looked up on their modules at call time so the tracer's
    wrappers see the call.
    """
    from featmc.engines import bounded, enumerative, parametric
    from featmc.rational import rational

    if engine == "enum":
        return enumerative.check_family_enumerative(system, prop_text)
    if engine == "enum_float":
        return enumerative.check_family_enumerative(system, prop_text, float_mode=True)
    if engine == "param":
        return parametric.check_family_parametric(system, prop_text)
    if engine == "bounded":
        return bounded.check_family_bounded(
            system, prop_text, epsilon=rational(BOUNDED_EPSILON)
        )
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# Verdict check
# ---------------------------------------------------------------------------


def _exact(text: str):
    return float("inf") if text == "inf" else Fraction(text)


def _fraction(value):
    if value == float("inf"):
        return value
    return Fraction(int(value.numerator), int(value.denominator))


def verdict_ok(engine: str, outcome, expected: dict | None) -> bool:
    """Does one product's outcome agree with the exact reference?

    Exact engines must match exactly; the bounded engine's interval must
    contain the exact value and a decided verdict must be the right one;
    float64 values must be within FLOAT_TOLERANCE.
    """
    if expected is None or outcome.value is None:
        return False
    exact = _exact(expected["value"])
    want = expected["decision"]
    if engine in ("enum", "param"):
        return _fraction(outcome.value) == exact and outcome.decision == want
    if engine == "enum_float":
        value = float(outcome.value)
        if exact == float("inf") or value == float("inf"):
            close = value == exact
        else:
            close = abs(value - float(exact)) <= FLOAT_TOLERANCE
        return close and outcome.decision == want
    if engine == "bounded":
        if outcome.decision not in (want, "unknown"):
            return False
        value = _fraction(outcome.value)
        if exact == float("inf") or value == float("inf"):
            return value == exact
        return abs(value - exact) <= _fraction(outcome.error_bound or 0)
    raise ValueError(f"unknown engine {engine!r}")
