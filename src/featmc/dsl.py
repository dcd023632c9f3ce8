"""Model description language: parsing, building and printing.

A model file declares Boolean features and constraints, any number of
component blocks (``fdtmc``, ``fmdp`` or ``fts``), a system composition
expression over the components, and named properties::

    features W A V;
    constraint true;

    fdtmc Methane {
      states no_methane methane;
      init no_methane;
      label methane: methane;
      no_methane -> methane : 0.125;
      methane -> no_methane : [V] 0.9, 0.75;
    }

    fmdp Water {
      states low normal high;
      init normal;
      normal -(tick | obs: !pumpOn)-> high : 0.25;
    }

    system = complete(Controller) |> (Methane || Water);
    property safe = "P[<0.1](F risk)";

Probabilities are written as decimals or integer fractions and parse to
exact rationals.  Mass omitted from a state's outgoing transitions becomes
an implicit self-loop, which must be nonnegative for every product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NUMBER, ModelError, TokenStream
from .features import (
    FOr,
    FeatureDiagram,
    FeatureExpression,
    FTrue,
    TRUE,
    conj,
    feature_expression,
    print_expression,
)
from .models import (
    FDTMC,
    FMDP,
    FTS,
    ActionLabel,
    State,
    as_fdtmc,
    complete_deterministic,
    fdtmc_as_fmdp,
    fts_to_fmdp,
    merge,
    missing_mass,
    observer_product,
    row_total,
    sync_product,
    top_up,
    validate_fdtmc,
)
from .profiles import GuardedProfile, Profile
from .properties import parse_property
from .rational import ONE, ZERO, rat_str

# ---------------------------------------------------------------------------
# Syntax tree of a model file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseDef:
    guard: FeatureExpression | None
    value: object


@dataclass(frozen=True)
class TransitionDef:
    source: str
    target: str
    action: str | None  # None in fdtmc blocks
    obs: FeatureExpression
    cases: tuple[CaseDef, ...]


@dataclass(frozen=True)
class ComponentDef:
    kind: str  # fdtmc | fmdp | fts
    name: str
    states: tuple[str, ...]
    init: tuple[tuple[str, object | None], ...]
    labels: tuple[tuple[str, tuple[str, ...]], ...]
    transitions: tuple[TransitionDef, ...]
    rewards: tuple[tuple[str, tuple[CaseDef, ...]], ...]


class SystemExpr:
    pass


@dataclass(frozen=True)
class Ref(SystemExpr):
    name: str


@dataclass(frozen=True)
class Compose(SystemExpr):
    op: str  # "||" or "|>"
    left: SystemExpr
    right: SystemExpr


@dataclass(frozen=True)
class Complete(SystemExpr):
    operand: SystemExpr


@dataclass(frozen=True)
class ModelFile:
    features: tuple[str, ...]
    constraints: tuple[FeatureExpression, ...]
    components: tuple[ComponentDef, ...]
    system: SystemExpr | None
    properties: tuple[tuple[str, str], ...]
    #: leading comment block, kept for generated files; not part of equality
    header: str = field(default="", compare=False)

    def component(self, name: str) -> ComponentDef:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def property_text(self, name: str) -> str:
        for key, text in self.properties:
            if key == name:
                return text
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DSL_TOKEN = re.compile(
    rf"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<punct>\|\||\|>|-\(|->|[{{}}()\[\];:,=|!&^])
    | (?P<num>{NUMBER})
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"]*")
    """,
    re.VERBOSE,
)


def _name(stream: TokenStream) -> str:
    if stream.kind() != "name":
        stream.error("expected a name")
    return stream.take()


def _names(stream: TokenStream) -> tuple[str, ...]:
    """The names up to the closing ``;``."""
    names = []
    while stream.kind() == "name":
        names.append(stream.take())
    stream.expect(";")
    return tuple(names)


def _parse_cases(stream: TokenStream, implicit_one: bool) -> tuple[CaseDef, ...]:
    cases = []
    while True:
        guard = None
        if stream.accept("["):
            guard = feature_expression(stream)
            stream.expect("]")
        if stream.kind() == "num":
            value = stream.number()
        elif guard is not None and implicit_one:
            value = ONE
        else:
            stream.error("expected a probability value")
        cases.append(CaseDef(guard, value))
        if not stream.accept(","):
            break
    return tuple(cases)


def _parse_component(stream: TokenStream, kind: str) -> ComponentDef:
    name = _name(stream)
    stream.expect("{")
    states: tuple[str, ...] = ()
    init: list[tuple[str, object | None]] = []
    labels: list[tuple[str, tuple[str, ...]]] = []
    transitions: list[TransitionDef] = []
    rewards: list[tuple[str, tuple[CaseDef, ...]]] = []
    while not stream.accept("}"):
        if stream.done:
            stream.error("unterminated component block")
        if stream.accept("states"):
            states = _names(stream)
        elif stream.accept("init"):
            while True:
                state = _name(stream)
                weight = None
                if stream.accept("["):
                    weight = stream.number()
                    stream.expect("]")
                init.append((state, weight))
                if not stream.accept(","):
                    break
            stream.expect(";")
        elif stream.accept("label"):
            state = _name(stream)
            stream.expect(":")
            labels.append((state, _names(stream)))
        elif stream.accept("reward"):
            state = _name(stream)
            stream.expect(":")
            cases = _parse_cases(stream, implicit_one=False)
            stream.expect(";")
            rewards.append((state, cases))
        else:
            source = _name(stream)
            action = None
            obs: FeatureExpression = TRUE
            if stream.accept("-("):
                action = _name(stream)
                if stream.accept("|"):
                    if _name(stream) != "obs":
                        stream.error("expected 'obs'")
                    stream.expect(":")
                    obs = feature_expression(stream)
                stream.expect(")")
            stream.expect("->")
            target = _name(stream)
            stream.expect(":")
            cases = _parse_cases(stream, implicit_one=(kind == "fts"))
            stream.expect(";")
            transitions.append(TransitionDef(source, target, action, obs, cases))
    return ComponentDef(
        kind, name, states, tuple(init), tuple(labels), tuple(transitions), tuple(rewards)
    )


def _parse_system_expr(stream: TokenStream) -> SystemExpr:
    def parse_term() -> SystemExpr:
        if stream.accept("("):
            inner = _parse_system_expr(stream)
            stream.expect(")")
            return inner
        name = _name(stream)
        if name == "complete":
            stream.expect("(")
            inner = _parse_system_expr(stream)
            stream.expect(")")
            return Complete(inner)
        return Ref(name)

    left = parse_term()
    while True:
        if stream.accept("||"):
            left = Compose("||", left, parse_term())
        elif stream.accept("|>"):
            left = Compose("|>", left, parse_term())
        else:
            return left


def parse_model_file(text: str) -> ModelFile:
    """Parse a model file into its syntax tree (no semantic checks yet)."""
    stream = TokenStream(text, _DSL_TOKEN)
    features: tuple[str, ...] = ()
    constraints: list[FeatureExpression] = []
    components: list[ComponentDef] = []
    system: SystemExpr | None = None
    properties: list[tuple[str, str]] = []
    while not stream.done:
        tok = stream.peek()
        if stream.accept("features"):
            features = features + _names(stream)
        elif stream.accept("constraint"):
            constraints.append(feature_expression(stream))
            stream.expect(";")
        elif tok in ("fdtmc", "fmdp", "fts"):
            components.append(_parse_component(stream, stream.take()))
        elif stream.accept("system"):
            stream.expect("=")
            system = _parse_system_expr(stream)
            stream.expect(";")
        elif stream.accept("property"):
            name = _name(stream)
            stream.expect("=")
            if stream.kind() != "string":
                stream.error("expected a quoted property string")
            properties.append((name, stream.take()[1:-1]))
            stream.expect(";")
        else:
            stream.error(f"unexpected {tok!r} at top level")
    return ModelFile(features, tuple(constraints), tuple(components), system, tuple(properties))


# ---------------------------------------------------------------------------
# Building models from the syntax tree
# ---------------------------------------------------------------------------


def _cases_to_profile(diagram: FeatureDiagram, cases: Sequence[CaseDef]) -> GuardedProfile:
    guarded = []
    default = ZERO
    for i, case in enumerate(cases):
        if case.guard is None:
            if i != len(cases) - 1:
                raise ModelError("the unguarded default case must come last")
            default = case.value
        else:
            guarded.append((case.guard, case.value))
    return GuardedProfile(diagram, guarded, default)


def _build_fdtmc(comp: ComponentDef, diagram: FeatureDiagram) -> FDTMC:
    transitions: dict[tuple[State, State], Profile] = {}
    rows: dict[State, list] = {}
    for tr in comp.transitions:
        if tr.action is not None or not isinstance(tr.obs, FTrue):
            raise ModelError(f"component {comp.name}: fdtmc transitions take no action")
        profile = _cases_to_profile(diagram, tr.cases)
        merge(transitions, (tr.source, tr.target), profile)
        rows.setdefault(tr.source, []).append(profile)
    for s in comp.states:
        rows.setdefault(s, [])  # a bare state keeps all its mass on a self-loop
    for s, profiles in rows.items():
        residual = missing_mass(row_total(diagram, profiles), f"component {comp.name}, state {s}")
        if residual is not None:
            merge(transitions, (s, s), residual)
    init = _build_init(comp)
    labels = dict(comp.labels)
    ap = sorted({p for _, props in comp.labels for p in props})
    rewards = None
    if comp.rewards:
        rewards = {s: _cases_to_profile(diagram, cases) for s, cases in comp.rewards}
    return FDTMC(comp.states, init, diagram, transitions, ap, labels, rewards)


def _build_init(comp: ComponentDef) -> dict[str, object]:
    if not comp.init:
        raise ModelError(f"component {comp.name} has no init statement")
    if len(comp.init) == 1 and comp.init[0][1] is None:
        return {comp.init[0][0]: ONE}
    init = {}
    for state, weight in comp.init:
        if weight is None:
            raise ModelError(
                f"component {comp.name}: init weights required when listing several states"
            )
        init[state] = weight
    return init


def _build_fmdp(comp: ComponentDef, diagram: FeatureDiagram) -> FMDP:
    if comp.rewards:
        raise ModelError(f"component {comp.name}: rewards belong to fdtmc blocks")
    transitions: dict[tuple[State, ActionLabel, State], Profile] = {}
    for tr in comp.transitions:
        if tr.action is None:
            raise ModelError(f"component {comp.name}: fmdp transitions need an action")
        profile = _cases_to_profile(diagram, tr.cases)
        merge(transitions, (tr.source, ActionLabel(tr.action, tr.obs), tr.target), profile)
    model = FMDP(
        comp.states,
        _build_init(comp),
        diagram,
        transitions,
        sorted({p for _, props in comp.labels for p in props}),
        dict(comp.labels),
    )
    # complete every observation class of each authored (state, action) row
    # with a self-loop; actions entirely absent from a state stay disabled
    authored = {(s, label.name) for (s, label, _) in transitions}
    return top_up(
        model,
        [row for row in model.rows if row[:2] in authored],
        lambda row: f"component {comp.name}, state {row[0]}, action {row[1]}"
        + (f", observation {row[2]}" if row[2] else ""),
    )


def _build_fts(comp: ComponentDef, diagram: FeatureDiagram) -> FTS:
    if comp.rewards:
        raise ModelError(f"component {comp.name}: rewards belong to fdtmc blocks")
    transitions: dict[tuple[State, ActionLabel, State], FeatureExpression] = {}
    for tr in comp.transitions:
        if tr.action is None:
            raise ModelError(f"component {comp.name}: fts transitions need an action")
        guards = []
        for case in tr.cases:
            if case.value not in (0, 1):
                raise ModelError(
                    f"component {comp.name}: fts transitions carry feature guards, "
                    "not probabilities"
                )
            if case.value == 1:
                guards.append(case.guard if case.guard is not None else TRUE)
        if not guards:
            continue
        guard = guards[0]
        for extra in guards[1:]:
            guard = FOr(guard, extra)
        key = (tr.source, ActionLabel(tr.action, tr.obs), tr.target)
        transitions[key] = guard
    init = _build_init(comp)
    if len(init) != 1:
        raise ModelError(f"component {comp.name}: fts takes a single initial state")
    return FTS(
        comp.states,
        next(iter(init)),
        diagram,
        transitions,
        sorted({p for _, props in comp.labels for p in props}),
        dict(comp.labels),
    )


@dataclass
class BuiltModel:
    """A parsed model file together with its composed system."""

    source: ModelFile
    diagram: FeatureDiagram
    components: dict[str, object]
    system: FDTMC
    properties: dict[str, str]

    def property_of(self, name_or_text: str):
        if name_or_text in self.properties:
            return parse_property(self.properties[name_or_text])
        return parse_property(name_or_text)


def _as_composable(value) -> FMDP:
    if isinstance(value, FDTMC):
        return fdtmc_as_fmdp(value)
    if isinstance(value, FTS):
        return fts_to_fmdp(value)
    return value


def _evaluate(expr: SystemExpr, components: dict):
    """The model a system expression over the built ``components`` stands for."""
    if isinstance(expr, Ref):
        try:
            return components[expr.name]
        except KeyError:
            raise ModelError(f"unknown component {expr.name!r}") from None
    if isinstance(expr, Complete):
        return complete_deterministic(_as_composable(_evaluate(expr.operand, components)))
    if isinstance(expr, Compose):
        left = _as_composable(_evaluate(expr.left, components))
        right = _as_composable(_evaluate(expr.right, components))
        if expr.op == "||":
            return sync_product(left, right)
        return observer_product(left, right)
    raise TypeError(f"unknown system expression {expr!r}")


def build_model(source: ModelFile) -> BuiltModel:
    """Elaborate a parsed file: build components, compose, validate."""
    diagram = FeatureDiagram(source.features, conj(*source.constraints))
    components: dict[str, object] = {}
    for comp in source.components:
        if comp.name in components:
            raise ModelError(f"duplicate component name {comp.name}")
        builder = {"fdtmc": _build_fdtmc, "fmdp": _build_fmdp, "fts": _build_fts}[comp.kind]
        components[comp.name] = builder(comp, diagram)

    if source.system is None:
        if len(components) != 1:
            raise ModelError("a system expression is required with several components")
        system_value = next(iter(components.values()))
    else:
        system_value = _evaluate(source.system, components)
    if isinstance(system_value, FTS):
        system_value = fts_to_fmdp(system_value)
    if isinstance(system_value, FMDP):
        system_value = as_fdtmc(system_value)
    report = validate_fdtmc(system_value)
    if not report.ok:
        raise ModelError(f"composed system violates the probability axiom:\n{report}")
    return BuiltModel(source, diagram, components, system_value, dict(source.properties))


def parse_model(text: str) -> BuiltModel:
    """Parse and elaborate a model file in one step."""
    return build_model(parse_model_file(text))


def load_model(path) -> BuiltModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _print_cases(cases: Sequence[CaseDef]) -> str:
    parts = []
    for case in cases:
        if case.guard is None:
            parts.append(rat_str(case.value))
        else:
            parts.append(f"[{print_expression(case.guard)}] {rat_str(case.value)}")
    return ", ".join(parts)


def print_model_file(source: ModelFile) -> str:
    """Canonical text form; parsing it back yields an equal syntax tree."""
    lines = []
    if source.header:
        lines.extend(source.header.rstrip("\n").split("\n"))
    if source.features:
        lines.append("features " + " ".join(source.features) + ";")
    for constraint in source.constraints:
        lines.append(f"constraint {print_expression(constraint)};")
    for comp in source.components:
        lines.append("")
        lines.append(f"{comp.kind} {comp.name} {{")
        lines.append("  states " + " ".join(comp.states) + ";")
        init_parts = []
        for state, weight in comp.init:
            init_parts.append(state if weight is None else f"{state} [{rat_str(weight)}]")
        lines.append("  init " + ", ".join(init_parts) + ";")
        for state, props in comp.labels:
            lines.append(f"  label {state}: " + " ".join(props) + ";")
        for tr in comp.transitions:
            if tr.action is None:
                arrow = "->"
            elif isinstance(tr.obs, FTrue):
                arrow = f"-({tr.action})->"
            else:
                arrow = f"-({tr.action} | obs: {print_expression(tr.obs)})->"
            if comp.kind == "fts":
                body = ", ".join(
                    f"[{print_expression(c.guard if c.guard is not None else TRUE)}]"
                    for c in tr.cases
                )
            else:
                body = _print_cases(tr.cases)
            lines.append(f"  {tr.source} {arrow} {tr.target} : {body};")
        for state, cases in comp.rewards:
            lines.append(f"  reward {state} : {_print_cases(cases)};")
        lines.append("}")
    if source.system is not None:
        lines.append("")
        lines.append(f"system = {_print_system(source.system)};")
    for name, text in source.properties:
        lines.append(f'property {name} = "{text}";')
    return "\n".join(lines) + "\n"


def _print_system(expr: SystemExpr) -> str:
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Complete):
        return f"complete({_print_system(expr.operand)})"
    left = _print_system(expr.left)
    right = _print_system(expr.right)
    if isinstance(expr.left, Compose):
        left = f"({left})"
    if isinstance(expr.right, Compose):
        right = f"({right})"
    return f"{left} {expr.op} {right}"
