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

from .errors import ModelError, ParseError
from .features import (
    FNot,
    FOr,
    FVar,
    FeatureDiagram,
    FeatureExpression,
    FTrue,
    TRUE,
    conj,
    parse_feature_expression,
    print_expression,
)
from .models import (
    FDTMC,
    FMDP,
    FTS,
    ActionLabel,
    State,
    _row_groups,
    as_fdtmc,
    complete_deterministic,
    fdtmc_as_fmdp,
    fts_to_fmdp,
    observer_product,
    row_total,
    sync_product,
    validate_fdtmc,
)
from .profiles import GuardedProfile, Profile, add, complement, products_where
from .properties import parse_property
from .rational import ONE, ZERO, rat_str, rational

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
# Tokenizer
# ---------------------------------------------------------------------------

_DSL_TOKEN = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<punct>\|\||\|>|-\(|\)->|->|[{}()\[\];:,=|!&^])
    | (?P<num>\d+(?:\.\d+)?(?:[eE]-?\d+)?(?:/\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"]*")
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    text: str
    kind: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _DSL_TOKEN.match(text, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup
        chunk = match.group(0)
        if kind != "ws":
            tokens.append(Token(chunk, kind, line, match.start() - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + chunk.rindex("\n") + 1
        pos = match.end()
    return tokens


class _Stream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of file")
        self.index += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            self.error(f"expected {text!r}")
        return self.take()

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.take()
            return True
        return False

    def name(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            self.error("expected a name")
        return self.take().text

    def error(self, message: str):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(message, last.line if last else 1, last.column if last else 1)
        raise ParseError(message, tok.line, tok.column)


# Feature expressions reuse their own parser; inside the DSL they appear in
# brackets or after "obs:" and are captured as token slices first.

_EXPR_STOP = {"]", ")", ";", ","}


def _capture_expression(stream: _Stream, stop: set[str]) -> FeatureExpression:
    depth = 0
    parts = []
    start = stream.peek()
    while True:
        tok = stream.peek()
        if tok is None:
            stream.error("unterminated expression")
        if depth == 0 and tok.text in stop:
            break
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            if depth == 0:
                break
            depth -= 1
        parts.append(stream.take().text)
    if not parts:
        stream.error("empty expression")
    try:
        return parse_feature_expression(" ".join(parts))
    except ParseError as exc:
        raise ParseError(str(exc), start.line, start.column) from None


def _parse_cases(stream: _Stream, implicit_one: bool) -> tuple[CaseDef, ...]:
    cases = []
    while True:
        guard = None
        if stream.accept("["):
            guard = _capture_expression(stream, {"]"})
            stream.expect("]")
        tok = stream.peek()
        if tok is not None and tok.kind == "num":
            value = rational(stream.take().text)
        elif guard is not None and implicit_one:
            value = ONE
        else:
            stream.error("expected a probability value")
        cases.append(CaseDef(guard, value))
        if not stream.accept(","):
            break
    return tuple(cases)


def _parse_component(stream: _Stream, kind: str) -> ComponentDef:
    name = stream.name()
    stream.expect("{")
    states: tuple[str, ...] = ()
    init: list[tuple[str, object | None]] = []
    labels: list[tuple[str, tuple[str, ...]]] = []
    transitions: list[TransitionDef] = []
    rewards: list[tuple[str, tuple[CaseDef, ...]]] = []
    while not stream.accept("}"):
        tok = stream.peek()
        if tok is None:
            stream.error("unterminated component block")
        if tok.text == "states":
            stream.take()
            names = []
            while stream.peek() is not None and stream.peek().kind == "name":
                names.append(stream.take().text)
            stream.expect(";")
            states = tuple(names)
        elif tok.text == "init":
            stream.take()
            while True:
                state = stream.name()
                weight = None
                if stream.accept("["):
                    weight = rational(stream.take().text)
                    stream.expect("]")
                init.append((state, weight))
                if not stream.accept(","):
                    break
            stream.expect(";")
        elif tok.text == "label":
            stream.take()
            state = stream.name()
            stream.expect(":")
            props = []
            while stream.peek() is not None and stream.peek().kind == "name":
                props.append(stream.take().text)
            stream.expect(";")
            labels.append((state, tuple(props)))
        elif tok.text == "reward":
            stream.take()
            state = stream.name()
            stream.expect(":")
            cases = _parse_cases(stream, implicit_one=False)
            stream.expect(";")
            rewards.append((state, cases))
        else:
            source = stream.name()
            action = None
            obs: FeatureExpression = TRUE
            if stream.accept("-("):
                action = stream.name()
                if stream.accept("|"):
                    if stream.name() != "obs":
                        stream.error("expected 'obs'")
                    stream.expect(":")
                    obs = _capture_expression(stream, {")->"})
                stream.expect(")->")
            else:
                stream.expect("->")
            target = stream.name()
            stream.expect(":")
            cases = _parse_cases(stream, implicit_one=(kind == "fts"))
            stream.expect(";")
            transitions.append(TransitionDef(source, target, action, obs, cases))
    return ComponentDef(
        kind, name, states, tuple(init), tuple(labels), tuple(transitions), tuple(rewards)
    )


def _parse_system_expr(stream: _Stream) -> SystemExpr:
    def parse_term() -> SystemExpr:
        if stream.accept("("):
            inner = _parse_system_expr(stream)
            stream.expect(")")
            return inner
        name = stream.name()
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
    stream = _Stream(text)
    features: tuple[str, ...] = ()
    constraints: list[FeatureExpression] = []
    components: list[ComponentDef] = []
    system: SystemExpr | None = None
    properties: list[tuple[str, str]] = []
    while stream.peek() is not None:
        tok = stream.peek()
        if tok.text == "features":
            stream.take()
            names = []
            while stream.peek() is not None and stream.peek().kind == "name":
                names.append(stream.take().text)
            stream.expect(";")
            features = features + tuple(names)
        elif tok.text == "constraint":
            stream.take()
            constraints.append(_capture_expression(stream, {";"}))
            stream.expect(";")
        elif tok.text in ("fdtmc", "fmdp", "fts"):
            kind = stream.take().text
            components.append(_parse_component(stream, kind))
        elif tok.text == "system":
            stream.take()
            stream.expect("=")
            system = _parse_system_expr(stream)
            stream.expect(";")
        elif tok.text == "property":
            stream.take()
            name = stream.name()
            stream.expect("=")
            string = stream.peek()
            if string is None or string.kind != "string":
                stream.error("expected a quoted property string")
            stream.take()
            stream.expect(";")
            properties.append((name, string.text[1:-1]))
        else:
            stream.error(f"unexpected {tok.text!r} at top level")
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


def _complete_rows(diagram, rows, describe):
    """Top up each row with an implicit self-loop carrying the missing mass.

    ``rows`` maps a row key, which identifies one probability distribution
    (state, or state/action/class), to the profiles of its edges.  Returns
    the self-loop profiles to add, keyed by row key.  Raises when a row
    already exceeds probability one for some product.
    """
    loops = {}
    for row, profiles in rows.items():
        residual = complement(row_total(diagram, profiles))
        negative = products_where(residual, lambda v: v < 0)
        if negative:
            raise ModelError(
                f"{describe(row)}: outgoing probability exceeds 1 for products "
                + ", ".join(str(p) for p, _ in negative)
            )
        if residual.where(bool):
            loops[row] = residual
    return loops


def _build_fdtmc(comp: ComponentDef, diagram: FeatureDiagram) -> FDTMC:
    transitions: dict[tuple[State, State], Profile] = {}
    for tr in comp.transitions:
        if tr.action is not None or not isinstance(tr.obs, FTrue):
            raise ModelError(f"component {comp.name}: fdtmc transitions take no action")
        profile = _cases_to_profile(diagram, tr.cases)
        key = (tr.source, tr.target)
        transitions[key] = add(transitions[key], profile) if key in transitions else profile
    rows: dict = {}
    for (s, _), profile in transitions.items():
        rows.setdefault(s, []).append(profile)
    for s in comp.states:
        rows.setdefault(s, [])  # a bare state keeps all its mass on a self-loop
    loops = _complete_rows(diagram, rows, lambda s: f"component {comp.name}, state {s}")
    for s, residual in loops.items():
        key = (s, s)
        transitions[key] = add(transitions[key], residual) if key in transitions else residual
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
        key = (tr.source, ActionLabel(tr.action, tr.obs), tr.target)
        transitions[key] = add(transitions[key], profile) if key in transitions else profile
    # complete every observation class of each authored (state, action) row
    # with a self-loop; actions entirely absent from a state stay disabled
    probe = FMDP(comp.states, _build_init(comp), diagram, transitions,
                 sorted({p for _, props in comp.labels for p in props}), dict(comp.labels))
    authored = {(s, label.name) for (s, label, _) in transitions}
    rows = {
        (s, name, tuple(sorted(assignment.items()))): [profile for _, _, profile in edges]
        for s, name, assignment, edges in _row_groups(probe)
        if (s, name) in authored
    }
    loops = _complete_rows(
        diagram,
        rows,
        lambda row: f"component {comp.name}, state {row[0]}, action {row[1]}"
        + (f", observation {dict(row[2])}" if row[2] else ""),
    )
    for (s, name, assignment), residual in loops.items():
        literals = [FVar(n) if v else FNot(FVar(n)) for n, v in assignment]
        label = ActionLabel(name, conj(*literals))
        key = (s, label, s)
        transitions[key] = add(transitions[key], residual) if key in transitions else residual
    return FMDP(
        comp.states,
        _build_init(comp),
        diagram,
        transitions,
        sorted({p for _, props in comp.labels for p in props}),
        dict(comp.labels),
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


def build_model(source: ModelFile, validate: bool = True) -> BuiltModel:
    """Elaborate a parsed file: build components, compose, validate."""
    diagram = FeatureDiagram(source.features, conj(*source.constraints))
    components: dict[str, object] = {}
    for comp in source.components:
        if comp.name in components:
            raise ModelError(f"duplicate component name {comp.name}")
        builder = {"fdtmc": _build_fdtmc, "fmdp": _build_fmdp, "fts": _build_fts}[comp.kind]
        components[comp.name] = builder(comp, diagram)

    def as_composable(value) -> FMDP:
        if isinstance(value, FDTMC):
            return fdtmc_as_fmdp(value)
        if isinstance(value, FTS):
            return fts_to_fmdp(value)
        return value

    def evaluate(expr: SystemExpr):
        if isinstance(expr, Ref):
            try:
                return components[expr.name]
            except KeyError:
                raise ModelError(f"unknown component {expr.name!r}") from None
        if isinstance(expr, Complete):
            return complete_deterministic(as_composable(evaluate(expr.operand)))
        if isinstance(expr, Compose):
            left = as_composable(evaluate(expr.left))
            right = as_composable(evaluate(expr.right))
            if expr.op == "||":
                return sync_product(left, right)
            return observer_product(left, right)
        raise TypeError(f"unknown system expression {expr!r}")

    if source.system is None:
        if len(components) != 1:
            raise ModelError("a system expression is required with several components")
        system_value = next(iter(components.values()))
    else:
        system_value = evaluate(source.system)
    if isinstance(system_value, FTS):
        system_value = fts_to_fmdp(system_value)
    if isinstance(system_value, FMDP):
        system_value = as_fdtmc(system_value)
    if validate:
        report = validate_fdtmc(system_value)
        if not report.ok:
            raise ModelError(f"composed system violates the probability axiom:\n{report}")
    return BuiltModel(source, diagram, components, system_value, dict(source.properties))


def parse_model(text: str, validate: bool = True) -> BuiltModel:
    """Parse and elaborate a model file in one step."""
    return build_model(parse_model_file(text), validate=validate)


def load_model(path, validate: bool = True) -> BuiltModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read(), validate=validate)


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
