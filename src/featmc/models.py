"""Featured Markov models and their compositions.

An FDTMC annotates every transition of a finite Markov chain with a profile,
so it encodes one concrete DTMC per valid product.  FMDPs add actions and
serve as the composable intermediate form: synchronized products run
components in lockstep with independent probabilistic choices, observer
products let a reactive component respond to its partner within the same
time step.  Every analyzed system is reduced to an FDTMC before checking.

Observation guards: a transition's action carries a Boolean guard over
propositions owned by *other* components.  Composition substitutes the
partner's label set into these guards (the current state's labels for the
synchronized product and for the driving side of the observer product, the
successor state's labels for the observing side).  Guards over propositions
foreign to both operands survive as residual guards and must be resolved by
a later composition.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .engines.elimination import closure
from .errors import InvalidProductError, ModelError, NondeterminismError
from .features import (
    FeatureDiagram,
    FeatureExpression,
    FFalse,
    FTrue,
    FVar,
    FNot,
    Product,
    TRUE,
    conj,
    conjoin,
    substitute,
)
from .profiles import (
    Profile,
    add,
    complement,
    constant,
    indicator,
    probability_range_findings,
    products_where,
    reward_range_findings,
)
from .rational import ONE, ZERO, rational
from .records import field, record

State = Hashable


@record(frozen=True)
class ActionLabel:
    """Base action name plus an observation guard over foreign propositions."""

    name: str
    obs: FeatureExpression = TRUE

    def __str__(self):
        if isinstance(self.obs, FTrue):
            return self.name
        return f"{self.name} | obs: {self.obs}"


@record
class ValidationReport:
    """Findings from a structural model check; empty means the model is valid."""

    violations: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.findings

    def __str__(self):
        if self.ok:
            return "valid"
        lines = list(self.findings)
        for item in self.violations:
            lines.append(str(item))
        return "\n".join(lines)


def render_state(state: State) -> str:
    if isinstance(state, tuple):
        return "(" + ",".join(render_state(s) for s in state) + ")"
    return str(state)


def _states_and_init(states, init) -> tuple[tuple, dict]:
    """The state tuple and the initial distribution, checked: no state
    twice, and every initial state is a state.  A bare state is the
    distribution that puts all mass on it."""
    states = tuple(states)
    state_set = set(states)
    if len(state_set) != len(states):
        raise ModelError("duplicate states")
    if not isinstance(init, Mapping):
        init = {init: ONE}
    init = {s: rational(v) if not isinstance(v, float) else v for s, v in init.items()}
    for s in init:
        if s not in state_set:
            raise ModelError(f"initial state {render_state(s)} not in state set")
    return states, init


def row_total(diagram: FeatureDiagram, profiles: Iterable[Profile]) -> Profile:
    """The pointwise sum of ``profiles``, a fold of ``add``."""
    return sum(profiles, constant(ZERO, diagram))


def merge(transitions: dict, key, profile: Profile) -> None:
    """Add ``profile`` to the transition at ``key``, or make it one."""
    transitions[key] = add(transitions[key], profile) if key in transitions else profile


def missing_mass(total: Profile, where: str) -> Profile | None:
    """The ``1 - total`` residual a row's implicit self-loop carries, or
    None where the row already sums to 1 for every product.  A row over 1
    for some product is an error naming ``where`` and those products."""
    residual = complement(total)
    negative = products_where(residual, lambda v: v < 0)
    if negative:
        raise ModelError(
            f"{where}: outgoing probability exceeds 1 for products "
            + ", ".join(str(p) for p, _ in negative)
        )
    return residual if residual.where(bool) else None


# ---------------------------------------------------------------------------
# FDTMC
# ---------------------------------------------------------------------------


class FDTMC:
    """Featured discrete-time Markov chain with optional state rewards."""

    def __init__(
        self,
        states: Sequence[State],
        init: Mapping[State, object] | State,
        diagram: FeatureDiagram,
        transitions: Mapping[tuple[State, State], Profile],
        ap: Iterable[str] = (),
        labels: Mapping[State, Iterable[str]] | None = None,
        rewards: Mapping[State, Profile] | None = None,
    ):
        self.states, self.init = _states_and_init(states, init)
        state_set = set(self.states)
        self.diagram = diagram
        self.transitions = dict(transitions)
        for (s, t), profile in self.transitions.items():
            if s not in state_set or t not in state_set:
                raise ModelError(f"transition ({render_state(s)},{render_state(t)}) uses unknown state")
            if profile.diagram != diagram:
                raise ModelError("transition profile has a foreign diagram")
        self.ap = frozenset(ap)
        self.labels = {s: frozenset(labels.get(s, ())) if labels else frozenset() for s in self.states}
        for s, props in self.labels.items():
            if not props <= self.ap:
                raise ModelError(f"state {render_state(s)} labeled with undeclared propositions")
        self.rewards = dict(rewards) if rewards is not None else None
        for s, profile in (self.rewards or {}).items():
            if s not in state_set:
                raise ModelError(f"reward on unknown state {render_state(s)}")
            if profile.diagram != diagram:
                raise ModelError("reward profile has a foreign diagram")
        self._out: dict[State, list[tuple[State, Profile]]] | None = None

    def out_edges(self, state: State) -> list[tuple[State, Profile]]:
        if self._out is None:
            out: dict[State, list[tuple[State, Profile]]] = {s: [] for s in self.states}
            for (s, t), profile in self.transitions.items():
                out[s].append((t, profile))
            self._out = out
        return self._out[state]

    @cached_property
    def row_totals(self) -> dict[State, Profile]:
        """Per state, the sum of its outgoing profiles."""
        return {s: row_total(self.diagram, (p for _, p in self.out_edges(s))) for s in self.states}

    def reward_profile(self, state: State) -> Profile:
        if self.rewards is None or state not in self.rewards:
            return constant(ZERO, self.diagram)
        return self.rewards[state]

    def states_with(self, proposition: str) -> set[State]:
        return {s for s in self.states if proposition in self.labels[s]}

    def __repr__(self):
        return (
            f"FDTMC(states={len(self.states)}, transitions={len(self.transitions)}, "
            f"products={len(self.diagram.valid_products())})"
        )


class DTMC:
    """Concrete chain for one product; carries rewards when projected from an MRM."""

    def __init__(
        self,
        states: Sequence[State],
        init: Mapping[State, object],
        transitions: Mapping[tuple[State, State], object],
        labels: Mapping[State, frozenset] | None = None,
        rewards: Mapping[State, object] | None = None,
    ):
        self.states = tuple(states)
        self.init = dict(init)
        self.transitions = {k: v for k, v in transitions.items() if v != 0}
        self.labels = {s: frozenset(labels.get(s, ())) if labels else frozenset() for s in self.states}
        self.rewards = dict(rewards) if rewards is not None else None
        out: dict[State, list[tuple[State, object]]] = {s: [] for s in self.states}
        for (s, t), p in self.transitions.items():
            out[s].append((t, p))
        self._out = out

    def out_edges(self, state: State):
        return self._out[state]

    @cached_property
    def pred(self) -> dict[State, list[tuple[State, int]]]:
        """Per state, its predecessors, each with the product mask of the
        reachability closure: 1, the one product of a concrete chain."""
        pred: dict[State, list[tuple[State, int]]] = {s: [] for s in self.states}
        for (s, t) in self.transitions:
            pred[t].append((s, 1))
        return pred

    def states_with(self, proposition: str) -> set[State]:
        return {s for s in self.states if proposition in self.labels[s]}

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        for s in self.states:
            total = sum((p for _, p in self._out[s]), ZERO)
            if total != 1:
                report.violations.append((s, total))
        return report


def validate_fdtmc(model: FDTMC) -> ValidationReport:
    """Check the product-consistency axiom plus profile and init sanity.

    Every violating (state, product, row sum) triple is reported, so a
    seeded error points directly at the offending combination.
    """
    report = ValidationReport()
    total_init = sum(model.init.values(), ZERO)
    if total_init != 1:
        report.findings.append(f"initial distribution sums to {total_init}, not 1")
    for s, weight in model.init.items():
        if weight < 0:
            report.findings.append(f"negative initial weight on {render_state(s)}")
    for s in model.states:
        for _, profile in model.out_edges(s):
            for finding in probability_range_findings(profile):
                report.findings.append(f"state {render_state(s)}: {finding}")
        for product, total in products_where(model.row_totals[s], lambda v: v != 1):
            report.violations.append((s, product, total))
    if model.rewards:
        for s, profile in model.rewards.items():
            for finding in reward_range_findings(profile):
                report.findings.append(f"reward of {render_state(s)}: {finding}")
    return report


def project(model: FDTMC, product: Product) -> DTMC:
    """Instantiate at one product: profiles collapse to their values there."""
    if not model.diagram.is_valid(product):
        raise InvalidProductError(f"{product} is not valid for this model")
    transitions = {
        key: profile.evaluate(product) for key, profile in model.transitions.items()
    }
    rewards = None
    if model.rewards is not None:
        rewards = {s: model.reward_profile(s).evaluate(product) for s in model.states}
    return DTMC(model.states, model.init, transitions, model.labels, rewards)


def path_probability(model: FDTMC, path: Sequence[State]) -> Profile:
    """Product of the profiles along the path; empty and singleton paths give 1."""
    result: Profile = constant(ONE, model.diagram)
    for s, t in zip(path, path[1:]):
        profile = model.transitions.get((s, t))
        if profile is None:
            raise ModelError(
                f"({render_state(s)},{render_state(t)}) is not a transition of the model"
            )
        result = result * profile
    return result


# ---------------------------------------------------------------------------
# FMDP
# ---------------------------------------------------------------------------


class FMDP:
    """Featured Markov decision process keyed by (state, action label, state).

    The action set is the set of base names; each concrete transition refines
    its base action with an observation guard.  A row may sum to 0 for some
    product, meaning the action is disabled there.
    """

    def __init__(
        self,
        states: Sequence[State],
        init: Mapping[State, object] | State,
        diagram: FeatureDiagram,
        transitions: Mapping[tuple[State, ActionLabel, State], Profile],
        ap: Iterable[str] = (),
        labels: Mapping[State, Iterable[str]] | None = None,
    ):
        self.states, self.init = _states_and_init(states, init)
        state_set = set(self.states)
        self.diagram = diagram
        self.transitions = dict(transitions)
        for (s, label, t), profile in self.transitions.items():
            if s not in state_set or t not in state_set:
                raise ModelError("transition uses unknown state")
            if profile.diagram != diagram:
                raise ModelError("transition profile has a foreign diagram")
        self.ap = frozenset(ap)
        self.labels = {s: frozenset(labels.get(s, ())) if labels else frozenset() for s in self.states}
        self.action_names = frozenset(label.name for (_, label, _) in self.transitions)

    @cached_property
    def rows(self) -> tuple:
        """One ``(state, action name, observation class, edges, total)``
        entry per cell of the consistency axiom: the ``(label, target,
        profile)`` edges of one action in one state whose guards hold in one
        assignment of those guards' variables, and their summed profile."""
        by_sa: dict[tuple[State, str], list] = {}
        for (s, label, t), profile in self.transitions.items():
            by_sa.setdefault((s, label.name), []).append((label, t, profile))
        names = sorted({name for (_, name) in by_sa})
        rows = []
        for s in self.states:
            for name in names:
                edges = by_sa.get((s, name), [])
                variables = sorted(set().union(*(label.obs.variables() for label, _, _ in edges)))
                for values in itertools.product((False, True), repeat=len(variables)):
                    obs = dict(zip(variables, values))
                    matching = tuple(edge for edge in edges if edge[0].obs.evaluate(obs))
                    total = row_total(self.diagram, (p for _, _, p in matching))
                    rows.append((s, name, obs, matching, total))
        return tuple(rows)

    def obs_variables(self) -> frozenset[str]:
        out: set[str] = set()
        for (_, label, _) in self.transitions:
            out |= label.obs.variables()
        return frozenset(out)

    def __repr__(self):
        return (
            f"FMDP(states={len(self.states)}, actions={sorted(self.action_names)}, "
            f"transitions={len(self.transitions)})"
        )


def validate_fmdp(model: FMDP) -> ValidationReport:
    """Consistency axiom: every row sums to 0 or 1 for every product."""
    report = ValidationReport()
    for s, name, obs, _, row in model.rows:
        for product, total in products_where(row, lambda v: v != 0 and v != 1):
            report.violations.append((s, name, dict(obs), product, total))
    return report


def is_complete(model: FMDP) -> bool:
    """True iff every action is enabled in every state for every product."""
    return not any(total.where(lambda v: v != 1) for *_, total in model.rows)


def top_up(model: FMDP, rows: Iterable[tuple], where) -> FMDP:
    """``model`` with each of its ``rows``' missing mass on a self-loop
    guarded by the row's observation class; ``where(row)`` names a row
    over 1 in the error."""
    transitions = dict(model.transitions)
    for row in rows:
        s, name, obs, _, total = row
        residual = missing_mass(total, where(row))
        if residual is not None:
            literals = [FVar(n) if v else FNot(FVar(n)) for n, v in sorted(obs.items())]
            merge(transitions, (s, ActionLabel(name, conj(*literals)), s), residual)
    return FMDP(model.states, model.init, model.diagram, transitions, model.ap, model.labels)


def project_fmdp(model: FMDP, product: Product) -> FMDP:
    """Project onto one product, keeping observation guards symbolic.

    The result is an FMDP over the empty feature diagram (a plain MDP), so
    composition operators apply to projected components unchanged.
    """
    if not model.diagram.is_valid(product):
        raise InvalidProductError(f"{product} is not valid for this model")
    trivial = FeatureDiagram(())
    transitions = {}
    for key, profile in model.transitions.items():
        value = profile.evaluate(product)
        if value != 0:
            transitions[key] = constant(value, trivial)
    return FMDP(model.states, model.init, trivial, transitions, model.ap, model.labels)


def fdtmc_as_fmdp(model: FDTMC, action: str = "tick") -> FMDP:
    """View an FDTMC as the complete single-action FMDP it degenerates from."""
    transitions = {
        (s, ActionLabel(action), t): profile
        for (s, t), profile in model.transitions.items()
    }
    return FMDP(model.states, model.init, model.diagram, transitions, model.ap, model.labels)


def as_fdtmc(model: FMDP) -> FDTMC:
    """Collapse a complete single-action FMDP back to an FDTMC."""
    if len(model.action_names) != 1:
        raise ModelError(
            f"expected a single action, found {sorted(model.action_names)}"
        )
    for (_, label, _) in model.transitions:
        if not isinstance(label.obs, FTrue):
            raise ModelError(
                f"unresolved observation guard {label.obs} left after composition"
            )
    transitions: dict[tuple[State, State], Profile] = {}
    for (s, _, t), profile in model.transitions.items():
        merge(transitions, (s, t), profile)
    # one action and no guards: the FMDP's rows are the chain's rows
    chain = FDTMC(model.states, model.init, model.diagram, transitions, model.ap, model.labels)
    if any(total.where(lambda v: v != 1) for total in chain.row_totals.values()):
        raise ModelError("FMDP is not complete; cannot view it as an FDTMC")
    return chain


# ---------------------------------------------------------------------------
# Featured transition systems
# ---------------------------------------------------------------------------


class FTS:
    """Transition system with feature expressions: probability-free variability."""

    def __init__(
        self,
        states: Sequence[State],
        init: State,
        diagram: FeatureDiagram,
        transitions: Mapping[tuple[State, ActionLabel, State], FeatureExpression],
        ap: Iterable[str] = (),
        labels: Mapping[State, Iterable[str]] | None = None,
    ):
        self.states = tuple(states)
        self.init = init
        self.diagram = diagram
        self.transitions = dict(transitions)
        self.ap = frozenset(ap)
        self.labels = {s: frozenset(labels.get(s, ())) if labels else frozenset() for s in self.states}


def fts_to_fmdp(fts: FTS) -> FMDP:
    """Feature expressions become 0/1 indicator profiles.

    Rejects nondeterminism: no state may enable two targets for the same
    action, observation and product.
    """
    transitions = {
        key: indicator(guard, fts.diagram) for key, guard in fts.transitions.items()
    }
    model = FMDP(fts.states, fts.init, fts.diagram, transitions, fts.ap, fts.labels)
    for s, name, obs, _, row in model.rows:
        # a row of 0/1 indicators sums to the number of targets it enables
        if bad := products_where(row, lambda v: v > 1):
            product, enabled = bad[0]
            raise NondeterminismError(
                f"state {render_state(s)}, action {name}, observation "
                f"{obs} enables {enabled} targets for product {product}"
            )
    return model


def complete_deterministic(model: FMDP) -> FMDP:
    """Add probability-1 self-loops wherever a row sums to 0.

    Rows that sum to anything other than 0 or 1 are structural errors.
    The added self-loop is guarded by the exact observation class it covers.
    """
    for s, name, _, _, row in model.rows:
        if bad := products_where(row, lambda v: v != 0 and v != 1):
            raise ModelError(
                f"state {render_state(s)}, action {name}: row sums to {bad[0][1]}, "
                "cannot complete a non-deterministic-profile row"
            )
    return top_up(model, model.rows, lambda row: f"state {render_state(row[0])}")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _substitute_partner(guard: FeatureExpression, partner_ap: frozenset, partner_labels: frozenset):
    if isinstance(guard, FTrue):
        return guard
    binding = {p: (p in partner_labels) for p in partner_ap & guard.variables()}
    return substitute(guard, binding)


def _compose(
    m1: FMDP, m2: FMDP, diagram: FeatureDiagram, edges: Iterable[tuple[tuple, Profile]], prune: bool
) -> FMDP:
    """The FMDP over the state pairs of ``m1`` and ``m2`` with the
    ``(key, profile)`` pairs of ``edges``, summing repeated keys.

    The initial distribution is the product of the operands', and a pair
    carries both its states' labels.  With ``prune`` only the states some
    single product reaches with positive probability from the initial
    distribution are kept (the per-product reachability closure over
    product bitsets).
    """
    transitions: dict[tuple[State, ActionLabel, State], Profile] = {}
    for key, profile in edges:
        merge(transitions, key, profile)
    states = tuple((a, b) for a in m1.states for b in m2.states)
    init = {(a, b): wa * wb for a, wa in m1.init.items() for b, wb in m2.init.items()}
    labels = {(a, b): m1.labels[a] | m2.labels[b] for (a, b) in states}
    if prune:
        full = (1 << len(diagram.valid_products())) - 1
        succ: dict[State, list[tuple[State, int]]] = {s: [] for s in states}
        for (s, _, t), profile in transitions.items():
            succ[s].append((t, profile.where(lambda v: v > 0)))
        seeds = {s: full if init.get(s, 0) != 0 else 0 for s in states}
        reached = closure(seeds, succ, dict.fromkeys(states, full))
        states = tuple(s for s in states if reached[s])
        init = {s: w for s, w in init.items() if reached[s]}
        transitions = {
            (s, label, t): profile
            for (s, label, t), profile in transitions.items()
            if reached[s] and reached[t]
        }
    return FMDP(states, init, diagram, transitions, m1.ap | m2.ap, labels)


def sync_product(m1: FMDP, m2: FMDP, prune: bool = True) -> FMDP:
    """CSP-style synchronized product.

    Shared actions fire jointly with independent probabilistic choices;
    either side's observation guards read the partner's *current* labels.
    Unshared actions move one component while the other stays put.
    """
    if m1.ap & m2.ap:
        raise ModelError(f"overlapping atomic propositions: {sorted(m1.ap & m2.ap)}")
    diagram = conjoin(m1.diagram, m2.diagram)
    shared = m1.action_names & m2.action_names
    edges1: dict[str, list] = {}
    for (s, label, t), profile in m1.transitions.items():
        edges1.setdefault(label.name, []).append((s, label, t, profile.lift(diagram)))
    edges2: dict[str, list] = {}
    for (s, label, t), profile in m2.transitions.items():
        edges2.setdefault(label.name, []).append((s, label, t, profile.lift(diagram)))

    edges = []
    for name in shared:
        for s1, label1, t1, p1 in edges1.get(name, ()):
            for s2, label2, t2, p2 in edges2.get(name, ()):
                g1 = _substitute_partner(label1.obs, m2.ap, m2.labels[s2])
                g2 = _substitute_partner(label2.obs, m1.ap, m1.labels[s1])
                guard = conj(g1, g2)
                if isinstance(guard, FFalse):
                    continue
                edges.append((((s1, s2), ActionLabel(name, guard), (t1, t2)), p1 * p2))
    for name in m1.action_names - shared:
        for s1, label1, t1, p1 in edges1.get(name, ()):
            for s2 in m2.states:
                guard = _substitute_partner(label1.obs, m2.ap, m2.labels[s2])
                if isinstance(guard, FFalse):
                    continue
                edges.append((((s1, s2), ActionLabel(name, guard), (t1, s2)), p1))
    for name in m2.action_names - shared:
        for s2, label2, t2, p2 in edges2.get(name, ()):
            for s1 in m1.states:
                guard = _substitute_partner(label2.obs, m1.ap, m1.labels[s1])
                if isinstance(guard, FFalse):
                    continue
                edges.append((((s1, s2), ActionLabel(name, guard), (s1, t2)), p2))
    return _compose(m1, m2, diagram, edges, prune)


def observer_product(m1: FMDP, m2: FMDP, prune: bool = True) -> FMDP:
    """Asymmetric composition: m2 reacts instantly to m1's successor labels.

    m2 must be complete and its guards may only mention m1's propositions.
    m1's own observation guards, if any, are resolved against m2's current
    labels, which is the only causally sound direction for a mutual read.
    """
    if m1.ap & m2.ap:
        raise ModelError(f"overlapping atomic propositions: {sorted(m1.ap & m2.ap)}")
    stray = m2.obs_variables() - m1.ap
    if stray:
        raise ModelError(
            f"observer guards mention propositions outside the observee: {sorted(stray)}"
        )
    if len(m2.action_names) > 1:
        raise ModelError(
            "the observer's action alphabet is the set of observations; it may "
            f"not mix base actions {sorted(m2.action_names)}"
        )
    if not is_complete(m2):
        raise ModelError("observer must be a complete FMDP")
    diagram = conjoin(m1.diagram, m2.diagram)
    observer_edges: dict[State, list] = {}
    for (s, label, t), profile in m2.transitions.items():
        observer_edges.setdefault(s, []).append((label, t, profile.lift(diagram)))

    edges = []
    for (s1, label1, t1), p1 in m1.transitions.items():
        p1l = p1.lift(diagram)
        observed = {p: (p in m1.labels[t1]) for p in m1.ap}
        for s2 in m2.states:
            g1 = _substitute_partner(label1.obs, m2.ap, m2.labels[s2])
            if isinstance(g1, FFalse):
                continue
            for label2, t2, p2 in observer_edges.get(s2, ()):
                if not label2.obs.evaluate(observed):
                    continue
                edges.append((((s1, s2), ActionLabel(label1.name, g1), (t1, t2)), p1l * p2))
    return _compose(m1, m2, diagram, edges, prune)
