"""Shared fixtures: bundled models, random model generators, oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from featmc import bundled_model_path, load_model
from featmc.engines.elimination import RationalLanes
from featmc.features import FNot, FVar, FeatureDiagram, TRUE, conj
from featmc.models import FDTMC, FMDP, ActionLabel
from featmc.profiles import GuardedProfile
from featmc.rational import ONE, ZERO, rational


def equals_pointwise(a, b) -> bool:
    """Whether two profiles over one diagram give every product the same
    value."""
    return a.diagram == b.diagram and a.dense_values() == b.dense_values()


def is_zero(profile) -> bool:
    """Whether a profile is 0 on every product."""
    return all(v == 0 for v in profile.dense_values())


def lane_rationals(lanes) -> list:
    """Every lane of an exact lane value (:class:`RationalLanes` or a
    support table) as a rational of the backend."""
    return [*map(rational, lanes.num, lanes.den)]


def table_at(table, product):
    """A support table's value at a product: the entry of the product's
    assignment of the table's support, its first position the most
    significant bit."""
    index = 0
    for position in table.support:
        index = (index << 1) | product.values[position]
    return rational(table.num[index], table.den[index])


def rational_lanes(*values) -> RationalLanes:
    """The exact lane value whose lanes are ``values``."""
    values = [rational(v) for v in values]
    return RationalLanes(
        tuple(v.numerator for v in values), tuple(v.denominator for v in values)
    )


@pytest.fixture(scope="session")
def wiper():
    return load_model(bundled_model_path("wiper"))


@pytest.fixture(scope="session")
def minepump():
    return load_model(bundled_model_path("minepump"))


# ---------------------------------------------------------------------------
# Random model construction (axiom-correct by construction)
# ---------------------------------------------------------------------------


def _guard_classes(rng: random.Random, features, max_guard_features=2):
    """A random partition of the product space into literal-conjunctions."""
    chosen = rng.sample(features, min(len(features), rng.randint(0, max_guard_features)))
    if not chosen:
        return [TRUE]
    classes = []
    for values in itertools.product((False, True), repeat=len(chosen)):
        literals = [FVar(f) if v else FNot(FVar(f)) for f, v in zip(chosen, values)]
        classes.append(conj(*literals))
    return classes


def _random_distribution(rng: random.Random, size: int, grain: int = 8):
    """Random rationals with denominator ``grain`` summing to one."""
    cuts = sorted(rng.randint(0, grain) for _ in range(size - 1))
    weights = []
    prev = 0
    for c in cuts:
        weights.append(c - prev)
        prev = c
    weights.append(grain - prev)
    return [rational(w, grain) for w in weights]


def random_fdtmc(
    rng: random.Random,
    max_states: int = 8,
    max_features: int = 4,
    with_rewards: bool = False,
    propositions=("a", "b", "c"),
    grain: int = 8,
) -> FDTMC:
    """A random product-consistent FDTMC with guard-list profiles whose
    probabilities are multiples of ``1/grain``."""
    n_states = rng.randint(2, max_states)
    n_features = rng.randint(1, max_features)
    features = [f"f{i}" for i in range(1, n_features + 1)]
    diagram = FeatureDiagram(features)
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for s in states:
        classes = _guard_classes(rng, features)
        successors = rng.sample(states, rng.randint(1, min(3, n_states)))
        case_values = {t: [] for t in successors}
        for guard in classes:
            dist = _random_distribution(rng, len(successors), grain)
            for t, p in zip(successors, dist):
                case_values[t].append((guard, p))
        for t, cases in case_values.items():
            if len(classes) == 1:
                profile = GuardedProfile(diagram, (), cases[0][1])
            else:
                profile = GuardedProfile(diagram, cases, ZERO)
            if not is_zero(profile):
                transitions[(s, t)] = profile
    labels = {}
    ap = set()
    for s in states:
        props = [p for p in propositions if rng.random() < 0.4]
        labels[s] = props
        ap.update(props)
    # make sure every proposition labels at least one state
    for p in propositions:
        if p not in ap:
            labels[states[rng.randrange(n_states)]].append(p)
            ap.add(p)
    rewards = None
    if with_rewards:
        rewards = {}
        for s in states:
            classes = _guard_classes(rng, features, 1)
            cases = [(g, rational(rng.randint(0, 3))) for g in classes]
            rewards[s] = GuardedProfile(diagram, cases[:-1], cases[-1][1])
    return FDTMC(states, states[0], diagram, transitions, sorted(ap), labels, rewards)


def split_init(model: FDTMC, seed) -> FDTMC:
    """``model`` started from up to three random states: the first with
    weight 0, the others sharing weight 1."""
    rng = random.Random(seed)
    starts = rng.sample(model.states, min(3, len(model.states)))
    weight = ONE / (len(starts) - 1)
    init = {starts[0]: ZERO, **{s: weight for s in starts[1:]}}
    return FDTMC(
        model.states, init, model.diagram, model.transitions, model.ap, model.labels,
        model.rewards,
    )


def random_complete_fmdp(
    rng: random.Random,
    feature_prefix: str,
    propositions,
    foreign_propositions=(),
    max_states: int = 3,
    max_actions: int = 2,
    single_action: bool = False,
) -> FMDP:
    """A random complete FMDP; observation guards read foreign propositions."""
    n_states = rng.randint(1, max_states)
    n_features = rng.randint(1, 2)
    features = [f"{feature_prefix}{i}" for i in range(1, n_features + 1)]
    diagram = FeatureDiagram(features)
    states = [f"{feature_prefix}q{i}" for i in range(n_states)]
    if single_action:
        max_actions = 1
    actions = [f"act{i}" for i in range(1, rng.randint(1, max_actions) + 1)]
    transitions = {}
    for s in states:
        for a in actions:
            obs_classes = [TRUE]
            if foreign_propositions and rng.random() < 0.5:
                prop = rng.choice(list(foreign_propositions))
                obs_classes = [FVar(prop), FNot(FVar(prop))]
            for obs in obs_classes:
                classes = _guard_classes(rng, features, 1)
                successors = rng.sample(states, rng.randint(1, n_states))
                case_values = {t: [] for t in successors}
                for guard in classes:
                    dist = _random_distribution(rng, len(successors))
                    for t, p in zip(successors, dist):
                        case_values[t].append((guard, p))
                for t, cases in case_values.items():
                    if len(classes) == 1:
                        profile = GuardedProfile(diagram, (), cases[0][1])
                    else:
                        profile = GuardedProfile(diagram, cases, ZERO)
                    if is_zero(profile):
                        continue
                    key = (s, ActionLabel(a, obs), t)
                    transitions[key] = profile
    labels = {s: [p for p in propositions if rng.random() < 0.5] for s in states}
    return FMDP(states, states[0], diagram, transitions, propositions, labels)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def path_enumeration_until(dtmc, sat1, sat2, bound):
    """Brute-force bounded-until probabilities by enumerating paths."""
    out = {}
    for start in dtmc.states:
        def rec(s, depth, weight):
            if s in sat2:
                return weight
            if depth == bound or s not in sat1:
                return ZERO
            total = ZERO
            for t, p in dtmc.out_edges(s):
                total += rec(t, depth + 1, weight * p)
            return total

        out[start] = rec(start, 0, ONE)
    return out


def value_iteration_until(dtmc, sat1, sat2, steps=10_000, float_mode=True):
    """Long float value iteration; independent check of the exact solver."""
    values = {s: (1.0 if s in sat2 else 0.0) for s in dtmc.states}
    edges = {
        s: [(t, float(p)) for t, p in dtmc.out_edges(s)] for s in dtmc.states
    }
    for _ in range(steps):
        nxt = {}
        delta = 0.0
        for s in dtmc.states:
            if s in sat2:
                nxt[s] = 1.0
            elif s not in sat1:
                nxt[s] = 0.0
            else:
                nxt[s] = sum(p * values[t] for t, p in edges[s])
            delta = max(delta, abs(nxt[s] - values[s]))
        values = nxt
        if delta < 1e-15:
            break
    return values


def edge_vectors(model, s) -> list:
    """State s's out-edges, each with its per-product vector
    (``Profile.dense_values``): the reference the engines' value groups and
    lanes are checked against."""
    return [(t, p.dense_values()) for t, p in model.out_edges(s)]


def fraction_next_vectors(dense, sat):
    """Per state and product, the probability of stepping into ``sat``
    (state -> product bitset): one Fraction sum per (state, edge, product)
    over the per-product edge vectors, the reference of the packed step
    kernel."""
    out = {}
    for s in dense.states:
        acc = [ZERO] * dense.n
        for t, vec in edge_vectors(dense.model, s):
            bits = sat[t]
            for i in range(dense.n):
                if bits >> i & 1 and vec[i]:
                    acc[i] += vec[i]
        out[s] = acc
    return out


def fraction_until_vectors(dense, sat1, sat2, bound):
    """Exact step-bounded until values, ``bound`` Jacobi steps from the
    target indicator in Fractions, per (state, edge, product): the reference
    of the packed step kernel."""
    x = {s: [ONE if sat2[s] >> i & 1 else ZERO for i in range(dense.n)] for s in dense.states}
    for _ in range(bound):
        out = {}
        for s in dense.states:
            acc = [ZERO] * dense.n
            for t, vec in edge_vectors(dense.model, s):
                xt = x[t]
                for i in range(dense.n):
                    if vec[i] and xt[i]:
                        acc[i] += vec[i] * xt[i]
            out[s] = [
                ONE if sat2[s] >> i & 1 else acc[i] if sat1[s] >> i & 1 else ZERO
                for i in range(dense.n)
            ]
        x = out
    return x
