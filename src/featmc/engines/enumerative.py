"""Enumerative engine: project every product, check each chain on its own.

One solve per product, columns taken once: every profile gives its dense
column once per family (:func:`~featmc.models.projections`).  Each projected
DTMC is checked with standard algorithms: graph precomputation of the
certain-zero and certain-one state sets, then an exact solve of the
remaining sparse system ``x = P·x + b`` by the state elimination the
parametric engine also runs; plain iteration for bounded until, a single
matrix-vector product for next.  Expected rewards use the same
precomputation, solve ``x = P·x + r`` the same way, and diverge to infinity
on products that miss the target with positive probability.

A top-level unbounded until or reward query reads only the value at the
initial distribution: its system holds only the unknowns reachable from the
positive-weight initial states, only those are back-substituted, and a
threshold is decided from their value.  Nested operators, next, bounded
until and :func:`check_dtmc` get values at every state.  Float mode runs the
same elimination on float64 rows: one direct solve with no stopping
criterion, whose only error is rounding.  It raises where rounding makes a
self-loop 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import FeatmcError, ModelError, UnsupportedPropertyError
from ..models import DTMC, FDTMC, projections
from ..properties import (
    Atom,
    Next,
    PAnd,
    PNot,
    Prob,
    Property,
    PTrue,
    RewardQuery,
    StateFormula,
    Until,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO
from ..result import SAT, VIOLATED, FamilyResult, ProductOutcome
from .elimination import EliminationGraph, closure as reachable, until_partition

ENGINE_NAME = "enumerative"


# ---------------------------------------------------------------------------
# Graph precomputation
# ---------------------------------------------------------------------------


def until_state_partition(dtmc: DTMC, sat1: set, sat2: set):
    """Split states into certain-zero, certain-one and genuinely unknown:
    :func:`until_partition` on one product, so every mask is 0 or 1."""
    states = dtmc.states
    zero, one = until_partition(
        dtmc.pred,
        {s: 1 if s in sat1 else 0 for s in states},
        {s: 1 if s in sat2 else 0 for s in states},
        1,
    )
    zero = {s for s, bit in zero.items() if bit}
    one = {s for s, bit in one.items() if bit}
    unknown = [s for s in states if s not in zero and s not in one]
    return zero, one, unknown


def bounded_until_values(dtmc: DTMC, sat1: set, sat2: set, bound: int) -> dict:
    values = {s: ONE if s in sat2 else ZERO for s in dtmc.states}
    for _ in range(bound):
        nxt = {}
        for s in dtmc.states:
            if s in sat2:
                nxt[s] = ONE
            elif s not in sat1:
                nxt[s] = ZERO
            else:
                nxt[s] = sum((p * values[t] for t, p in dtmc.out_edges(s)), ZERO)
        values = nxt
    return values


def next_values(dtmc: DTMC, sat: set) -> dict:
    return {
        s: sum((p for t, p in dtmc.out_edges(s) if t in sat), ZERO)
        for s in dtmc.states
    }


# ---------------------------------------------------------------------------
# Sink-shaped systems x = P·x + b
# ---------------------------------------------------------------------------

#: Node valued 1: the edges into it from a state carry that state's b.
SINK = ("__sink__",)


def _closure(loop):
    """1 / (1 - loop).  A loop of 1 with mass left to reroute makes the
    system singular, which the precomputation rules out: a guard assertion."""
    if loop == 1:
        raise ModelError("singular linear system in until/reward computation")
    return ONE / (ONE - loop)


def _float_closure(loop: float) -> float:
    """1 / (1 - loop) in float64.  The exact loop is below 1, but rounding
    can push it to 1, where no float answer is meaningful."""
    if loop >= 1.0:
        raise ModelError(
            "float64 rounding made the linear system singular (a self-loop "
            "rounded to 1); use exact mode"
        )
    return 1.0 / (1.0 - loop)


def solve_linear(
    unknowns: list, rows: list, closure=_closure, one=ONE, wanted: list | None = None
) -> dict:
    """Solution of ``x = P·x + b`` over ``unknowns`` in the value domain of
    ``closure`` and its unit ``one``: exact rationals by default.

    ``rows[i]`` lists the edges ``(state, value)`` of ``unknowns[i]``; its
    edges into :data:`SINK` carry b.  Without ``wanted`` every unknown is
    eliminated and the successor lists are back-substituted in reverse
    order.  With ``wanted`` (a subset of ``unknowns``) the other unknowns
    are eliminated first, with the wanted ones protected, and then only the
    wanted ones are eliminated and back-substituted: the result holds their
    values alone.  Rows not reachable from ``wanted`` add work, not values,
    so callers pass the rows of the wanted states' cone only.
    """
    graph = EliminationGraph(closure)
    for s, row in zip(unknowns, rows):
        for t, p in row:
            graph.add(s, t, p)
    if wanted is None:
        wanted = unknowns
    else:
        keep = set(wanted)
        wanted = [s for s in unknowns if s in keep]
        for _ in graph.run(unknowns, keep):
            pass
    zero = one - one
    values = {SINK: one}
    for v, out in reversed(list(graph.run(wanted))):
        values[v] = sum((p * values[t] for t, p in out), zero)
    del values[SINK]
    return values


def _cone(dtmc: DTMC, candidates: list, wanted) -> list:
    """The candidates reachable from the wanted ones through candidates
    only, in the order of ``candidates``."""
    inside = set(candidates)
    reached = reachable(
        {s: 1 if s in wanted and s in inside else 0 for s in dtmc.states},
        {s: [(t, 1) for t, _ in dtmc.out_edges(s)] for s in candidates},
        {s: 1 if s in inside else 0 for s in dtmc.states},
    )
    return [s for s in candidates if reached[s]]


def _until_system(dtmc: DTMC, sat1: set, sat2: set, wanted=None):
    """Values fixed by the partition (unknowns at 0), the unknown states,
    and their rows: edges into certain-one states go to the sink.  With
    ``wanted`` states, the fixed values are theirs and the unknowns are
    those reachable from them."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    if wanted is not None:
        unknown = _cone(dtmc, unknown, wanted)
    rows = [
        [(SINK if t in one else t, p) for t, p in dtmc.out_edges(s) if t not in zero]
        for s in unknown
    ]
    states = dtmc.states if wanted is None else wanted
    return {s: ONE if s in one else ZERO for s in states}, unknown, rows


def _reward_system(dtmc: DTMC, targets: set, wanted=None):
    """Like :func:`_until_system`; the unknowns are the non-target states
    that reach the target almost surely, and the sink edge carries their
    reward."""
    if dtmc.rewards is None:
        raise ModelError("model has no rewards")
    zero, one, unknown = until_state_partition(dtmc, set(dtmc.states), targets)
    finite = [s for s in dtmc.states if s in one and s not in targets]
    if wanted is not None:
        finite = _cone(dtmc, finite, wanted)
    inside = set(finite)
    rows = [
        [(t, p) for t, p in dtmc.out_edges(s) if t in inside]
        + [(SINK, dtmc.rewards.get(s, ZERO))]
        for s in finite
    ]
    states = dtmc.states if wanted is None else wanted
    return {s: ZERO if s in one else INFINITY for s in states}, finite, rows


def _solve(
    values: dict, unknowns: list, rows: list, wanted=None, float_mode: bool = False
) -> dict:
    domain = ()
    if float_mode:
        values = {s: float(v) for s, v in values.items()}
        rows = [[(t, float(p)) for t, p in row] for row in rows]
        domain = (_float_closure, 1.0)
    if unknowns:
        values.update(solve_linear(unknowns, rows, *domain, wanted=wanted))
    return values


def until_values(dtmc: DTMC, sat1: set, sat2: set, wanted=None) -> dict:
    """Exact probabilities of ``sat1 U sat2`` at every state, or at the
    ``wanted`` states only."""
    return _solve(*_until_system(dtmc, sat1, sat2, wanted), wanted)


def expected_reward(dtmc: DTMC, targets: set, wanted=None) -> dict:
    """Expected accumulated state reward until the first target visit, at
    every state or at the ``wanted`` states only.

    The reward of the current state is earned at every step taken from it;
    target states earn nothing and stop accumulation.  States that miss the
    target with positive probability get infinity.
    """
    return _solve(*_reward_system(dtmc, targets, wanted), wanted)


def until_values_float(dtmc: DTMC, sat1: set, sat2: set, wanted=None) -> dict:
    """:func:`until_values` in float64."""
    return _solve(*_until_system(dtmc, sat1, sat2, wanted), wanted, float_mode=True)


def expected_reward_float(dtmc: DTMC, targets: set, wanted=None) -> dict:
    """:func:`expected_reward` in float64."""
    return _solve(*_reward_system(dtmc, targets, wanted), wanted, float_mode=True)


# ---------------------------------------------------------------------------
# PCTL evaluation on one chain
# ---------------------------------------------------------------------------


@dataclass
class DtmcCheckResult:
    """Satisfying states of the formula plus, for probability or reward
    operators at the top, the per-state numeric values."""

    sat: set
    values: dict | None = None


def path_values(dtmc: DTMC, path, sat_cache, float_mode: bool = False, wanted=None) -> dict:
    """Per-state values of a path formula; unbounded until solves only for
    the ``wanted`` states when they are given."""
    if isinstance(path, Next):
        return next_values(dtmc, sat_cache(path.operand))
    if isinstance(path, Until):
        sat1 = sat_cache(path.left)
        sat2 = sat_cache(path.right)
        if path.bound is None:
            if float_mode:
                return until_values_float(dtmc, sat1, sat2, wanted)
            return until_values(dtmc, sat1, sat2, wanted)
        return bounded_until_values(dtmc, sat1, sat2, path.bound)
    raise UnsupportedPropertyError(f"unknown path formula {path!r}")


def _satisfaction(dtmc: DTMC, float_mode: bool = False):
    """The memoised satisfying-state sets of state formulas on one chain."""
    memo: dict[StateFormula, set] = {}

    def sat(node: StateFormula) -> set:
        if node in memo:
            return memo[node]
        if isinstance(node, PTrue):
            result = set(dtmc.states)
        elif isinstance(node, Atom):
            result = dtmc.states_with(node.name)
        elif isinstance(node, PNot):
            result = set(dtmc.states) - sat(node.operand)
        elif isinstance(node, PAnd):
            result = sat(node.left) & sat(node.right)
        elif isinstance(node, Prob):
            if node.interval is None:
                raise UnsupportedPropertyError(
                    "quantitative operator is only allowed at the top level"
                )
            result = _within(dtmc, node, path_values(dtmc, node.path, sat, float_mode))
        else:
            raise UnsupportedPropertyError(f"unknown state formula {node!r}")
        memo[node] = result
        return result

    return sat


def _within(dtmc: DTMC, node: Prob, values: dict) -> set:
    return {s for s in dtmc.states if node.interval.contains(values[s])}


def check_dtmc(dtmc: DTMC, formula: StateFormula, float_mode: bool = False) -> DtmcCheckResult:
    """Evaluate a state formula on every state of one concrete chain."""
    sat = _satisfaction(dtmc, float_mode)
    if isinstance(formula, Prob):
        # one solve: the top values also give the satisfying states
        values = path_values(dtmc, formula.path, sat, float_mode)
        if formula.interval is None:
            return DtmcCheckResult(set(), values)
        return DtmcCheckResult(_within(dtmc, formula, values), values)
    return DtmcCheckResult(sat(formula))


def _initial_value(dtmc: DTMC, values: dict):
    """The value at the initial distribution; weight-0 states count for
    nothing, even where their value is infinite."""
    total = ZERO
    for s, weight in dtmc.init.items():
        if not weight:
            continue
        v = values[s]
        if v == INFINITY:
            return INFINITY
        total += weight * v
    return total


def check_product(dtmc: DTMC, prop: Property, float_mode: bool = False) -> ProductOutcome:
    """Check one projected chain; the verdict is taken at the initial
    distribution.  A top-level probability or reward operator solves for the
    positive-weight initial states only and decides from their value."""
    sat = _satisfaction(dtmc, float_mode)
    starts = [s for s, weight in dtmc.init.items() if weight]
    if isinstance(prop, RewardQuery):
        reward_fn = expected_reward_float if float_mode else expected_reward
        values = reward_fn(dtmc, sat(prop.target), starts)
        return ProductOutcome(None, value=_initial_value(dtmc, values))
    if isinstance(prop, Prob):
        value = _initial_value(dtmc, path_values(dtmc, prop.path, sat, float_mode, starts))
        if prop.interval is None:
            return ProductOutcome(None, value=value)
        decision = SAT if prop.interval.contains(value) else VIOLATED
        return ProductOutcome(None, value=value, decision=decision)
    # plain state formula: decide at the initial states
    holds = all(s in sat(prop) for s in starts)
    return ProductOutcome(None, decision=SAT if holds else VIOLATED)


def check_family_enumerative(
    model: FDTMC,
    prop: Property | str,
    float_mode: bool = False,
) -> FamilyResult:
    """Project onto every valid product and check the chains independently.

    ``float_mode`` runs unbounded until and reward computations as the same
    state elimination in float64: no stopping criterion, only rounding
    error, and a :class:`ModelError` where rounding makes a self-loop 1.
    An error raised for one product keeps its type and fields; its message
    is prefixed with the product.
    """
    from ..properties import bind_check, parse_property

    if isinstance(prop, str):
        prop = parse_property(prop)
    bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    for product, dtmc in projections(model):
        try:
            outcome = check_product(dtmc, prop, float_mode)
        except FeatmcError as exc:
            exc.args = (f"product {product}: {exc}",)
            raise
        outcome.product = product
        result.outcomes[product] = outcome
    result.elapsed = time.perf_counter() - started
    return result
