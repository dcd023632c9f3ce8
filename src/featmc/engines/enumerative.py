"""Enumerative engine: project every product, check each chain on its own.

One solve per product, columns taken once: every profile gives its dense
column once per family (:func:`~featmc.models.projections`), and a top-level
threshold decides its states from the values it solved for.  Each projected
DTMC is checked with standard algorithms: graph precomputation of the
certain-zero and certain-one state sets, then an exact solve of the
remaining sparse system ``x = P·x + b`` by the state elimination the
parametric engine also runs, with values back-substituted at every state;
plain iteration for bounded until, a single matrix-vector product for next.
Expected rewards use the same precomputation, solve ``x = P·x + r`` the same
way, and diverge to infinity on products that miss the target with positive
probability.  Float mode runs the same elimination on float64 rows: one
direct solve with no stopping criterion, whose only error is rounding.  It
raises where rounding makes a self-loop 1.
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
from .elimination import EliminationGraph, until_partition

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


def solve_linear(unknowns: list, rows: list, closure=_closure, one=ONE) -> dict:
    """Solution of ``x = P·x + b`` over ``unknowns`` in the value domain of
    ``closure`` and its unit ``one``: exact rationals by default.

    ``rows[i]`` lists the edges ``(state, value)`` of ``unknowns[i]``; its
    edges into :data:`SINK` carry b.  Every unknown is eliminated and the
    successor lists are back-substituted in reverse order.
    """
    graph = EliminationGraph(closure)
    for s, row in zip(unknowns, rows):
        for t, p in row:
            graph.add(s, t, p)
    zero = one - one
    values = {SINK: one}
    for v, out in reversed(list(graph.run(unknowns))):
        values[v] = sum((p * values[t] for t, p in out), zero)
    del values[SINK]
    return values


def _until_system(dtmc: DTMC, sat1: set, sat2: set):
    """Values fixed by the partition (unknowns at 0), the unknown states,
    and their rows: edges into certain-one states go to the sink."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    rows = [
        [(SINK if t in one else t, p) for t, p in dtmc.out_edges(s) if t not in zero]
        for s in unknown
    ]
    return {s: ONE if s in one else ZERO for s in dtmc.states}, unknown, rows


def _reward_system(dtmc: DTMC, targets: set):
    """Like :func:`_until_system`; the unknowns are the non-target states
    that reach the target almost surely, and the sink edge carries their
    reward."""
    if dtmc.rewards is None:
        raise ModelError("model has no rewards")
    zero, one, unknown = until_state_partition(dtmc, set(dtmc.states), targets)
    finite = [s for s in dtmc.states if s in one and s not in targets]
    inside = set(finite)
    rows = [
        [(t, p) for t, p in dtmc.out_edges(s) if t in inside]
        + [(SINK, dtmc.rewards.get(s, ZERO))]
        for s in finite
    ]
    return {s: ZERO if s in one else INFINITY for s in dtmc.states}, finite, rows


def _solve(values: dict, unknowns: list, rows: list, float_mode: bool = False) -> dict:
    domain = ()
    if float_mode:
        values = {s: float(v) for s, v in values.items()}
        rows = [[(t, float(p)) for t, p in row] for row in rows]
        domain = (_float_closure, 1.0)
    if unknowns:
        values.update(solve_linear(unknowns, rows, *domain))
    return values


def until_values(dtmc: DTMC, sat1: set, sat2: set) -> dict:
    """Exact per-state probabilities of ``sat1 U sat2``."""
    return _solve(*_until_system(dtmc, sat1, sat2))


def expected_reward(dtmc: DTMC, targets: set) -> dict:
    """Expected accumulated state reward until the first target visit.

    The reward of the current state is earned at every step taken from it;
    target states earn nothing and stop accumulation.  States that miss the
    target with positive probability get infinity.
    """
    return _solve(*_reward_system(dtmc, targets))


def until_values_float(dtmc: DTMC, sat1: set, sat2: set) -> dict:
    """:func:`until_values` in float64."""
    return _solve(*_until_system(dtmc, sat1, sat2), float_mode=True)


def expected_reward_float(dtmc: DTMC, targets: set) -> dict:
    """:func:`expected_reward` in float64."""
    return _solve(*_reward_system(dtmc, targets), float_mode=True)


# ---------------------------------------------------------------------------
# PCTL evaluation on one chain
# ---------------------------------------------------------------------------


@dataclass
class DtmcCheckResult:
    """Satisfying states of the formula plus, for probability or reward
    operators at the top, the per-state numeric values."""

    sat: set
    values: dict | None = None


def path_values(dtmc: DTMC, path, sat_cache, float_mode: bool = False) -> dict:
    if isinstance(path, Next):
        return next_values(dtmc, sat_cache(path.operand))
    if isinstance(path, Until):
        sat1 = sat_cache(path.left)
        sat2 = sat_cache(path.right)
        if path.bound is None:
            if float_mode:
                return until_values_float(dtmc, sat1, sat2)
            return until_values(dtmc, sat1, sat2)
        return bounded_until_values(dtmc, sat1, sat2, path.bound)
    raise UnsupportedPropertyError(f"unknown path formula {path!r}")


def check_dtmc(dtmc: DTMC, formula: StateFormula, float_mode: bool = False) -> DtmcCheckResult:
    """Evaluate a state formula on every state of one concrete chain."""
    memo: dict[StateFormula, set] = {}

    def within(node: Prob, values: dict) -> set:
        return {s for s in dtmc.states if node.interval.contains(values[s])}

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
            result = within(node, path_values(dtmc, node.path, sat, float_mode))
        else:
            raise UnsupportedPropertyError(f"unknown state formula {node!r}")
        memo[node] = result
        return result

    if isinstance(formula, Prob):
        # one solve: the top values also give the satisfying states
        values = path_values(dtmc, formula.path, sat, float_mode)
        if formula.interval is None:
            return DtmcCheckResult(set(), values)
        return DtmcCheckResult(within(formula, values), values)
    return DtmcCheckResult(sat(formula))


def _initial_value(dtmc: DTMC, values: dict):
    total = ZERO
    for s, weight in dtmc.init.items():
        v = values[s]
        if v == INFINITY:
            return INFINITY
        total += weight * v
    return total


def check_product(dtmc: DTMC, prop: Property, float_mode: bool = False) -> ProductOutcome:
    """Check one projected chain; the verdict is taken at the initial
    distribution."""
    if isinstance(prop, RewardQuery):
        targets = check_dtmc(dtmc, prop.target, float_mode).sat
        reward_fn = expected_reward_float if float_mode else expected_reward
        values = reward_fn(dtmc, targets)
        return ProductOutcome(None, value=_initial_value(dtmc, values))
    if isinstance(prop, Prob):
        result = check_dtmc(dtmc, prop, float_mode)
        value = _initial_value(dtmc, result.values)
        if prop.interval is None:
            return ProductOutcome(None, value=value)
        decision = SAT if prop.interval.contains(value) else VIOLATED
        return ProductOutcome(None, value=value, decision=decision)
    # plain state formula: decide at the initial states
    result = check_dtmc(dtmc, prop, float_mode)
    holds = all(s in result.sat for s, w in dtmc.init.items() if w != 0)
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
