"""Enumerative engine: project every product, check each chain on its own.

One exploration per product.  Each projected DTMC is checked with standard
algorithms: graph precomputation of the certain-zero and certain-one state
sets followed by an exact rational linear solve for unbounded until, plain
iteration for bounded until, a single matrix-vector product for next.
Expected rewards use the same precomputation and diverge to infinity on
products that miss the target with positive probability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConvergenceError, FeatmcError, ModelError, UnsupportedPropertyError
from ..models import DTMC, FDTMC, project
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
from .bounded import DEFAULT_MAX_DEPTH

ENGINE_NAME = "enumerative"


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _pivot_weight(value) -> int:
    """Smaller is better: prefer pivots with short numerator/denominator."""
    num, den = value.numerator, value.denominator
    return num.bit_length() + den.bit_length()


def solve_linear(matrix: list[list], rhs: list) -> list:
    """Gaussian elimination over exact rationals with pivot selection.

    Raises ModelError on a singular system; for properly precomputed until
    systems this cannot happen and acts as a guard assertion.
    """
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        candidates = [r for r in range(col, n) if aug[r][col] != 0]
        if not candidates:
            raise ModelError("singular linear system in until/reward computation")
        pivot_row = min(candidates, key=lambda r: _pivot_weight(aug[r][col]))
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        if pivot != 1:
            aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# Graph precomputation
# ---------------------------------------------------------------------------


def _predecessors(dtmc: DTMC) -> dict:
    pred: dict = {s: [] for s in dtmc.states}
    for (s, t), p in dtmc.transitions.items():
        if p != 0:
            pred[t].append(s)
    return pred


def _backward_closure(seeds: set, allowed: set, pred: Mapping) -> set:
    """Seeds plus everything that reaches them through allowed states."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        t = frontier.pop()
        for s in pred[t]:
            if s not in reached and s in allowed:
                reached.add(s)
                frontier.append(s)
    return reached


def until_state_partition(dtmc: DTMC, sat1: set, sat2: set):
    """Split states into certain-zero, certain-one and genuinely unknown.

    Certain-zero: no path to a target through constraint states.
    Certain-one: cannot reach a certain-zero state while staying in
    constraint-but-not-target states, hence absorbed into targets almost
    surely.
    """
    pred = _predecessors(dtmc)
    maybe = sat1 - sat2
    can_reach = _backward_closure(sat2, maybe, pred)
    zero = set(dtmc.states) - can_reach
    tainted = _backward_closure(zero, maybe, pred)
    one = set(dtmc.states) - tainted
    unknown = [s for s in dtmc.states if s not in zero and s not in one]
    return zero, one, unknown


def until_values(dtmc: DTMC, sat1: set, sat2: set) -> dict:
    """Exact per-state probabilities of ``sat1 U sat2``."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    values = {s: ONE if s in one else ZERO for s in dtmc.states}
    if unknown:
        index = {s: i for i, s in enumerate(unknown)}
        n = len(unknown)
        matrix = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rhs = [ZERO] * n
        for s in unknown:
            i = index[s]
            for t, p in dtmc.out_edges(s):
                if t in index:
                    matrix[i][index[t]] -= p
                elif t in one:
                    rhs[i] += p
        solution = solve_linear(matrix, rhs)
        for s, i in index.items():
            values[s] = solution[i]
    return values


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


#: Residual threshold for the float64 value-iteration mode.
FLOAT_CONVERGENCE = 1e-9


def _not_converged(residual: float) -> ConvergenceError:
    return ConvergenceError(
        f"float value iteration did not converge in {DEFAULT_MAX_DEPTH} sweeps "
        f"(last residual {residual:.3g})",
        residual=residual,
    )


def until_values_float(dtmc: DTMC, sat1: set, sat2: set) -> dict:
    """Float64 value iteration; the certain-zero/one precomputation keeps
    the fixpoint unique so plain iteration converges.  Sweeps are capped at
    the bounded engine's default depth."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    values = {s: (1.0 if s in one else 0.0) for s in dtmc.states}
    edges = {s: [(t, float(p)) for t, p in dtmc.out_edges(s)] for s in unknown}
    for _ in range(DEFAULT_MAX_DEPTH):
        delta = 0.0
        for s in unknown:
            new = sum(p * values[t] for t, p in edges[s])
            delta = max(delta, abs(new - values[s]))
            values[s] = new
        if delta < FLOAT_CONVERGENCE:
            return values
    raise _not_converged(delta)


def expected_reward_float(dtmc: DTMC, targets: set) -> dict:
    zero, one, unknown = until_state_partition(dtmc, set(dtmc.states), targets)
    finite = [s for s in dtmc.states if s in one and s not in targets]
    values = {s: 0.0 for s in dtmc.states}
    for s in dtmc.states:
        if s not in one and s not in targets:
            values[s] = INFINITY
    edges = {s: [(t, float(p)) for t, p in dtmc.out_edges(s)] for s in finite}
    rewards = {s: float(dtmc.rewards.get(s, ZERO)) for s in finite}
    for _ in range(DEFAULT_MAX_DEPTH):
        delta = 0.0
        for s in finite:
            new = rewards[s] + sum(
                p * values[t] for t, p in edges[s] if values[t] != INFINITY
            )
            delta = max(delta, abs(new - values[s]))
            values[s] = new
        if delta < FLOAT_CONVERGENCE:
            return values
    raise _not_converged(delta)


def expected_reward(dtmc: DTMC, targets: set) -> dict:
    """Expected accumulated state reward until the first target visit.

    The reward of the current state is earned at every step taken from it;
    target states earn nothing and stop accumulation.  States that miss the
    target with positive probability get infinity.
    """
    if dtmc.rewards is None:
        raise ModelError("model has no rewards")
    zero, one, unknown = until_state_partition(dtmc, set(dtmc.states), targets)
    finite = [s for s in dtmc.states if s in one and s not in targets]
    values: dict = {}
    for s in dtmc.states:
        if s in targets:
            values[s] = ZERO
        elif s not in one:
            values[s] = INFINITY
    if finite:
        index = {s: i for i, s in enumerate(finite)}
        n = len(finite)
        matrix = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rhs = [dtmc.rewards.get(s, ZERO) for s in finite]
        for s in finite:
            i = index[s]
            for t, p in dtmc.out_edges(s):
                if t in index:
                    matrix[i][index[t]] -= p
        solution = solve_linear(matrix, rhs)
        for s, i in index.items():
            values[s] = solution[i]
    return values


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
            values = path_values(dtmc, node.path, sat, float_mode)
            result = {s for s in dtmc.states if node.interval.contains(values[s])}
        else:
            raise UnsupportedPropertyError(f"unknown state formula {node!r}")
        memo[node] = result
        return result

    top_values = None
    if isinstance(formula, Prob):
        top_values = path_values(dtmc, formula.path, sat, float_mode)
        if formula.interval is None:
            return DtmcCheckResult(set(), top_values)
    return DtmcCheckResult(sat(formula), top_values)


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

    ``float_mode`` switches unbounded until and reward computations to
    float64 value iteration (residual below 1e-9) for large instances.
    An error raised for one product keeps its type and fields; its message
    is prefixed with the product.
    """
    from ..properties import bind_check, parse_property

    if isinstance(prop, str):
        prop = parse_property(prop)
    bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    for product in model.diagram.valid_products():
        try:
            outcome = check_product(project(model, product), prop, float_mode)
        except FeatmcError as exc:
            exc.args = (f"product {product}: {exc}",)
            raise
        outcome.product = product
        result.outcomes[product] = outcome
    result.elapsed = time.perf_counter() - started
    return result
