"""Enumerative engine: every product's exact Markov-chain solve, made as
one solve over the union structure of the family.

The paper's enumerative route checks each product's projected chain on
its own, one exploration per product.  The per-chain functions below
(:func:`check_product` and the rest) are that route, and the tests'
reference.  The family check computes the same per-product values in the
"all-in-one" way of Thüm et al. (ACM CSUR 2014): the system both exact
engines share (``SystemCheck`` in ``engines/dense.py``), each entry a lane
per product masked to the products whose rows hold it, so lane i is
product i's own system and zeros elsewhere.  Exact lanes
(:class:`RationalLanes`, the exact lane domain of
``engines/elimination.py``) are a tuple of integer numerators and one of
denominators in lowest terms, so no rational object is made inside the
solve.  Float lanes (:class:`Lanes`) are a tuple of float64 values: the
same elimination, one direct solve with no stopping criterion, whose only
error is rounding; it raises where rounding makes a self-loop 1, and a
singular lane names its product from the lane's position.  Every lane is
built from the profiles' value groups, each distinct value read once per
model, and only when some state is unknown.  The solved values go to the
shared answer layer as integers: numerator and denominator tuples, or
float64 values read as the exact integer ratios they are, so a threshold
on a float is decided exactly on that float.

The per-chain route reads the wanted states through entry unknowns, as
the family solve does, so where a product's structure is the family's,
its lane and its own float solve round alike.  Only the per-chain
functions read a value at the initial distribution per product
(:func:`_initial_value`).
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import repeat
from operator import add, attrgetter, mul, sub, truediv

from ..errors import ModelError, UnsupportedPropertyError
from ..features import flag_bytes
from ..models import DTMC, FDTMC
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
    bind_check,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO
from ..records import record
from ..result import SAT, VIOLATED, FamilyResult, ProductOutcome
from .dense import ENTRY, DenseModel, FloatValues, SystemCheck
from .elimination import (
    SINK,
    RationalLanes,
    _rational_closure,
    closure as reachable,
    solve_linear,
    until_partition,
)

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


_FLOAT_SINGULAR = (
    "float64 rounding made the linear system singular (a self-loop rounded to 1); use exact mode"
)


def _float_closure(loop: float) -> float:
    """1 / (1 - loop) in float64.  The exact loop is below 1, but rounding
    can push it to 1, where no float answer is meaningful."""
    if loop >= 1.0:
        raise ModelError(_FLOAT_SINGULAR)
    return 1.0 / (1.0 - loop)


class Lanes(tuple):
    """One float64 value per product, as a value domain of
    :func:`solve_linear`: ``+`` and ``*`` act lane by lane, and the empty
    tuple is 0 (a state with no outgoing mass)."""

    __slots__ = ()

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        return Lanes(map(add, self, other))

    def __mul__(self, other):
        return Lanes(map(mul, self, other))


def _lanes_closure(loop: Lanes) -> Lanes:
    """:func:`_float_closure` lane by lane; the error of a loop that rounded
    to 1 records the first such lane."""
    if max(loop) >= 1.0:
        raise ModelError(_FLOAT_SINGULAR, next(k for k, v in enumerate(loop) if v >= 1.0))
    return Lanes(map(truediv, repeat(1.0), map(sub, repeat(1.0), loop)))


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
    ``wanted`` states, the fixed values are theirs, the unknowns are those
    reachable from them, and where there are any, each wanted state has an
    entry unknown, whose one edge, of value 1, leads to it, as in the
    family solve (:class:`SystemCheck`)."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    if wanted is not None:
        unknown = _cone(dtmc, unknown, wanted)
    rows = [
        [(SINK if t in one else t, p) for t, p in dtmc.out_edges(s) if t not in zero]
        for s in unknown
    ]
    if wanted is not None and unknown:
        unknown += [(ENTRY, s) for s in wanted]
        rows += [[] if s in zero else [(SINK if s in one else s, ONE)] for s in wanted]
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
    if wanted is not None and finite:
        finite += [(ENTRY, s) for s in wanted]
        rows += [[(s, ONE)] if s in inside else [] for s in wanted]
    states = dtmc.states if wanted is None else wanted
    return {s: ZERO if s in one else INFINITY for s in states}, finite, rows


def _solve(
    values: dict, unknowns: list, rows: list, wanted=None, float_mode: bool = False
) -> dict:
    """``values`` with the solved values of ``unknowns``; with ``wanted``,
    of the wanted unknown states only, read from their entry unknowns, the
    only ones back-substituted."""
    domain = ()
    if float_mode:
        values = {s: float(v) for s, v in values.items()}
        rows = [[(t, float(p)) for t, p in row] for row in rows]
        domain = (_float_closure, 1.0)
    if unknowns:
        entries = None if wanted is None else [(ENTRY, s) for s in wanted]
        solution = solve_linear(unknowns, rows, *domain, wanted=entries)
        if entries:
            inside = set(unknowns)
            solution = {s: solution[ENTRY, s] for s in wanted if s in inside}
        values.update(solution)
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


@record
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


# ---------------------------------------------------------------------------
# Family checking on the dense form
# ---------------------------------------------------------------------------


#: Per lane domain of the union solve: what it reads of each distinct edge
#: and reward value (:meth:`DenseModel.lanes`), how a product's 0/1 flag
#: keeps or masks each read (``num * flag`` over ``den ** flag``, so a
#: masked lane reads 0/1, in lowest terms), the lanes and their closure.
_EXACT = (
    (attrgetter("numerator"), attrgetter("denominator")),
    (mul, pow),
    RationalLanes,
    _rational_closure,
)
_FLOAT = ((float,), (mul,), Lanes, _lanes_closure)


class _FamilyCheck(SystemCheck):
    """One property on every product of a dense model: the shared system
    (:class:`SystemCheck`) over the union structure of the family, one lane
    per product.

    Lanes are :class:`RationalLanes` (numerator and denominator tuples) or,
    in float mode, :class:`Lanes` (float64 tuples), built from the value
    groups, each distinct value read once per model
    (:meth:`DenseModel.edge_lanes`), and masked to the products whose row
    holds them (:meth:`masked`).  So lane i holds the very rows
    :func:`check_product` solves on product i's projected chain and zeros
    elsewhere, where its closure is 1 and its value 0, and a singular lane
    names its product.  Next and step-bounded until run on the exact step
    kernel of the shared layer, and stay exact in float mode too.
    """

    def __init__(self, dense: DenseModel, float_mode: bool):
        super().__init__(dense)
        self.float_mode = float_mode
        self.reads, self.masks, self.kind, self.closure = _FLOAT if float_mode else _EXACT
        if float_mode:
            self.values_type = FloatValues
        self.flags: dict[int, bytes] = {}  # product bitset -> its flag bytes
        self.unit = [(read(ONE),) * dense.n for read in self.reads]

    @cached_property
    def edge_values(self) -> dict:
        return self.dense.edge_lanes(self.reads)

    @cached_property
    def reward_values(self) -> dict:
        return self.dense.reward_lanes(self.reads)

    def masked(self, lanes: list, bits: int):
        """``lanes``, a tuple per read, as a value of the solve's domain
        whose lanes outside the product bitset ``bits`` are 0."""
        if bits != self.dense.full:
            flags = self.flags.get(bits)
            if flags is None:
                flags = self.flags[bits] = flag_bytes(bits, self.dense.n)
            lanes = [tuple(map(mask, lane, flags)) for mask, lane in zip(self.masks, lanes)]
        return self.kind(*lanes)

    def read(self, value, inside: int, ones: int):
        """The solved lanes, which are 0 outside ``inside``, plus 1 on the
        products of ``ones``."""
        value += self.masked(self.unit, ones)
        return value if self.float_mode else (value.num, value.den)


def check_family_enumerative(
    model: FDTMC,
    prop: Property | str,
    float_mode: bool = False,
) -> FamilyResult:
    """Check every valid product's chain: one exact solve over the union
    structure of the family, one lane per product (:class:`_FamilyCheck`).

    The work that does not depend on a product's probabilities runs once
    on the dense form, and every outcome equals that of
    :func:`check_product` on the projected chain, the paper's per-product
    route.  ``float_mode`` runs unbounded until and reward computations as
    the same state elimination in float64: no stopping criterion, only
    rounding error, and a :class:`ModelError` where rounding makes a
    self-loop 1.  An error raised for one product keeps its type and
    fields; its message is prefixed with the product.
    """
    prop = bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    for outcome in _FamilyCheck(DenseModel(model), float_mode).outcomes(prop):
        result.outcomes[outcome.product] = outcome
    result.elapsed = time.perf_counter() - started
    return result
