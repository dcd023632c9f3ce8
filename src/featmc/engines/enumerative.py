"""Enumerative engine: every product's exact Markov-chain solve, made as
one solve over the union structure of the family.

The paper's enumerative route checks each product's projected chain on
its own, one exploration per product.  This engine computes the same
per-product values family-based instead, in the "all-in-one" way of Thüm
et al. (ACM CSUR 2014): one system for the whole family, one lane per
product.  The per-chain functions below (:func:`check_product` and the
rest) are the paper's route, and the tests' reference.

The family check works on the dense model form (``engines/dense.py``),
whose shared qualitative layer does what does not depend on a product's
probabilities once, on per-state product bitsets (bit i stands for
product i): satisfaction sets of state formulas, the init cone of an
unbounded until (the unknowns reachable from the positive-weight initial
states, after its prob0/prob1 partition) and the reward cone.  Product
i's system ``x = P·x + b`` holds the rows of its own unknowns (edges into
prob0 dropped, edges into prob1 onto the sink).  The family's system holds
every state that some product leaves unknown, and each entry of it is a
lane per product, masked to the products whose rows hold it, so lane i is
product i's system and zeros elsewhere.  One state elimination, the one
the parametric engine also runs, solves it exactly.  Exact lanes
(:class:`RationalLanes`, the exact lane domain in ``engines/elimination.py``
that the parametric engine's support tables share) are a tuple of integer
numerators and one of denominators, kept in lowest terms by maps over whole
lanes, so no rational object is made inside the solve; float lanes
(:class:`Lanes`) are a tuple of float64 values.  Every lane is built from
the profiles' value groups, each distinct value read once per model, and
only when some state is unknown, so a query its partition decides for
every state and product reads no edge value.  Expected rewards solve
``x = P·x + r`` the same way; a product that misses the target with
positive probability solves nothing, and the shared layer reports it
infinite.  Thresholds, next and step-bounded until (on the shared exact
step kernel, which builds no edge vector) and the outcomes come from the
answer layer all engines share (``FamilyCheck`` in ``engines/dense.py``).
The solved values go to it as integers: each state's numerator and
denominator tuples over every product, or in float mode its float64
values, which it reads as the exact integer ratios they are, so a
threshold on a float is decided exactly on that float.

A top-level unbounded until or reward reads only the initial states of
positive weight: its system holds only the union of the products' init
cones, only they are back-substituted, and the shared layer aggregates
their values at the initial distribution and decides a threshold there.
A nested operator solves every undecided state, and the shared layer
thresholds the values into a product bitset per state.  Float mode runs
the same elimination on float64 rows: one direct solve with no stopping
criterion, whose only error is rounding.  It raises where rounding makes
a self-loop 1, and a singular lane names its product from the lane's
position.

Only the per-chain functions read a value at the initial distribution per
product (:func:`_initial_value`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from operator import add, attrgetter, mul, sub, truediv

from ..errors import FeatmcError, ModelError, UnsupportedPropertyError
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
from ..result import SAT, VIOLATED, FamilyResult, ProductOutcome
from .dense import DenseModel, FamilyCheck, FloatValues, Values
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


class _FamilyCheck(FamilyCheck):
    """One property on every product of a dense model, solved once for the
    whole family over its union structure, one lane per product.

    Satisfaction sets, the prob0/prob1 partition and the cones are
    per-state product bitsets from the shared qualitative layer, which
    :meth:`solve_all` takes as they are.  Its one elimination runs on
    :class:`RationalLanes` (numerator and denominator tuples) or, in float
    mode, on :class:`Lanes` (float64 tuples), built from the value groups,
    each distinct value read once per model (:meth:`DenseModel.edge_lanes`)
    and masked to the products whose row holds it (:meth:`masked`).  So
    lane i holds the very rows :func:`check_product` solves on product i's
    projected chain, and zeros elsewhere.  Next and step-bounded until run
    on the exact step kernel of the shared layer, and stay exact in float
    mode too.
    """

    def __init__(self, dense: DenseModel, float_mode: bool):
        super().__init__(dense)
        self.float_mode = float_mode
        self.reads, self.masks, self.kind, closure = _FLOAT if float_mode else _EXACT
        self.flags: dict[int, bytes] = {}  # product bitset -> its flag bytes
        self.one = [(read(ONE),) * dense.n for read in self.reads]
        self.domain = (closure, self.masked(self.one, dense.full))

    def masked(self, lanes: list, bits: int):
        """``lanes``, a tuple per read, as a value of the solve's domain
        whose lanes outside the product bitset ``bits`` are 0."""
        if bits != self.dense.full:
            flags = self.flags.get(bits)
            if flags is None:
                flags = self.flags[bits] = flag_bytes(bits, self.dense.n)
            lanes = [tuple(map(mask, lane, flags)) for mask, lane in zip(self.masks, lanes)]
        return self.kind(*lanes)

    def solve_all(
        self, unknown: dict, kept: dict, to_sink: dict, decided: dict, rewards=False, wanted=None
    ) -> Values:
        """Every product's values at the states of ``decided``: solved where
        the state is ``unknown`` for the product, and elsewhere 1 where it is
        in ``decided`` and 0 where it is not.  All four map states to product
        bitsets.  A product's row keeps each edge into a state that has it in
        ``kept`` and sends the edge to the sink where that state has it in
        ``to_sink`` too.  With ``rewards`` each row ends in its state's
        reward on the sink; with ``wanted`` only those states are solved.

        One :func:`solve_linear` solves every product.  Its unknowns are the
        states that some product leaves unknown.  Each edge is cut to the
        products whose row holds it and becomes an entry to its successor
        for some of them and one to the sink for the others, each masked to
        its products.  Where a state is not unknown for a product, its lane
        of the state's row is all zero: the lane's closure is 1, its value
        0, and no mass of that product reaches it.  So lane i is product
        i's own solve, a singular lane names product i (any other error the
        first product), and adding the ``decided`` flags to the solved
        lanes reads them only where the state is unknown.  Edge values are
        read only when some state is.
        """
        dense = self.dense
        states = [s for s, bits in unknown.items() if bits]
        solution: dict = {}
        if states:
            masked, edge_lanes = self.masked, dense.edge_lanes(self.reads)
            reward_lanes = dense.reward_lanes(self.reads) if rewards else {}
            rows = []
            for s in states:
                row, own = [], unknown[s]
                for (t, mask), lanes in zip(dense.succ[s], edge_lanes[s]):
                    bits = own & mask & kept[t]
                    sink = bits & to_sink[t]
                    if bits != sink:
                        row.append((t, masked(lanes, bits & ~sink)))
                    if sink:
                        row.append((SINK, masked(lanes, sink)))
                if s in reward_lanes:
                    lanes, earning = reward_lanes[s]
                    if bits := own & earning:
                        row.append((SINK, masked(lanes, bits)))
                rows.append(row)
            try:
                solution = solve_linear(states, rows, *self.domain, wanted=wanted)
            except FeatmcError as exc:
                product = dense.products[getattr(exc, "lane", None) or 0]
                exc.args = (f"product {product}: {exc}",)
                raise
        zero = self.kind()
        columns = {
            s: solution.get(s, zero) + self.masked(self.one, bits) for s, bits in decided.items()
        }
        if self.float_mode:
            return FloatValues(dense.n, columns)
        return Values(dense.n, {s: (v.num, v.den) for s, v in columns.items()})

    def until_bounds(self, path: Until, at_init: bool = False):
        """Exact values of an unbounded until at every state, every
        undecided state solved; with ``at_init`` at the positive-weight
        initial states only, solved on the init cone.  Edges into prob0 are
        dropped and edges into prob1 go to the sink."""
        dense = self.dense
        zero, one = until_partition(
            dense.pred, self.sat(path.left), self.sat(path.right), dense.full
        )
        unknown = {s: dense.full & ~(zero[s] | one[s]) for s in dense.states}
        kept = {s: dense.full & ~bits for s, bits in zero.items()}
        decided, wanted = one, None
        if at_init:
            unknown, wanted = dense.init_cone(unknown), dense.starts
            decided = {s: one[s] for s in wanted}
        values = self.solve_all(unknown, kept, one, decided, wanted=wanted)
        return values, values

    def reward_bounds(self, target: dict, cone: dict, infinite: int):
        """The expected reward until ``target`` at the positive-weight
        initial states, solved on the states of ``cone`` for the finite
        products; 0 on the ``infinite`` ones."""
        dense = self.dense
        cone = {s: bits & ~infinite for s, bits in cone.items()}
        none = dict.fromkeys(dense.states, 0)
        values = self.solve_all(cone, cone, none, {s: 0 for s in dense.starts}, True, dense.starts)
        return values, values


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
