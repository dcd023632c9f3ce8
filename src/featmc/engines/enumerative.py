"""Enumerative engine: one exact Markov-chain solve per product.

The family check works on the dense model form (``engines/dense.py``),
whose shared qualitative layer does what does not depend on a product's
probabilities once, on per-state product bitsets (bit i stands for
product i): satisfaction sets of state formulas, the init cone of an
unbounded until (the unknowns reachable from the positive-weight initial
states, after its prob0/prob1 partition) and the reward cone.  The solve
takes those bitsets as the other engines do.  Each product's system
``x = P·x + b`` holds the rows of its own unknowns (edges into prob0
dropped, edges into prob1 onto the sink) and is solved exactly by the
state elimination the parametric engine also runs; edge values are read
only for the classes that solve, so a query its partition decides for
every state and product reads none.  Products whose systems have the same
structure (the same unknowns, kept edges, sink edges and nonzero rewards)
form a class, and a class shares one elimination over lanes, one value per
product: the graph bookkeeping runs once per class, while each lane sees
the operations its own solve would make, in the same order.  Exact lanes
(:class:`RationalLanes`, the exact lane domain in ``engines/elimination.py``
that the parametric engine's support tables share) are a tuple of integer
numerators and one of denominators, kept in lowest terms by maps over whole
lanes, so no rational object is made inside the solve; float lanes
(:class:`Lanes`) are a tuple of float64 values.  A class of one solves on
plain values.  Every lane is built from the profiles' value groups, each
distinct value read once per model.  Expected rewards solve ``x = P·x + r``
the same way; a product that misses the target with positive probability
solves nothing, and the shared layer reports it infinite.  Thresholds,
next and step-bounded until (on the shared exact step kernel, which builds
no edge vector) and the outcomes come from the answer layer all engines
share (``FamilyCheck`` in ``engines/dense.py``).  The solved values go to
it as integers: each state's numerator and denominator tuples over every
product, or in float mode its float64 values, which it reads as the exact
integer ratios they are, so a threshold on a float is decided exactly on
that float.

A top-level unbounded until or reward reads only the initial states of
positive weight: its system holds only the init cone, only they are
back-substituted, and the shared layer aggregates their values at the
initial distribution and decides a threshold there.  A nested operator
solves every undecided state, and the shared layer thresholds the values
into a product bitset per state.  Float mode runs the same elimination on
float64 rows: one direct solve with no stopping criterion, whose only
error is rounding.  It raises where rounding makes a self-loop 1, and a
singular lane names its product from the lane's position.

The per-chain functions (:func:`check_dtmc`, :func:`check_product`,
:func:`until_values` and the rest) check one projected DTMC the same way
and are the reference the family check is tested against: for every
product both make the same solve on the same rows.  Only they read a value
at the initial distribution per product (:func:`_initial_value`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, attrgetter, itemgetter, mul, sub, truediv

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
    """One float64 value per product of a structure class, as a value
    domain of :func:`solve_linear`: ``+`` and ``*`` act lane by lane, and
    the empty tuple is 0 (a state with no outgoing mass)."""

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


#: What a lane solve reads of each distinct edge and reward value
#: (:meth:`DenseModel.lanes`): its numerator and denominator, or in float
#: mode its float64.
_EXACT_READS = (attrgetter("numerator"), attrgetter("denominator"))
_FLOAT_READS = (float,)


class _FamilyCheck(FamilyCheck):
    """One property on every product of a dense model.

    Satisfaction sets, the prob0/prob1 partition and the cones are
    per-state product bitsets from the shared qualitative layer, which
    :meth:`solve_all` takes as they are and splits into structure classes.
    A class's rows are built once with a lane value per edge and solved by
    one elimination (:meth:`solve_class`): a :class:`RationalLanes` of the
    edge's numerator and denominator tuples, or a :class:`Lanes` of its
    float64 tuple in float mode, from the value groups, each distinct value
    read once per model (:meth:`DenseModel.edge_lanes`); a class of one
    reads the profiles' own per-product values (the float64 tuples in float
    mode).  Unknowns and rows come in the order the per-chain functions
    above give them, so every lane is the solve :func:`check_product` makes
    on the projected chain.  Next and step-bounded until run on the exact
    step kernel of the shared layer, and stay exact in float mode too.
    """

    def __init__(self, dense: DenseModel, float_mode: bool):
        super().__init__(dense)
        self.float_mode = float_mode
        self.reads, self.domain = _EXACT_READS, ()
        if float_mode:
            self.reads, self.domain = _FLOAT_READS, (_float_closure, 1.0)

    @cached_property
    def edge_values(self) -> dict:
        """Per state, the per-product values of each out-edge of
        :attr:`DenseModel.groups`, on which a class of one solves."""
        if self.float_mode:
            lanes = self.dense.edge_lanes(self.reads)
            return {s: [floats for floats, in out] for s, out in lanes.items()}
        return {s: [vec for _, vec in edges if any(vec)] for s, edges in self.dense.edges.items()}

    @cached_property
    def reward_lanes(self) -> dict:
        """Per state, the lanes of its reward (:meth:`DenseModel.reward_lanes`)."""
        return self.dense.reward_lanes(self.reads)

    @cached_property
    def reward_values(self) -> dict:
        """Per state, the per-product values of its reward."""
        if self.float_mode:
            return {s: lanes[0] for s, lanes in self.reward_lanes.items()}
        return self.dense.rewards

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

        Products whose systems have one structure (the same unknowns, the
        same edges kept and sent to the sink, the same nonzero rewards) form
        a class, keyed by their entries in the flag bytes of those sets;
        each class runs one :func:`solve_linear` (:meth:`solve_class`).  The
        flags are made only for states that some product leaves unknown, and
        edge values are read only for the classes that solve.
        """
        n = self.dense.n
        if self.float_mode:
            columns = {s: ([*map(float, flag_bytes(bits, n))],) for s, bits in decided.items()}
        else:
            columns = {s: (list(flag_bytes(bits, n)), [1] * n) for s, bits in decided.items()}
        states = [s for s, bits in unknown.items() if bits]
        succ = self.dense.succ
        sinks = {t: flag_bytes(bits, n) for t, bits in to_sink.items()}
        edges = {
            s: [(t, None, flag_bytes(mask & kept[t], n), sinks[t]) for t, mask in succ[s]]
            for s in states
        }
        arrays = [flag_bytes(unknown[s], n) for s in states]
        for s in states:
            for _, _, kept_flags, sink_flags in edges[s]:
                arrays += (kept_flags, sink_flags)
        if rewards:
            arrays += [bytes(map(bool, self.reward_values[s])) for s in states]
        # product i's entries, read with stride n from the joined flags
        flags = b"".join(arrays)
        classes: dict[bytes, list] = {}
        for i in range(n):
            classes.setdefault(flags[i::n], []).append(i)
        solving = [
            (members, unknowns)
            for key, members in classes.items()
            if (unknowns := [s for s, flag in zip(states, key) if flag])
        ]
        if any(len(members) == 1 for members, _ in solving):
            values = self.edge_values  # a class of one indexes them in its rows
            for s, out in edges.items():
                out[:] = [(t, vec, keep, sink) for (t, _, keep, sink), vec in zip(out, values[s])]
        for members, unknowns in solving:
            solution = self.solve_class(members, unknowns, edges, rewards, wanted)
            for s, lanes in solution.items():
                if len(members) == n:
                    columns[s] = lanes
                    continue
                for column, lane in zip(columns[s], lanes):
                    for i, v in zip(members, lane):
                        column[i] = v
        if self.float_mode:
            return FloatValues(n, {s: floats for s, (floats,) in columns.items()})
        return Values(n, columns)

    def solve_class(self, members: list, unknowns: list, edges: dict, rewards, wanted) -> dict:
        """Per state solved, the values of ``members``, products whose
        systems share one structure, as lanes in the product order of
        ``members``: its numerators and denominators (its float64 values in
        float mode).  ``edges`` holds each unknown's out-edges with the
        per-product values a class of one reads and the flag bytes of the
        products that keep them and of those that send them to the sink.  An
        error names its product: a singular lane records its position on the
        :class:`ModelError`, and any other error names the first member.

        A class of one solves on plain values, not on lanes of width one:
        on service n=7, where every product is a class of its own, one-lane
        lanes made a check slower (about 14 against 18 ms exact on
        :class:`RationalLanes`, 7 against 10 ms on float :class:`Lanes`;
        fractions backend, 2-core machine), so the two paths stay apart."""
        i = members[0]
        if len(members) == 1:
            # indexed in place: when every product has a structure of its
            # own, a call per edge would cost more than the index
            rows = [
                [(SINK if sink[i] else t, vec[i]) for t, vec, kept, sink in edges[s] if kept[i]]
                for s in unknowns
            ]
            pick, domain = itemgetter(i), self.domain
        else:
            m = len(members)
            get = itemgetter(*members)
            if self.float_mode:

                def pick(lanes):
                    return Lanes(get(lanes[0]))

                domain = (_lanes_closure, Lanes((1.0,) * m))
            else:
                if m == self.dense.n:
                    get = tuple  # every product: the tuples themselves

                def pick(lanes):
                    return RationalLanes(get(lanes[0]), get(lanes[1]))

                ones = (1,) * m
                domain = (_rational_closure, RationalLanes(ones, ones))
            lanes = self.dense.edge_lanes(self.reads)
            rows = [
                [
                    (SINK if sink[i] else t, pick(v))
                    for (t, _, kept, sink), v in zip(edges[s], lanes[s])
                    if kept[i]
                ]
                for s in unknowns
            ]
        if rewards:
            plain = self.reward_values
            reward = plain if len(members) == 1 else self.reward_lanes
            for s, row in zip(unknowns, rows):
                if plain[s][i]:
                    row.append((SINK, pick(reward[s])))
        try:
            values = solve_linear(unknowns, rows, *domain, wanted=wanted)
        except FeatmcError as exc:
            product = self.dense.products[members[getattr(exc, "lane", None) or 0]]
            exc.args = (f"product {product}: {exc}",)
            raise
        if len(members) == 1:
            if self.float_mode:
                return {s: ((v,),) for s, v in values.items()}
            return {s: ((v.numerator,), (v.denominator,)) for s, v in values.items()}
        m = len(members)
        if self.float_mode:
            zero = ((0.0,) * m,)
            return {s: (v,) if v else zero for s, v in values.items()}
        zero = ((0,) * m, (1,) * m)
        return {s: (v.num, v.den) if v.num else zero for s, v in values.items()}

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
    """Check every valid product's chain, each with its own exact solve.

    The work that does not depend on a product's probabilities runs once
    on the dense form (:class:`_FamilyCheck`), and products whose systems
    share a structure share one elimination, one lane each; every outcome
    equals that of :func:`check_product` on the projected chain.  ``float_mode`` runs
    unbounded until and reward computations as the same state elimination
    in float64: no stopping criterion, only rounding error, and a
    :class:`ModelError` where rounding makes a self-loop 1.  An error
    raised for one product keeps its type and fields; its message is
    prefixed with the product.
    """
    prop = bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    for outcome in _FamilyCheck(DenseModel(model), float_mode).outcomes(prop):
        result.outcomes[outcome.product] = outcome
    result.elapsed = time.perf_counter() - started
    return result
