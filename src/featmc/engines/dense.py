"""The dense family form every engine reads, and what the engines share on it.

:class:`DenseModel` reads an FDTMC's profiles on first use.  Sets of
products are bitsets: bit i of an int stands for product i, as in the
reachability closure of ``engines/elimination.py``.  The masks and value
groups come from each profile's ``(value, product bitset)`` groups; only
the edge vectors, which the enumerative lanes and the exact vectors below
read, take a profile's value per product.

The qualitative layer runs once for the family (Classen et al., ICSE 2010):
satisfaction sets of state formulas (:func:`satisfaction`), the init cone
(:meth:`DenseModel.init_cone`), the cone and the infinite products of an
expected reward (:func:`reward_cone`) and the verdicts of a plain state
formula (:func:`init_decisions`).  Next and step-bounded until have exact
per-product vectors (:func:`next_vectors`, :func:`bounded_until_vectors`),
aggregated at the initial distribution by :func:`aggregate_init`.

:class:`FamilyCheck`, which every engine subclasses, answers on top of
it: thresholds, the next and step-bounded until dispatch and per-product
outcomes, from the values of an unbounded until and of an expected reward
that the engine supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from ..errors import ModelError, UnsupportedPropertyError
from ..features import bitset
from ..models import FDTMC, State
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
)
from ..rational import INFINITY, ONE, ZERO
from ..result import SAT, UNKNOWN, VIOLATED, ProductOutcome
from .elimination import closure, until_partition


def nonzero_bits(row: Sequence) -> int:
    """Bitset of the products whose entry in ``row`` is nonzero."""
    return bitset(bytes(map(bool, row)))


class DenseModel:
    """FDTMC read as the engines need it, every part built on first use.

    ``groups`` lists each state's nonzero out-edges with their nonzero
    ``(value, product bitset)`` groups, read from the profiles, for the
    bounded engine's interval kernel (with the update order
    ``sweep_order``).  ``succ`` and ``pred`` list each state's successors
    and predecessors with the bitset of products whose edge is nonzero, the
    union of its groups, for the reachability closure.  ``edges`` lists
    each state's out-edges with their per-product vectors and ``rewards``
    each state's reward vector: the only per-product reads.  Walking
    propositional formulas reads no profile, and an unbounded parametric
    query builds no vector.
    """

    def __init__(self, model: FDTMC):
        self.model = model
        self.states = model.states
        self.products = model.diagram.valid_products()
        self.n = len(self.products)
        self.full = (1 << self.n) - 1  # bitset of every product
        self.init = model.init
        self.labels = model.labels

    @cached_property
    def edges(self) -> dict[State, list[tuple[State, tuple]]]:
        out_edges = self.model.out_edges
        return {s: [(t, p.dense_values()) for t, p in out_edges(s)] for s in self.states}

    @cached_property
    def rewards(self) -> dict[State, tuple]:
        if self.model.rewards is None:
            raise ModelError("model has no rewards")
        return {s: self.model.reward_profile(s).dense_values() for s in self.states}

    @cached_property
    def groups(self) -> dict[State, list[tuple[State, list[tuple[object, int]]]]]:
        out_edges = self.model.out_edges
        return {
            s: [(t, g) for t, p in out_edges(s) if (g := [(v, b) for v, b in p.groups() if v])]
            for s in self.states
        }

    @cached_property
    def succ(self) -> dict[State, list[tuple[State, int]]]:
        return {
            s: [(t, sum(bits for _, bits in groups)) for t, groups in out]
            for s, out in self.groups.items()
        }

    @cached_property
    def pred(self) -> dict[State, list[tuple[State, int]]]:
        pred: dict = {s: [] for s in self.states}
        for s, out in self.succ.items():
            for t, mask in out:
                pred[t].append((s, mask))
        return pred

    def init_cone(self, allowed: dict[State, int]) -> dict[State, int]:
        """Per state, the products for which it is reached from an initial
        state of positive weight through states where it is ``allowed``
        (state -> product bitset), the initial state included."""
        seeds = {s: allowed[s] if self.init.get(s, 0) > 0 else 0 for s in self.states}
        return closure(seeds, self.succ, allowed)

    @cached_property
    def index(self) -> dict[State, int]:
        return {s: k for k, s in enumerate(self.states)}

    @cached_property
    def sweep_order(self) -> list[State]:
        """Every state, successors before predecessors: DFS post-order over
        the edge graph with cycles broken at back edges, so one sweep pushes
        values across whole chains instead of one step."""
        order = []
        visited = set()
        for root in self.states:
            if root in visited:
                continue
            visited.add(root)
            stack = [(root, iter([t for t, _ in self.succ[root]]))]
            while stack:
                node, children = stack[-1]
                for child in children:
                    if child not in visited:
                        visited.add(child)
                        stack.append((child, iter([t for t, _ in self.succ[child]])))
                        break
                else:
                    order.append(node)
                    stack.pop()
        return order


# ---------------------------------------------------------------------------
# Qualitative layer: product bitsets
# ---------------------------------------------------------------------------


@dataclass
class SatEntry:
    """Per state, the bitsets of products that definitely (``lo``) and
    possibly (``hi``) satisfy a state formula; ``lo`` is a subset of ``hi``,
    and equal to it where the values behind the formula are exact."""

    lo: dict[State, int]
    hi: dict[State, int]

    def decided(self) -> bool:
        return self.lo == self.hi


def satisfaction(
    dense: DenseModel,
    formula: StateFormula,
    nested: Callable[[Prob], SatEntry],
    entries: dict[StateFormula, SatEntry],
) -> SatEntry:
    """The :class:`SatEntry` of a state formula, built bottom-up over its
    parse tree and memoised in ``entries``.

    ``true``, atoms, ``!`` and ``&`` are bit operations on every product at
    once (``!`` swaps the definite and the possible set).  A threshold
    operator's entry is ``nested(node)`` (:meth:`FamilyCheck.nested`).
    """
    full = dense.full
    states = dense.states

    def sat_of(node: StateFormula) -> SatEntry:
        entry = entries.get(node)
        if entry is not None:
            return entry
        if isinstance(node, PTrue):
            bits = dict.fromkeys(states, full)
            entry = SatEntry(bits, bits)
        elif isinstance(node, Atom):
            bits = {s: full if node.name in dense.labels[s] else 0 for s in states}
            entry = SatEntry(bits, bits)
        elif isinstance(node, PNot):
            inner = sat_of(node.operand)
            entry = SatEntry(
                {s: full & ~inner.hi[s] for s in states},
                {s: full & ~inner.lo[s] for s in states},
            )
        elif isinstance(node, PAnd):
            left, right = sat_of(node.left), sat_of(node.right)
            entry = SatEntry(
                {s: left.lo[s] & right.lo[s] for s in states},
                {s: left.hi[s] & right.hi[s] for s in states},
            )
        elif isinstance(node, Prob):
            if node.interval is None:
                raise UnsupportedPropertyError(
                    "quantitative operator is only allowed at the top level"
                )
            entry = nested(node)
        else:
            raise UnsupportedPropertyError(f"unknown state formula {node!r}")
        entries[node] = entry
        return entry

    return sat_of(formula)


def init_decisions(dense: DenseModel, entry: SatEntry) -> list[str]:
    """Per product, the verdict of a plain state formula, which must hold at
    every initial state of positive weight: SAT where it definitely does,
    VIOLATED where it definitely fails at one, UNKNOWN otherwise."""
    sat = possible = dense.full
    for s, weight in dense.init.items():
        if weight > 0:
            sat &= entry.lo[s]
            possible &= entry.hi[s]
    return [
        SAT if sat >> i & 1 else UNKNOWN if possible >> i & 1 else VIOLATED
        for i in range(dense.n)
    ]


def reward_cone(dense: DenseModel, targets: dict[State, int]) -> tuple[dict, int]:
    """Where an expected reward until ``targets`` (state -> product bitset)
    accumulates, and where it is infinite.

    ``cone`` maps each state to the products for which it is reached from
    an initial state of positive weight before the target.  ``infinite`` is
    the bitset of the products for which a state of the cone lies outside
    prob1 of ``true U target``, so the target is missed with positive
    probability; for every other product the cone lies inside prob1.
    """
    full = dense.full
    _, one = until_partition(dense.pred, dict.fromkeys(dense.states, full), targets, full)
    cone = dense.init_cone({s: full & ~bits for s, bits in targets.items()})
    infinite = 0
    for s, bits in cone.items():
        infinite |= bits & ~one[s]
    return cone, infinite


# ---------------------------------------------------------------------------
# Exact per-product vectors
# ---------------------------------------------------------------------------


def next_vectors(dense: DenseModel, sat) -> dict[State, list]:
    """Per state and product, the probability of stepping into ``sat``
    (state -> product bitset)."""
    out = {}
    for s in dense.states:
        acc = [ZERO] * dense.n
        for t, vec in dense.edges[s]:
            bits = sat[t]
            for i in range(dense.n):
                if bits >> i & 1 and vec[i]:
                    acc[i] += vec[i]
        out[s] = acc
    return out


def _until_step(dense: DenseModel, sat1, sat2, x):
    """One Jacobi application of the until recurrence at every state.
    ``sat1`` and ``sat2`` map states to product bitsets."""
    out = {}
    for s in dense.states:
        sat2_bits = sat2[s]
        sat1_bits = sat1[s]
        acc = [ZERO] * dense.n
        for t, vec in dense.edges[s]:
            xt = x[t]
            for i in range(dense.n):
                if vec[i] and xt[i]:
                    acc[i] += vec[i] * xt[i]
        out[s] = [
            ONE if sat2_bits >> i & 1 else acc[i] if sat1_bits >> i & 1 else ZERO
            for i in range(dense.n)
        ]
    return out


def bounded_until_vectors(
    dense: DenseModel, sat1, sat2, bound: int
) -> dict[State, list]:
    """Exact step-bounded until values: ``bound`` Jacobi steps from the
    target indicator (the iterates never decrease)."""
    x = {s: [ONE if sat2[s] >> i & 1 else ZERO for i in range(dense.n)] for s in dense.states}
    for _ in range(bound):
        x = _until_step(dense, sat1, sat2, x)
    return x


def aggregate_init(dense: DenseModel, vectors) -> list:
    """Per product, the value of ``vectors`` (state -> per-product values)
    at the initial distribution."""
    out = [ZERO] * dense.n
    for s, weight in dense.init.items():
        row = vectors[s]
        for i in range(dense.n):
            out[i] += weight * row[i]
    return out


# ---------------------------------------------------------------------------
# The answer layer
# ---------------------------------------------------------------------------


class FamilyCheck:
    """One property on every product of a dense model.

    :meth:`sat_of` is the state-formula walk, memoised in ``entries``; it
    decides a threshold operator per state and product from the operator's
    value bounds (:meth:`nested`).  :meth:`outcomes` answers a top-level
    query.  An engine supplies values through three hooks, each returning
    ``(lo, hi)``, the same object twice where the values are exact:

    * ``until_bounds(path)``: per state and product;
    * ``until_at_init(path)``: per product, at the initial distribution;
    * ``reward_at_init(target)``: the expected reward until ``target`` per
      product, at the initial distribution (``inf`` where it diverges).

    An ``exact`` engine reports its values as they are.  Otherwise a value
    is the midpoint of its bounds with half their width as error bound,
    and ``inf`` has error bound 0.
    """

    exact = True

    def __init__(self, dense: DenseModel):
        self.dense = dense
        self.entries: dict[StateFormula, SatEntry] = {}

    def sat_of(self, node: StateFormula) -> SatEntry:
        return satisfaction(self.dense, node, self.nested, self.entries)

    def sat(self, node: StateFormula) -> dict[State, int]:
        """Per state, the products that definitely satisfy ``node``: every
        one that does where the engine's values are exact."""
        return self.sat_of(node).lo

    def step_bounds(self, path) -> tuple[dict, dict] | None:
        """Per state and product, the exact values of a next or step-bounded
        until on the operands' definite and on their possible sets; where
        the operands are decided, one set of vectors stands for both.  None
        for an unbounded until."""
        dense = self.dense
        if isinstance(path, Next):
            operand = self.sat_of(path.operand)
            lo = next_vectors(dense, operand.lo)
            return lo, lo if operand.decided() else next_vectors(dense, operand.hi)
        if not isinstance(path, Until):
            raise UnsupportedPropertyError(f"unknown path formula {path!r}")
        if path.bound is None:
            return None
        left, right = self.sat_of(path.left), self.sat_of(path.right)
        lo = bounded_until_vectors(dense, left.lo, right.lo, path.bound)
        if left.decided() and right.decided():
            return lo, lo
        return lo, bounded_until_vectors(dense, left.hi, right.hi, path.bound)

    def nested(self, node: Prob) -> SatEntry:
        """A threshold operator's entry: per state, the products whose value
        bounds decide it satisfied (definite) or not violated (possible)."""
        lo, hi = self.step_bounds(node.path) or self.until_bounds(node.path)
        decide = node.interval.decide
        entry = SatEntry({}, {})
        for s in self.dense.states:
            decisions = [*map(decide, lo[s], hi[s])]
            entry.lo[s] = nonzero_bits([d == SAT for d in decisions])
            entry.hi[s] = nonzero_bits([d != VIOLATED for d in decisions])
        return entry

    def outcomes(self, prop: Property) -> list[ProductOutcome]:
        """Every product's outcome, in canonical product order.  A plain
        state formula is decided at the initial states (:func:`init_decisions`)."""
        dense = self.dense
        products = dense.products
        interval = None
        if isinstance(prop, RewardQuery):
            lo, hi = self.reward_at_init(prop.target)
        elif isinstance(prop, Prob):
            interval = prop.interval
            step = self.step_bounds(prop.path)
            if step is None:
                lo, hi = self.until_at_init(prop.path)
            else:
                lo = aggregate_init(dense, step[0])
                hi = lo if step[1] is step[0] else aggregate_init(dense, step[1])
        else:
            decisions = init_decisions(dense, self.sat_of(prop))
            return [ProductOutcome(p, decision=d) for p, d in zip(products, decisions)]
        out = []
        for p, a, b in zip(products, lo, hi):
            decision = None if interval is None else interval.decide(a, b)
            if self.exact:
                value, error = a, None
            elif a == INFINITY:
                value, error = a, ZERO
            else:
                value, error = (a + b) / 2, (b - a) / 2
            out.append(ProductOutcome(p, value=value, decision=decision, error_bound=error))
        return out
