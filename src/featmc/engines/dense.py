"""The dense family form every engine reads, and what the engines share on it.

:class:`DenseModel` reads an FDTMC's profiles on first use.  Sets of
products are bitsets: bit i of an int stands for product i, as in the
reachability closure of ``engines/elimination.py``.  The masks and value
groups come from each profile's ``(value, product bitset)`` groups; only
the edge vectors, which the enumerative engine's unbounded solves read,
take a profile's value per product.

The qualitative layer runs once for the family (Classen et al., ICSE 2010):
satisfaction sets of state formulas (:func:`satisfaction`), the init cone
(:meth:`DenseModel.init_cone`), the cone and the infinite products of an
expected reward (:func:`reward_cone`) and the verdicts of a plain state
formula (:func:`init_decisions`).

Next and step-bounded until have one exact kernel (:func:`step_vectors`)
on the value groups.  Products are split into chunks that share a
denominator D, so that after j steps every value is an integer over
``D**j``, and a state's integers for every product of a chunk are one
Python int with one fixed-width lane per product (:class:`PackedLanes`,
the layout of the bounded engine's interval kernel).  A step is one
multiply-add per (successor, value) group, with no rounding; values
become rationals only where they are read (:class:`StepValues`), at the
initial distribution (:func:`aggregate_init`) or per state for a nested
threshold.

:class:`FamilyCheck`, which every engine subclasses, answers on top of
it: thresholds, the next and step-bounded until dispatch and per-product
outcomes, from the values of an unbounded until and of an expected reward
that the engine supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Sequence

from ..errors import ModelError, UnsupportedPropertyError
from ..features import bitset, flag_bytes
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
from ..rational import INFINITY, ZERO, rational
from ..result import SAT, UNKNOWN, VIOLATED, ProductOutcome
from .elimination import closure, until_partition


def nonzero_bits(row: Sequence) -> int:
    """Bitset of the products whose entry in ``row`` is nonzero."""
    return bitset(bytes(map(bool, row)))


class DenseModel:
    """FDTMC read as the engines need it, every part built on first use.

    ``groups`` lists each state's nonzero out-edges with their nonzero
    ``(value, product bitset)`` groups, read from the profiles, for the
    exact step kernel and the bounded engine's interval kernel (with the
    update order ``sweep_order``).  ``succ`` and ``pred`` list each state's successors
    and predecessors with the bitset of products whose edge is nonzero, the
    union of its groups, for the reachability closure.  ``edges`` lists
    each state's out-edges with their per-product vectors and ``rewards``
    each state's reward vector: the only per-product reads.  Walking
    propositional formulas reads no profile; next, step-bounded until and
    an unbounded parametric query build no edge vector.
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
    node: StateFormula,
    nested: Callable[[Prob], SatEntry],
    entries: dict[StateFormula, SatEntry],
) -> SatEntry:
    """The :class:`SatEntry` of a state formula, built bottom-up over its
    parse tree and memoised in ``entries``.

    ``true``, atoms, ``!`` and ``&`` are bit operations on every product at
    once (``!`` swaps the definite and the possible set).  A threshold
    operator's entry is ``nested(node)`` (:meth:`FamilyCheck.nested`).
    """
    entry = entries.get(node)
    if entry is not None:
        return entry
    full = dense.full
    states = dense.states
    if isinstance(node, PTrue):
        bits = dict.fromkeys(states, full)
        entry = SatEntry(bits, bits)
    elif isinstance(node, Atom):
        bits = {s: full if node.name in dense.labels[s] else 0 for s in states}
        entry = SatEntry(bits, bits)
    elif isinstance(node, PNot):
        inner = satisfaction(dense, node.operand, nested, entries)
        entry = SatEntry(
            {s: full & ~inner.hi[s] for s in states},
            {s: full & ~inner.lo[s] for s in states},
        )
    elif isinstance(node, PAnd):
        left = satisfaction(dense, node.left, nested, entries)
        right = satisfaction(dense, node.right, nested, entries)
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
# Packed lanes and the exact step kernel
# ---------------------------------------------------------------------------


class PackedLanes:
    """``n`` unsigned lanes of ``width`` bits (a multiple of 8) packed into
    one int, lane i at bits ``[i*width, (i+1)*width)``: SWAR, "SIMD within a
    register" (Warren, *Hacker's Delight*, ch. 2).  A packed sum or
    difference is lane-wise as long as no lane leaves ``[0, 2**width)``;
    the comparisons keep their operands below the top bit of a lane."""

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        self.stride = width // 8
        self.ones = self.spread((1 << n) - 1)  # 1 in every lane
        self.high = self.ones << (width - 1)  # the top bit of every lane

    def spread(self, bits: int) -> int:
        """1 in lane i wherever bit i of the bitset is set."""
        return self.spread_flags(flag_bytes(bits, self.n))

    def spread_flags(self, flags: bytes) -> int:
        """1 in lane i wherever byte i of ``flags`` (0 or 1 each) is 1."""
        buf = bytearray(self.n * self.stride)
        buf[:: self.stride] = flags
        return int.from_bytes(buf, "little")

    def widen(self, x: int) -> int:
        """Every lane that holds 1 in ``x`` all ones, the rest 0."""
        return x * ((1 << self.width) - 1)

    def fill(self, tops: int) -> int:
        """Every lane whose top bit is set in ``tops`` all ones, the rest 0."""
        return (tops - (tops >> (self.width - 1))) | tops

    def at_least(self, x: int, threshold: int) -> int:
        """Top bits of the lanes of ``x`` that are at least those of
        ``threshold``; both must be below ``2**(width-1)`` lane-wise."""
        return ((x | self.high) - threshold) & self.high

    def nonzero(self, x: int) -> int:
        """Top bits of the lanes of ``x`` that are not 0."""
        low = self.high - self.ones
        return (((x & low) + low) | x) & self.high

    def pack(self, values) -> int:
        """Lane i holds ``values[i]``; each must fit its lane."""
        return int.from_bytes(
            b"".join(v.to_bytes(self.stride, "little") for v in values), "little"
        )

    def unpack(self, x: int) -> list[int]:
        """The lanes of ``x`` as ints, lane 0 first."""
        raw = x.to_bytes(self.n * self.stride, "little")
        step = self.stride
        return [int.from_bytes(raw[j : j + step], "little") for j in range(0, len(raw), step)]


#: Largest packed int of the step kernel, in bytes: a chunk of products
#: whose lanes would not fit is split into several.
STEP_CHUNK_BYTES = 1 << 16


def step_chunks(dense: DenseModel, steps: int) -> list[tuple[list[int], int]]:
    """The products of the step kernel grouped into chunks, as ``(members,
    D)`` pairs: ``D`` is a common denominator of every edge value of the
    members.

    Each product's own D is the lcm of the denominators of its edge values.
    Products of equal D form a group, and a group whose D divides that of
    another is folded into the one of largest D among those that divide
    no other, so products with unrelated denominators never share one D
    (whose powers would grow with every prime of both).  A chunk holds at
    most as many products as lanes of ``bitlen(D**steps) + 1`` bits fit
    into :data:`STEP_CHUNK_BYTES`."""
    by_denominator: dict[int, int] = {}  # denominator -> product bitset
    for out in dense.groups.values():
        for _, groups in out:
            for v, bits in groups:
                d = int(v.denominator)
                by_denominator[d] = by_denominator.get(d, 0) | bits
    # products of equal D so far share a class, split by each denominator
    classes = {1: dense.full} if dense.n else {}
    for d, bits in by_denominator.items():
        split: dict[int, int] = {}
        for own, members in classes.items():
            for key, part in ((math.lcm(own, d), members & bits), (own, members & ~bits)):
                if part:
                    split[key] = split.get(key, 0) | part
        classes = split
    hosts: dict[int, int] = {}
    for d in sorted(classes, reverse=True):
        host = next((h for h in hosts if h % d == 0), d)
        hosts[host] = hosts.get(host, 0) | classes[d]
    chunks = []
    for d, bits in hosts.items():
        members = [*compress(range(dense.n), flag_bytes(bits, dense.n))]
        size = max(1, STEP_CHUNK_BYTES * 8 // _lane_width(d, steps))
        chunks += [(members[j : j + size], d) for j in range(0, len(members), size)]
    return chunks


class StepValues:
    """The exact values of a :func:`step_vectors` run.  Per chunk, a tuple
    ``(members, denominator, lanes, x)``: every value of product
    ``members[j]`` at state s is lane j of ``x[index[s]]`` over
    ``denominator``.  Reading a state (``values[s]``) makes its rationals."""

    def __init__(self, dense: DenseModel, chunks: list[tuple]):
        self.n = dense.n
        self.index = dense.index
        self.chunks = chunks
        self.denominators = [0] * self.n
        for members, denominator, _, _ in chunks:
            for i in members:
                self.denominators[i] = denominator

    def numerators(self, s: State) -> list[int]:
        """Per product, the numerator of its value at ``s``."""
        k = self.index[s]
        if len(self.chunks) == 1:
            _, _, lanes, x = self.chunks[0]
            return lanes.unpack(x[k])
        out = [0] * self.n
        for members, _, lanes, x in self.chunks:
            for i, v in zip(members, lanes.unpack(x[k])):
                out[i] = v
        return out

    def __getitem__(self, s: State) -> list:
        return [*map(rational, self.numerators(s), self.denominators)]


def _lane_width(d: int, steps: int) -> int:
    """Bits of a lane that holds every integer up to ``d**steps``, in whole
    bytes, with a spare top bit."""
    return -(-((d**steps).bit_length() + 1) // 8) * 8


def step_vectors(dense: DenseModel, start, live, target, steps: int) -> StepValues:
    """Exact values after ``steps`` Jacobi steps of ``x'(s) = 1`` on
    ``target`` and ``x'(s) = sum_t P(s,t) x(t)`` on ``live``, 0 elsewhere,
    from the indicator of ``start``; all three map states to product
    bitsets.  ``sat1 U<=k sat2`` starts at and targets sat2 and lives on
    ``sat1 & ~sat2``; ``X sat`` is one step from sat, living everywhere with
    no target.

    Every product of a chunk (:func:`step_chunks`) shares a denominator D,
    so after j steps every value is ``N / D**j`` with N an integer, and a
    state's N for every product of the chunk is one int, one lane per
    product (:class:`PackedLanes`).  A step is one multiply-add per
    (successor, value) group of a state's edges, ``(v*D) * (x(t) & M)``
    with M the lanes of the group's products where the state lives, plus
    ``D**j`` on the target lanes.  Every term is non-negative and each
    row's mass is at most 1, so a lane stays at most ``D**steps``, which
    fits its ``bitlen(D**steps) + 1`` bits: no lane carries."""
    index = dense.index
    states = dense.states
    n = dense.n
    chunks = []
    for members, d in step_chunks(dense, steps):
        lanes = PackedLanes(len(members), _lane_width(d, steps))
        inside = dense.full if len(members) == n else sum(1 << i for i in members)
        spreads = {0: 0}  # product bitset -> 1 in the lanes of its products
        masks: dict[int, int] = {}  # product bitset -> its lanes all ones

        def spread(bits):
            out = spreads.get(bits)
            if out is None:
                flags = flag_bytes(bits, n)
                if len(members) < n:
                    flags = bytes(map(flags.__getitem__, members))
                out = spreads[bits] = lanes.spread_flags(flags)
            return out

        table = []  # per state: target lanes, [(successor, v*D, mask or None)]
        for s in states:
            entries = []
            at = live[s] & inside
            for t, groups in dense.groups[s]:
                for v, bits in groups:
                    bits &= at
                    if not bits:
                        continue
                    mask = masks.get(bits)
                    if mask is None and bits != inside:
                        mask = masks[bits] = lanes.widen(spread(bits))
                    scaled = int(v.numerator) * (d // int(v.denominator))  # v*D
                    entries.append((index[t], scaled, mask))
            table.append((spread(target[s] & inside), entries))
        x = [spread(start[s] & inside) for s in states]
        scale = 1
        for _ in range(steps):
            scale *= d
            new = []
            for ones, entries in table:
                acc = scale * ones
                for t, c, mask in entries:
                    acc += c * (x[t] if mask is None else x[t] & mask)
                new.append(acc)
            x = new
        chunks.append((members, scale, lanes, x))
    return StepValues(dense, chunks)


def next_vectors(dense: DenseModel, sat) -> StepValues:
    """Exact values of ``X sat`` (state -> product bitset)."""
    everywhere = dict.fromkeys(dense.states, dense.full)
    return step_vectors(dense, sat, everywhere, dict.fromkeys(dense.states, 0), 1)


def bounded_until_vectors(dense: DenseModel, sat1, sat2, bound: int) -> StepValues:
    """Exact values of ``sat1 U<=bound sat2`` (state -> product bitset)."""
    live = {s: sat1[s] & ~sat2[s] for s in dense.states}
    return step_vectors(dense, sat2, live, sat2, bound)


def aggregate_init(dense: DenseModel, vectors) -> list:
    """Per product, the value of ``vectors`` (state -> per-product values)
    at the initial distribution; only the initial states of positive weight
    are read."""
    terms = [(weight, vectors[s]) for s, weight in dense.init.items() if weight]
    if len(terms) == 1 and terms[0][0] == 1:
        return [*terms[0][1]]
    out = [ZERO] * dense.n
    for weight, row in terms:
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

    def step_bounds(self, path) -> tuple[StepValues, StepValues] | None:
        """Per state and product, the exact values of a next or step-bounded
        until on the operands' definite and on their possible sets; where
        the operands are decided, one set of values stands for both.  None
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
            low = lo[s]
            decisions = [*map(decide, low, low if hi is lo else hi[s])]
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
            elif a is b or a == INFINITY:  # exact step values and divergence
                value, error = a, ZERO
            else:
                value, error = (a + b) / 2, (b - a) / 2
            out.append(ProductOutcome(p, value=value, decision=decision, error_bound=error))
        return out
