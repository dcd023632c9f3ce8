"""The dense family form every engine reads, and what the engines share on it.

:class:`DenseModel` reads an FDTMC's profiles on first use.  Sets of
products are bitsets: bit i of an int stands for product i, as in the
reachability closure of ``engines/elimination.py``.  The masks and value
groups come from each profile's ``(value, product bitset)`` groups, and so
do the per-product tuples of the enumerative engine's lanes
(:meth:`DenseModel.edge_lanes`), each distinct value read once.

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
multiply-add per (successor, value) group, with no rounding.  Both
kernels hand back their values as integer lanes over a denominator
(:class:`LaneValues`).

:class:`FamilyCheck`, which every engine subclasses, answers on top of
it: thresholds, the next and step-bounded until dispatch and per-product
outcomes.  It alone turns per-state values into per-product answers, and
it alone makes the sets an engine solves on.  An unbounded until is cut by
the prob0/prob1 partition (:func:`until_sets`): a pair of prob0 or prob1
has its value without a solve, and the partition makes the solution
unique on the rest.  A top-level query reads only the initial states, so
it solves only their cone of undecided states; their values depend only
on the states they reach, so they are those of a solve of every undecided
state.  An expected reward is solved on its cone (:func:`reward_cone`),
cut to the products whose value is finite, and the infinite ones are
marked.  An engine supplies values on those sets through one hook, and
the layer aggregates them at the initial distribution.  Every engine's
values are integer lanes (:class:`Values`: the kernels' packed lanes,
exact numerator and denominator tuples, or float64 read as exact ratios),
and every threshold is decided on those integers (:meth:`Interval.admits`):
a rational is made only for a value that is reported.

Both exact engines solve those sets as one system, :class:`SystemCheck`:
an unbounded until or an expected reward as one sink-shaped ``x = P·x + b``
for the whole family, solved by one state elimination.  The engines
differ only in the value domain of its entries: one lane per product in
the enumerative engine, per-feature support tables in the parametric one.
The bounded engine sweeps the same sets with its interval kernel.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from itertools import compress, repeat
from operator import add, mul, truediv
from typing import Callable, Sequence

from ..errors import FeatmcError, ModelError, UnsupportedPropertyError
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
from ..records import record
from ..result import SAT, UNKNOWN, VIOLATED, ProductOutcome
from .elimination import (
    SINK,
    closure,
    lane_product,
    lane_sum,
    solve_linear,
    until_partition,
)


class DenseModel:
    """FDTMC read as the engines need it, every part built on first use.

    ``groups`` lists each state's nonzero out-edges with their nonzero
    ``(value, product bitset)`` groups, read from the profiles, for the
    exact step kernel (which chunks products by ``denominator_classes``,
    read from the groups once per model) and the bounded engine's interval
    kernel (with the update order ``sweep_order``).  ``succ`` and ``pred``
    list each state's successors and predecessors with the bitset of
    products whose edge is nonzero, the union of its groups, for the
    reachability closure.  :meth:`edge_lanes` and :meth:`reward_lanes`
    spread the groups over every product, a tuple per read of a value.
    ``rewards`` lists each state's reward vector, the profile's own
    (``Profile.dense_values``), for the bounded engine.  Walking
    propositional formulas reads no profile, and no engine expands an edge
    to per-product vectors.
    """

    def __init__(self, model: FDTMC):
        self.model = model
        self.states = model.states
        self.products = model.diagram.valid_products()
        self.n = len(self.products)
        self.full = (1 << self.n) - 1  # bitset of every product
        self.init = model.init
        self.starts = [s for s, weight in model.init.items() if weight]  # positive weight
        self.labels = model.labels
        self.lane_cache: dict[tuple, dict] = {}  # reads -> edge_lanes(reads)

    @cached_property
    def rewards(self) -> dict[State, tuple]:
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

    @cached_property
    def denominator_classes(self) -> dict[int, list[int]]:
        """The products grouped by a common denominator D of their edge
        values, as D -> the products' indices, for the step kernel
        (:func:`step_chunks`); it depends on the model alone.

        Each product's own D is the lcm of the denominators of its edge
        values.  Products of equal D form a group, and a group whose D
        divides that of another is folded into the one of largest D among
        those that divide no other, so products with unrelated denominators
        never share one D (whose powers would grow with every prime of
        both)."""
        by_denominator: dict[int, int] = {}  # denominator -> product bitset
        for out in self.groups.values():
            for _, groups in out:
                for v, bits in groups:
                    d = int(v.denominator)
                    by_denominator[d] = by_denominator.get(d, 0) | bits
        # products of equal D so far share a class, split by each denominator
        classes = {1: self.full} if self.n else {}
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
        n = self.n
        return {d: [*compress(range(n), flag_bytes(bits, n))] for d, bits in hosts.items()}

    def indices(self, pairs: Sequence[tuple[int, int]], top: int) -> Sequence[int]:
        """Per product, the sum of the weights of the ``(weight, product
        bitset)`` pairs whose bitset holds it, each sum at most ``top``: one
        multiply-add per pair on packed lanes (:class:`PackedLanes`), bytes
        where ``top`` fits one."""
        n = self.n
        if top < 256:
            return sum(
                w * int.from_bytes(flag_bytes(bits, n), "little") for w, bits in pairs
            ).to_bytes(n, "little")
        lanes = PackedLanes(n, -(-top.bit_length() // 8) * 8)
        return lanes.unpack(sum(w * lanes.spread(bits) for w, bits in pairs))

    def lanes(self, groups: Sequence[tuple[object, int]], reads: tuple) -> list[tuple]:
        """Per function of ``reads``, the tuple of that function of every
        product's value in ``groups``, ``(value, product bitset)`` pairs with
        disjoint bitsets, and of 0 for a product outside them: each function
        reads each group's value once."""
        if len(groups) == 1 and groups[0][1] == self.full:  # one value for all
            return [(read(groups[0][0]),) * self.n for read in reads]
        index = self.indices([(k, bits) for k, (_, bits) in enumerate(groups, 1)], len(groups))
        out = []
        for read in reads:
            table = [read(ZERO), *(read(v) for v, _ in groups)]
            out.append(tuple(map(table.__getitem__, index)))
        return out

    def edge_lanes(self, reads: tuple) -> dict[State, list[list[tuple]]]:
        """Per state, the :meth:`lanes` of reads of each out-edge of
        :attr:`groups`: the lane solves' per-product edge values, built once
        per model and tuple of reads."""
        out = self.lane_cache.get(reads)
        if out is None:
            lanes = self.lanes
            out = self.lane_cache[reads] = {
                s: [lanes(g, reads) for _, g in edges] for s, edges in self.groups.items()
            }
        return out

    def reward_lanes(self, reads: tuple) -> dict[State, tuple[list[tuple], int]]:
        """Per state, the :meth:`lanes` of reads of its reward and the
        bitset of the products where it is nonzero."""
        reward = self.model.reward_profile
        return {
            s: (self.lanes(groups, reads), sum(bits for v, bits in groups if v))
            for s in self.states
            for groups in [reward(s).groups()]
        }

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


@record
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
    for s in dense.starts:
        sat &= entry.lo[s]
        possible &= entry.hi[s]
    return verdicts(flag_bytes(sat, dense.n), flag_bytes(possible, dense.n))


def verdicts(sat: bytes, possible: bytes) -> list[str]:
    """Per product, SAT where ``sat`` flags it, UNKNOWN where only
    ``possible`` does and VIOLATED elsewhere (flag bytes, 1 or 0 each)."""
    return [SAT if s else UNKNOWN if p else VIOLATED for s, p in zip(sat, possible)]


def until_sets(dense: DenseModel, sat1, sat2, at_init: bool = False) -> tuple[dict, dict, dict]:
    """The sets every engine solves ``sat1 U sat2`` on (state -> product
    bitset each), from its prob0/prob1 partition (:func:`until_partition`):
    ``unknown``, the undecided pairs, with ``at_init`` only those in the
    init cone (:meth:`DenseModel.init_cone`); ``kept``, every pair outside
    prob0; and ``to_sink``, prob1, whose value is 1."""
    full = dense.full
    zero, one = until_partition(dense.pred, sat1, sat2, full)
    unknown = {s: full & ~(zero[s] | one[s]) for s in dense.states}
    if at_init:
        unknown = dense.init_cone(unknown)
    return unknown, {s: full & ~bits for s, bits in zero.items()}, one


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
        if step == 1:
            return list(raw)
        return [int.from_bytes(raw[j : j + step], "little") for j in range(0, len(raw), step)]


#: Largest packed int of the step kernel, in bytes: a chunk of products
#: whose lanes would not fit is split into several.
STEP_CHUNK_BYTES = 1 << 16


def step_chunks(dense: DenseModel, steps: int) -> list[tuple[list[int], int]]:
    """The products of the step kernel grouped into chunks, as ``(members,
    D)`` pairs: each class of :attr:`DenseModel.denominator_classes`, split
    so that a chunk holds at most as many products as lanes of
    ``bitlen(D**steps) + 1`` bits fit into :data:`STEP_CHUNK_BYTES`."""
    chunks = []
    for d, members in dense.denominator_classes.items():
        size = max(1, STEP_CHUNK_BYTES * 8 // _lane_width(d, steps))
        chunks += [(members[j : j + size], d) for j in range(0, len(members), size)]
    return chunks


class Values(Mapping):
    """Per state, every product's value as integer lanes: :meth:`at` gives a
    state's numerators and denominators, :meth:`aggregate` those at a
    distribution, and :attr:`value` makes the value one reports from a
    numerator and a denominator.  Reading a state (``values[s]``) makes
    its values; the answer layer reads only the integers.  As such, the
    exact values of the enumerative and the parametric engine: per state a
    numerator and a denominator tuple, the exact lane domain of
    ``engines/elimination.py``."""

    value = staticmethod(rational)

    def __init__(self, n: int, lanes: dict):
        self.n = n
        self.lanes = lanes  # state -> its values, in the form of the class

    def at(self, s: State) -> tuple[Sequence[int], Sequence[int]]:
        return self.lanes[s]

    def aggregate(self, weights: dict[State, object]) -> tuple[Sequence[int], Sequence[int]]:
        """Per product, its value at the distribution ``weights`` (state ->
        weight) as a numerator and a denominator; states of weight 0 are
        not read."""
        terms = [(s, w) for s, w in weights.items() if w]
        if len(terms) == 1 and terms[0][1] == 1:
            return self.at(terms[0][0])
        n = self.n
        num, den = (0,) * n, (1,) * n
        for s, w in terms:
            weight = (int(w.numerator),) * n, (int(w.denominator),) * n
            num, den = lane_sum(num, den, *lane_product(*self.at(s), *weight))
        return num, den

    def __getitem__(self, s: State) -> list:
        return [*map(self.value, *self.at(s))]

    def __iter__(self):
        return iter(self.lanes)

    def __len__(self) -> int:
        return len(self.lanes)


class FloatValues(Values):
    """float64 values per state, one tuple each: the enumerative engine's
    float mode.  A float is the exact rational of ``float.as_integer_ratio``,
    and the value one reports is the float again (an int true division is
    correctly rounded, so it gives the float back).  A distribution weighs
    them in float64, as the per-chain reference does."""

    value = staticmethod(truediv)

    def at(self, s: State) -> tuple[Sequence[int], Sequence[int]]:
        return _ratios(self.lanes[s])

    def aggregate(self, weights: dict[State, object]) -> tuple[Sequence[int], Sequence[int]]:
        terms = [(s, float(w)) for s, w in weights.items() if w]
        if len(terms) == 1 and terms[0][1] == 1:
            return self.at(terms[0][0])
        out = [0.0] * self.n
        for s, w in terms:
            out = [*map(add, out, map(mul, repeat(w), self.lanes[s]))]
        return _ratios(out)


def _ratios(floats: Sequence[float]) -> tuple[Sequence[int], Sequence[int]]:
    """The numerators and denominators of ``floats``, exactly."""
    return tuple(zip(*map(float.as_integer_ratio, floats))) or ((), ())


class LaneValues(Values):
    """Per-product values held as packed integer lanes, the output of both
    kernels.  Per chunk, a tuple ``(members, denominator, lanes, x)``:
    product ``members[j]``'s value at state s is lane j of ``x[index[s]]``
    over ``denominator``, so a chunk's values share one denominator."""

    def __init__(self, n: int, index: dict[State, int], chunks: list[tuple]):
        super().__init__(n, index)  # state -> its position in each x
        self.chunks = chunks
        self.denominators = [0] * n
        for members, denominator, _, _ in chunks:
            for i in members:
                self.denominators[i] = denominator

    def at(self, s: State) -> tuple[list[int], list[int]]:
        k = self.lanes[s]
        if len(self.chunks) == 1:
            _, _, lanes, x = self.chunks[0]
            return lanes.unpack(x[k]), self.denominators
        out = [0] * self.n
        for members, _, lanes, x in self.chunks:
            for i, v in zip(members, lanes.unpack(x[k])):
                out[i] = v
        return out, self.denominators

    def aggregate(self, weights: dict[State, object]) -> tuple[list[int], list[int]]:
        """As :meth:`Values.aggregate`, over the denominators scaled by the
        lcm of the weights' denominators: a product's values at two states,
        and its bounds from two runs, keep one denominator."""
        terms = [(s, w) for s, w in weights.items() if w]
        if len(terms) == 1 and terms[0][1] == 1:
            return self.at(terms[0][0])
        scale = math.lcm(*(int(w.denominator) for _, w in terms))
        out = [0] * self.n
        for s, w in terms:
            factor = int(w * scale)
            for i, v in enumerate(self.at(s)[0]):
                out[i] += factor * v
        return out, [scale * d for d in self.denominators]


def _lane_width(d: int, steps: int) -> int:
    """Bits of a lane that holds every integer up to ``d**steps``, in whole
    bytes, with a spare top bit."""
    return -(-((d**steps).bit_length() + 1) // 8) * 8


def step_vectors(dense: DenseModel, start, live, target, steps: int) -> LaneValues:
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
    return LaneValues(n, index, chunks)


def next_vectors(dense: DenseModel, sat) -> LaneValues:
    """Exact values of ``X sat`` (state -> product bitset)."""
    everywhere = dict.fromkeys(dense.states, dense.full)
    return step_vectors(dense, sat, everywhere, dict.fromkeys(dense.states, 0), 1)


def bounded_until_vectors(dense: DenseModel, sat1, sat2, bound: int) -> LaneValues:
    """Exact values of ``sat1 U<=bound sat2`` (state -> product bitset)."""
    live = {s: sat1[s] & ~sat2[s] for s in dense.states}
    return step_vectors(dense, sat2, live, sat2, bound)


# ---------------------------------------------------------------------------
# The answer layer
# ---------------------------------------------------------------------------


class FamilyCheck:
    """One property on every product of a dense model.

    :meth:`sat_of` is the state-formula walk, memoised in ``entries``; it
    decides a threshold operator per state and product from the operator's
    value bounds (:meth:`nested`).  :meth:`outcomes` answers a top-level
    query, and it alone turns per-state values into per-product answers.
    It builds the sets of an unbounded until (:meth:`until_bounds`) and of
    an expected reward (:meth:`reward_bounds`), and an engine supplies
    values on them through one hook, ``solve(unknown, kept, to_sink,
    rewards=False, at_init=False)``, which returns ``(lo, hi)`` per state
    and product, the same object twice where the values are exact.  All
    three arguments map states to product bitsets.  A pair's value is
    solved where it is ``unknown``, 1 where it is in ``to_sink`` and 0
    elsewhere, and an edge counts only into a successor that is ``kept``
    for its product; with ``rewards`` each unknown state also earns its
    reward.  With ``at_init`` only the values at the initial states of
    positive weight are read.

    Values are integer lanes (:class:`Values`): exact numerator and
    denominator tuples, float64 read as their exact ratios, or the
    kernels' packed lanes (:class:`LaneValues`), the only form of bounds
    that differ.  Every threshold is decided on those integers.  An
    ``exact`` engine reports its values as they are.  Otherwise a value is
    the midpoint of its bounds with half their width as error bound
    (:meth:`answers`), and ``inf`` has error bound 0.
    """

    exact = True

    def __init__(self, dense: DenseModel):
        self.dense = dense
        self.entries: dict[StateFormula, SatEntry] = {}

    def sat_of(self, node: StateFormula) -> SatEntry:
        return satisfaction(self.dense, node, self.nested, self.entries)

    def step_bounds(self, path) -> tuple[LaneValues, LaneValues] | None:
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

    def until_bounds(self, path: Until, at_init: bool = False):
        """Per state, an unbounded until's value bounds: one solve on the
        :func:`until_sets` of the operands' definite sets, and one on those
        of their possible sets for ``hi`` unless the operands are decided.
        With ``at_init`` at the initial states of positive weight only."""
        dense = self.dense
        left, right = self.sat_of(path.left), self.sat_of(path.right)
        lo, hi = self.solve(*until_sets(dense, left.lo, right.lo, at_init), at_init=at_init)
        if not (left.decided() and right.decided()):
            _, hi = self.solve(*until_sets(dense, left.hi, right.hi, at_init), at_init=at_init)
        return lo, hi

    def reward_bounds(self, cone: dict, infinite: int):
        """The expected reward at the initial states of positive weight,
        solved on its :func:`reward_cone` ``cone`` cut to the products
        outside ``infinite``: every edge that leaves that cone enters a
        target, whose value is 0."""
        cone = {s: bits & ~infinite for s, bits in cone.items()}
        none = dict.fromkeys(self.dense.states, 0)
        return self.solve(cone, cone, none, rewards=True, at_init=True)

    def nested(self, node: Prob) -> SatEntry:
        """A threshold operator's entry: per state, the products whose value
        bounds decide it satisfied (definite) or not violated (possible),
        decided on their integers (:meth:`Interval.admits`)."""
        lo, hi = self.step_bounds(node.path) or self.until_bounds(node.path)
        admits = node.interval.admits
        entry = SatEntry({}, {})
        for s in self.dense.states:
            low, den = lo.at(s)
            sat, possible = admits(low, low if hi is lo else hi.at(s)[0], den)
            entry.lo[s] = bitset(sat)
            entry.hi[s] = bitset(possible)
        return entry

    def outcomes(self, prop: Property) -> list[ProductOutcome]:
        """Every product's outcome, in canonical product order: the values
        at the initial distribution (:meth:`answers`), and ``inf`` for a
        reward on the infinite products of its :func:`reward_cone`.  A plain
        state formula is decided at the initial states
        (:func:`init_decisions`)."""
        dense = self.dense
        products = dense.products
        interval = None
        infinite = 0
        if isinstance(prop, RewardQuery):
            if dense.model.rewards is None:
                raise ModelError("model has no rewards")
            target = self.sat_of(prop.target)
            if not target.decided():
                raise UnsupportedPropertyError(
                    "reward target could not be decided at this precision"
                )
            cone, infinite = reward_cone(dense, target.lo)
            lo, hi = self.reward_bounds(cone, infinite)
        elif isinstance(prop, Prob):
            interval = prop.interval
            lo, hi = self.step_bounds(prop.path) or self.until_bounds(prop.path, at_init=True)
        else:
            decisions = init_decisions(dense, self.sat_of(prop))
            return [ProductOutcome(p, decision=d) for p, d in zip(products, decisions)]
        out = []
        for p, (value, decision, error), diverges in zip(
            products, self.answers(lo, hi, interval), flag_bytes(infinite, dense.n)
        ):
            if diverges:
                value, error = INFINITY, None if self.exact else ZERO
            out.append(ProductOutcome(p, value=value, decision=decision, error_bound=error))
        return out

    def answers(self, lo: Values, hi: Values, interval) -> list[tuple]:
        """Per product, ``(value, decision, error bound)`` at the initial
        distribution from integer bounds ``l <= h`` over a denominator D
        (:meth:`Values.aggregate`): the value ``l / D`` where ``l == h``,
        with error bound 0 or, for an exact engine, None, and otherwise
        ``(l + h) / 2D`` with error bound ``(h - l) / 2D``.  The decision is
        taken on the integers (:meth:`Interval.admits`); only the values
        reported become rationals (floats in float mode)."""
        low, den = lo.aggregate(self.dense.init)
        high = low if hi is lo else hi.aggregate(self.dense.init)[0]
        if interval is None:
            decisions = [None] * len(low)
        else:
            decisions = verdicts(*interval.admits(low, high, den))
        value = lo.value
        exact = None if self.exact else ZERO
        if high is low:
            return [*zip(map(value, low, den), decisions, repeat(exact))]
        return [
            (value(a, d), decision, exact)
            if a == b
            else (rational(a + b, 2 * d), decision, rational(b - a, 2 * d))
            for a, b, d, decision in zip(low, high, den, decisions)
        ]


#: Tag of a top-level query's entry unknowns: ``(ENTRY, s)`` for each
#: initial state s of positive weight, whose one edge, of value 1, leads to
#: s, so that its value is the value at s on every product.
ENTRY = "__entry__"


class SystemCheck(FamilyCheck):
    """The system of both exact engines: an unbounded until or an expected
    reward as one sink-shaped ``x = P·x + b`` for the whole family, made
    from the sets of :class:`FamilyCheck` and solved by one
    :func:`solve_linear` call (:meth:`solve`).

    An engine supplies only the value domain: ``edge_values`` (per state,
    a value per edge of :attr:`DenseModel.succ`) and ``reward_values`` (per
    state, its reward's value and the products where it is nonzero);
    ``masked(value, bits)``, a value as an entry that is 0 outside the
    products of ``bits``; the solve's ``unit`` and loop ``closure``; and
    ``read(value, inside, ones)``, per product the solved ``value`` on
    ``inside``, 1 on ``ones`` and 0 elsewhere, as a state's entry of
    ``values_type``.
    """

    values_type = Values

    def solve(
        self, unknown: dict, kept: dict, to_sink: dict, rewards: bool = False, at_init: bool = False
    ) -> tuple[Values, Values]:
        """The hook of :class:`FamilyCheck`: exact values, the same object
        twice.  Each edge of a row is cut to the products that have the
        row's state in ``unknown``, the edge and its successor in ``kept``,
        and goes to the sink for those that have the successor in
        ``to_sink`` and to the successor for the others, each part masked
        to its products; with ``rewards`` each row earns its state's reward
        on the sink.  With ``at_init`` the
        unknowns end in one entry unknown per initial state (:data:`ENTRY`),
        whose edge of value 1 into it is cut the same way, and only the
        entries are back-substituted.  Edge values are read only when some
        state is unknown.
        """
        dense = self.dense
        masked = self.masked
        one = masked(self.unit, dense.full)
        states = [s for s, bits in unknown.items() if bits]
        solution: dict = {}
        entries = None

        def split(row: list, t, value, bits: int) -> list:
            sink = bits & to_sink[t]
            if bits != sink:
                row.append((t, masked(value, bits & ~sink)))
            if sink:
                row.append((SINK, masked(value, sink)))
            return row

        if states:
            rows = []
            edge_values = self.edge_values
            reward_values = self.reward_values if rewards else {}
            for s in states:
                row, own = [], unknown[s]
                for (t, mask), value in zip(dense.succ[s], edge_values[s]):
                    split(row, t, value, own & mask & kept[t])
                if s in reward_values:
                    value, earning = reward_values[s]
                    if bits := own & earning:
                        row.append((SINK, masked(value, bits)))
                rows.append(row)
            if at_init:
                entries = [(ENTRY, s) for s in dense.starts]
                states += entries
                rows += [split([], s, self.unit, kept[s]) for s in dense.starts]
            try:
                solution = solve_linear(states, rows, self.closure, one, wanted=entries)
            except FeatmcError as exc:
                product = dense.products[getattr(exc, "lane", None) or 0]
                exc.args = (f"product {product}: {exc}",)
                raise
        read = self.read
        if entries:
            lanes = {s: read(solution[ENTRY, s], dense.full, 0) for _, s in entries}
        else:
            zero = type(one)()
            lanes = {
                s: read(solution.get(s, zero), unknown[s], to_sink[s])
                for s in (dense.starts if at_init else dense.states)
            }
        values = self.values_type(dense.n, lanes)
        return values, values
