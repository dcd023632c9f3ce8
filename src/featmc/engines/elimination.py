"""Kernels the engines share.

Sparse state elimination over any value domain (Daws, ICTAC 2004; Hahn,
Hermanns & Zhang, STTT 2011) and :func:`solve_linear` on it, the one exact
solver of ``x = P·x + b``: exact rationals in the per-chain reference,
exact or float64 lanes, one per product, over the union structure of the
family in the enumerative engine, per-product support tables for the
whole family in the parametric engine.  Edge values
need only ``+``, ``*`` and truthiness.  The working graph is a pair of
adjacency dicts (successor rows with edge values, predecessor sets), and
nodes go least degree first, picked from a lazy min-degree heap.

Per-product reachability closure, the one qualitative precomputation of the
enumerative and the bounded engine (Baier & Katoen, *Principles of Model
Checking*, Alg. 45/46, run over feature-set-labelled edges as in Classen et
al., ICSE 2010).  Sets of products are bitsets: bit i of an int stands for
product i, so a single chain is the one-product case with masks 0 and 1.

The one exact lane domain of both exact engines: a tuple of integer
numerators and one of positive denominators, every lane in lowest terms,
with ``+`` and ``*`` as maps over whole lanes (:func:`lane_sum`,
:func:`lane_product`).  The enumerative engine's :class:`RationalLanes`
holds one lane per product of the family, the parametric engine's support
tables one lane per assignment of their support.
"""

from __future__ import annotations

import heapq
from math import gcd
from operator import add, floordiv, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import ModelError
from ..rational import ONE


class EliminationGraph:
    """Working graph for state elimination, as adjacency dicts: ``succ[s]``
    maps each successor ``t`` to the edge value and ``pred[t]`` holds the
    states with an edge into ``t``.

    Removing a node reroutes the mass through it to its successors,
    multiplied by the geometric closure of its self-loop: ``closure(loop)``
    is ``1/(1-loop)`` in the value domain, or None for a loop that is
    identically 1, which leaves no mass for the other outgoing edges.
    """

    def __init__(self, closure: Callable):
        self.closure = closure
        self.succ: dict = {}
        self.pred: dict = {}

    def add(self, s, t, f):
        if not f:
            return
        row = self.succ.get(s)
        if row is None:
            row = self.succ[s] = {}
        if t in row:
            row[t] = row[t] + f
        else:
            row[t] = f
            self.pred.setdefault(t, set()).add(s)

    def degree(self, v) -> int:
        return len(self.succ.get(v, ())) + len(self.pred.get(v, ()))

    def eliminate(self, v) -> list:
        """Remove ``v`` and return its rerouted successor list: the value
        of ``v`` is the sum of ``f * value(t)`` over its ``(t, f)`` pairs."""
        row = self.succ.pop(v, {})
        preds = self.pred.pop(v, set())
        loop = row.pop(v, None)
        preds.discard(v)
        out = list(row.items())
        if loop is not None and out:
            inv = self.closure(loop)
            out = [] if inv is None else [(t, inv * f_vt) for t, f_vt in out]
        for t in row:
            self.pred[t].discard(v)
        for s in preds:
            f_sv = self.succ[s].pop(v)
            for t, f_vt in out:
                self.add(s, t, f_sv * f_vt)
        return out

    def run(self, order: Sequence, protected: Iterable = ()) -> Iterator[tuple]:
        """Eliminate every node of ``order`` outside ``protected``, least
        degree first with ties broken by position in ``order``, yielding
        each node with its rerouted successor list.

        The order comes from a lazy min-degree heap of ``(degree, position,
        node)`` entries (George & Liu, SIAM Review 1989).  Eliminating a
        node changes only its neighbours' degrees, so each of them is pushed
        again with its new degree; a popped entry whose node is gone or
        whose degree is stale is skipped.
        """
        index = {s: i for i, s in enumerate(order)}
        remaining = set(index) - set(protected)
        heap = [(self.degree(s), index[s], s) for s in remaining]
        heapq.heapify(heap)
        while heap:
            d, _, v = heapq.heappop(heap)
            if v not in remaining or d != self.degree(v):
                continue
            touched = (self.succ.get(v, {}).keys() | self.pred.get(v, set())) & remaining
            touched.discard(v)
            yield v, self.eliminate(v)
            remaining.discard(v)
            for s in touched:
                heapq.heappush(heap, (self.degree(s), index[s], s))


#: Node valued 1: the edges into it from a state carry that state's b.
SINK = ("__sink__",)


def _closure(loop):
    """1 / (1 - loop).  A loop of 1 with mass left to reroute makes the
    system singular, which the precomputation rules out: a guard assertion."""
    if loop == 1:
        raise ModelError("singular linear system in until/reward computation")
    return ONE / (ONE - loop)


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
    zero = type(one)()  # the domain's 0: Fraction(), mpq(), float(), lanes, SupportTable()
    values = {SINK: one}
    for v, out in reversed(list(graph.run(wanted))):
        values[v] = sum((p * values[t] for t, p in out), zero)
    del values[SINK]
    return values


# ---------------------------------------------------------------------------
# Exact lanes
# ---------------------------------------------------------------------------


def _lowest_terms(num, den) -> tuple[tuple, tuple]:
    """Numerators and denominators, each lane divided by its gcd; the
    denominators stay positive."""
    num, den = tuple(num), tuple(den)
    g = tuple(map(gcd, num, den))
    return tuple(map(floordiv, num, g)), tuple(map(floordiv, den, g))


def lane_sum(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple[tuple, tuple]:
    """``a/b + c/d`` lane by lane, in lowest terms."""
    return _lowest_terms(map(add, map(mul, a, d), map(mul, c, b)), map(mul, b, d))


def lane_product(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple[tuple, tuple]:
    """``a/b * c/d`` lane by lane, in lowest terms."""
    return _lowest_terms(map(mul, a, c), map(mul, b, d))


class RationalLanes:
    """One exact value per product of the family, as a value domain of
    :func:`solve_linear`: lane k is ``num[k] / den[k]``, two tuples of
    integers (``mpz`` under gmpy2) kept in lowest terms with ``den[k] > 0``,
    so every lane holds the very rational its product's own solve makes.
    ``+`` and ``*`` are maps over whole lanes, with one ``gcd`` map and two
    ``floordiv`` maps to reduce; no rational object is made.  With no lanes
    it is 0 (a state with no outgoing mass)."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple = (), den: tuple = ()):
        self.num = num
        self.den = den

    def __len__(self) -> int:
        return len(self.num)

    def __add__(self, other: RationalLanes) -> RationalLanes:
        if not other.num:
            return self
        if not self.num:
            return other
        return RationalLanes(*lane_sum(self.num, self.den, other.num, other.den))

    def __mul__(self, other: RationalLanes) -> RationalLanes:
        if not (self.num and other.num):
            return RationalLanes()
        return RationalLanes(*lane_product(self.num, self.den, other.num, other.den))


def _rational_closure(loop: RationalLanes) -> RationalLanes:
    """1 / (1 - loop) lane by lane for a loop of probabilities, at most 1:
    ``den / (den - num)``, in lowest terms because ``num`` and ``den`` are
    coprime.  A lane whose loop is 1 makes the system singular, as in
    :func:`_closure`; the error records the first such lane."""
    rest = tuple(map(sub, loop.den, loop.num))
    if 0 in rest:
        raise ModelError("singular linear system in until/reward computation", rest.index(0))
    return RationalLanes(loop.den, rest)


def closure(seeds: Mapping, edges: Mapping, allowed: Mapping) -> dict:
    """Per state, the products for which it is a seed or is reached from
    one along ``edges`` (state -> ``(neighbour, product mask)`` pairs)
    through states where it is ``allowed``.  ``seeds`` and ``allowed`` map
    every state to a bitset."""
    reached = dict(seeds)
    work = [(s, bits) for s, bits in seeds.items() if bits]
    while work:
        s, bits = work.pop()
        for t, mask in edges[s]:
            new = bits & mask & allowed[t] & ~reached[t]
            if new:
                reached[t] |= new
                work.append((t, new))
    return reached


def until_partition(pred: Mapping, sat1: Mapping, sat2: Mapping, full: int):
    """Per-state product bitsets ``(prob0, prob1)`` of ``sat1 U sat2``.

    prob0: no path to a target through constraint states.  prob1: no path
    to a prob0 state through constraint-but-not-target states, hence
    absorbed into targets almost surely.  ``pred`` lists each state's
    predecessors with the products whose edge is positive; ``full`` has a
    bit for every product.
    """
    maybe = {s: sat1[s] & ~sat2[s] for s in sat1}
    can_reach = closure(sat2, pred, maybe)
    zero = {s: full & ~bits for s, bits in can_reach.items()}
    tainted = closure(zero, pred, maybe)
    return zero, {s: full & ~bits for s, bits in tainted.items()}
