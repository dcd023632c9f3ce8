"""Sparse state elimination over any value domain, the one exact solver of
the enumerative and the parametric engine (Daws, ICTAC 2004; Hahn, Hermanns
& Zhang, STTT 2011).  Edge values need only ``+``, ``*`` and truthiness:
exact rationals for one projected chain, per-product support tables for the
family.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


class EliminationGraph:
    """Working graph for state elimination.

    Removing a node reroutes the mass through it to its successors,
    multiplied by the geometric closure of its self-loop: ``closure(loop)``
    is ``1/(1-loop)`` in the value domain, or None for a loop that is
    identically 1, which leaves no mass for the other outgoing edges.
    """

    def __init__(self, closure: Callable):
        self.closure = closure
        self.f: dict = {}
        self.succ: dict = {}
        self.pred: dict = {}

    def add(self, s, t, f):
        if not f:
            return
        key = (s, t)
        if key in self.f:
            self.f[key] = self.f[key] + f
        else:
            self.f[key] = f
            self.succ.setdefault(s, set()).add(t)
            self.pred.setdefault(t, set()).add(s)

    def remove_edge(self, s, t):
        self.f.pop((s, t), None)
        self.succ.get(s, set()).discard(t)
        self.pred.get(t, set()).discard(s)

    def degree(self, v) -> int:
        return len(self.succ.get(v, ())) + len(self.pred.get(v, ()))

    def eliminate(self, v) -> list:
        """Remove ``v`` and return its rerouted successor list: the value
        of ``v`` is the sum of ``f * value(t)`` over its ``(t, f)`` pairs."""
        out = [(t, self.f[(v, t)]) for t in self.succ.get(v, ()) if t != v]
        loop = self.f.get((v, v))
        if loop is not None and out:
            inv = self.closure(loop)
            out = [] if inv is None else [(t, inv * f_vt) for t, f_vt in out]
        for s in self.pred.get(v, ()):
            if s != v:
                f_sv = self.f[(s, v)]
                for t, f_vt in out:
                    self.add(s, t, f_sv * f_vt)
        for t in list(self.succ.get(v, ())):
            self.remove_edge(v, t)
        for s in list(self.pred.get(v, ())):
            self.remove_edge(s, v)
        self.succ.pop(v, None)
        self.pred.pop(v, None)
        return out

    def run(self, order: Sequence, protected: Iterable = ()) -> Iterator[tuple]:
        """Eliminate every node of ``order`` outside ``protected``, least
        degree first with ties broken by position in ``order``, yielding
        each node with its rerouted successor list."""
        index = {s: i for i, s in enumerate(order)}
        remaining = set(index) - set(protected)
        while remaining:
            v = min(remaining, key=lambda s: (self.degree(s), index[s]))
            yield v, self.eliminate(v)
            remaining.discard(v)
