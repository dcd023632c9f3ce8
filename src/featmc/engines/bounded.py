"""Feature-aware bounded search: all products checked in one exploration.

Satisfaction of state formulae comes from the walker all engines share
(``engines/dense.py``): per state, a lower and an upper product bitset for
definitely and possibly satisfied.  The shared answer layer (``FamilyCheck``
there) also hands the engine the sets it solves on: the undecided
(state, product) pairs of an unbounded until's prob0/prob1 partition, for a
top-level query only those in the init cone, and the finite products' cone
of an expected reward.  An until is bracketed by interval iteration of
the one-step recurrence

    x'(s) = sat2(s) + (1 - sat2(s)) * sat1(s) * sum_t P(s,t) * x(t)

from both sides at once.  On an undecided pair the recurrence is iterated
with the state's self-loop divided out,

    x'(s) = sum_{t != s} P(s,t) * x(t) / (1 - P(s,s)),

the Gauss-Seidel splitting of ``(I - P) x = b`` (Stewart, *Introduction
to the Numerical Solution of Markov Chains*, 1994, ch. 3), which has the
same fixpoint: a state that loops with probability l would otherwise move
only 1 - l of its gap per sweep.  So a sweep is one Gauss-Seidel pass of
the loop-free recurrence, successors first.  A lower bound ``lo`` starts
at 1 on prob1 and 0 elsewhere, an upper bound ``hi`` starts at 0 on prob0
and 1 elsewhere, and only the pairs handed in are iterated.  The exact
value always lies in ``[lo, hi]``; ``hi - lo`` is the undecided path mass,
and a product stops being iterated once it is below the requested
precision.  Threshold operators are decided three-valuedly on that
interval by the shared answer layer.

The iteration runs on Python integers over a common denominator ``2**bits``
whose size follows from the precision (:func:`_bits`, 30 bits at 1e-3),
with outward rounding: probabilities and sums are rounded down for ``lo``
and up for ``hi``, so the certificate is as sound as an exact-rational
iteration.  Every product is iterated at once, bit-parallel: a
state's ``lo`` and ``hi`` are one integer each, with one fixed-width lane
per product (SWAR, "SIMD within a register"; Warren, *Hacker's Delight*,
ch. 2), which extends the 1-bit product bitsets of Classen et al. (ICSE
2010) to fixed-point lanes.  An edge carries a few distinct values, not
one per product, so a state's update is one multiply-add per (successor,
distinct rounded value) on the lanes of the products that share it.  The
rounded edges, self-loops folded out, are built once per run from the
profiles' ``(value, product bitset)`` groups, with no per-product vector.
The bounds are handed back as those integer lanes (:class:`LaneValues`),
of the initial states only for a top-level query; the shared answer layer
makes one rational of each value and one of each error bound.

An expected reward ``R=?[F target]`` runs on the same kernel, iterating
``x = r + P·x`` on its cone, where lo rises from 0 and hi falls from an
upper bound derived from the largest reward and the slowest chance of
leaving the cone (:func:`bounded_expected_reward`); a state's reward is
one more edge, into a sink valued 1, and is divided by 1 - P(s,s) like
the state's other edges.  Both a top-level until and a reward hand back
the bounds of the initial states, which the shared layer aggregates at
the initial distribution, and a fixed ``bound`` sets the sweeps of both.
Step-bounded until and next stay exact, on the exact step kernel of the
shared layer (``step_vectors`` in ``engines/dense.py``), which packs
lanes the same way with no rounding and counts real steps; it also gives
the slowest chance of leaving the cone behind the reward's upper start.
"""

from __future__ import annotations

import math
import time

from ..errors import ConvergenceError
from ..models import FDTMC
from ..properties import (
    Prob,
    Property,
    StateFormula,
    bind_check,
    parse_tree,
    print_property,
)
from ..rational import ZERO, rational
from ..result import FamilyResult
from .dense import (
    DenseModel,
    FamilyCheck,
    LaneValues,
    PackedLanes,
    SatEntry,
    bounded_until_vectors,
)

ENGINE_NAME = "bounded"

DEFAULT_MAX_DEPTH = 100_000

# ---------------------------------------------------------------------------
# Interval kernel
# ---------------------------------------------------------------------------


def _bits(epsilon, top=1) -> int:
    """Fixed-point precision of the interval kernel: 64 bits without a
    precision, otherwise the bits of ``top/epsilon`` plus 20, ``top`` (at
    least 1) bounding every value iterated.  An until has top 1: 30 bits
    at 1e-3, so every rounded edge value below 1 is one 30-bit digit of a
    CPython int, and 50 bits at 1e-9.

    The certificate rests on outward rounding, not on these bits: lo is
    rounded down and hi up, so [lo, hi] holds the exact value at any
    precision.  The bits only decide whether rounding keeps an interval
    from shrinking below epsilon, and 20 spare bits make that happen only
    on chains too slow for the sweep cap anyway.  A state's new bound is
    off the exact operator's by less than ``(m + 1) * top * 2**-bits``, m
    its number of edge entries: one unit per rounded value times a value
    of at most top, one for the final shift.  So a sweep that shrinks the
    gap by a share c of it leaves the gap at about ``2 (m + 1) * top *
    2**-bits / c`` at least, and since ``2**bits > 2**20 * top /
    epsilon``, that exceeds epsilon only where ``c < 2 (m + 1) * 2**-20``.
    Such a chain needs about ``ln(top/epsilon) / c`` sweeps with exact
    arithmetic, over ``2**19 * ln(1000) / (m + 1)`` at 1e-3: more than the
    default cap of 100,000 sweeps for m below 35, so it reports "no
    convergence" at 30 bits as it did at 54 (``TestPrecision`` in
    ``tests/test_bounded.py``)."""
    if epsilon is None:
        return 64
    return int(max(top, 1) / epsilon).bit_length() + 20


def _edge_table(
    dense: DenseModel, cone, bits: int, lanes: PackedLanes, rewards=None
) -> list[tuple]:
    """The interval kernel's packed edges: per state with a lane in
    ``cone`` (state -> product bitset), in sweep order, ``(position, lanes
    of cone, entries)``.  Each entry is ``(successor position, probability
    times 2**bits rounded down, rounded up, lanes of the products whose
    edge has that value)``, one per successor and distinct rounded pair,
    on the lanes of cone only; a lane mask is all ones in its lanes.  With
    ``rewards`` (state -> reward profile) a state's reward is one more
    edge, into the reward sink at position ``len(dense.states)``.

    A state's self-loop is folded out: on a lane where its value l is below
    1 the loop has no entry and every other edge, the reward's too, is
    scaled by ``1/(1 - l)``, rounded once from the exact quotient; a lane
    where l is 1 keeps its loop.  Lanes are split by loop value, so a value
    is rounded once per distinct (edge value, loop value) pair."""
    index = dense.index
    sink = len(dense.states)
    table = []
    for s in dense.sweep_order:
        here = cone[s]
        if not here:
            continue
        own = index[s]
        out = [(index[t], groups) for t, groups in dense.groups[s]]
        if rewards is not None:
            out.append((sink, [(v, mask) for v, mask in rewards[s].groups() if v]))
        # (multiplier, divisor, lanes): v / (1 - l) = v * d / (d - n) for a
        # loop value l = n/d below 1; the last part keeps its edges as they are
        parts = []
        kept = here
        for l, mask in next((groups for k, groups in out if k == own), ()):
            if l < 1 and mask & here:
                d = int(l.denominator)
                parts.append((d, d - int(l.numerator), mask & here))
                kept &= ~mask
        parts.append((1, 1, kept))
        merged: dict[tuple, int] = {}  # (successor, down, up) -> product bitset
        for k, groups in out:
            for v, mask in groups:
                num, den = int(v.numerator) << bits, int(v.denominator)
                for multiplier, divisor, part in parts[-1:] if k == own else parts:
                    m = mask & part
                    if m:
                        q, r = divmod(num * multiplier, den * divisor)
                        key = (k, q, q + (r > 0))
                        merged[key] = merged.get(key, 0) | m
        entries = [
            (k, down, up, lanes.widen(lanes.spread(m))) for (k, down, up), m in merged.items()
        ]
        table.append((own, lanes.widen(lanes.spread(here)), entries))
    return table


def _family_until_run(
    dense: DenseModel,
    unknown,
    kept,
    to_sink,
    epsilon=None,
    bound: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    at_init: bool = False,
    observer=None,
    rewards=None,
    top=None,
):
    """Two-sided interval iteration of the unbounded until, every product
    at once, on the sets of the shared answer layer (``solve`` of
    ``FamilyCheck``, all three mapping states to product bitsets).

    Tracks a lower bound lo and an upper bound hi of the until value per
    (state, product); both are iterates of the same monotone one-step
    operator started below respectively above the fixpoint, so the exact
    value stays inside [lo, hi] under any update order, lo never decreases
    and hi never increases.  lo starts at 1 on ``to_sink`` (prob1) and hi
    at 0 outside ``kept`` (prob0); only the ``unknown`` pairs are updated,
    in :attr:`DenseModel.sweep_order`, so mass propagates across whole
    chains per sweep.

    With ``rewards`` (state -> reward profile) the operator is instead
    the expected reward's ``x = r + P·x`` on the ``unknown`` pairs, its
    cone, and ``kept`` is that cone too: every edge that leaves it enters a
    target, whose value is 0.  lo starts at 0 and hi at ``top[i]``, which
    must bound product i's value at every pair that is iterated.  A state's
    reward is an edge into a sink whose bounds are 1, as in the parametric
    engine.

    Each state's self-loop is folded out of the operator
    (:func:`_edge_table`).  On an undecided pair whose loop value l is below
    1, the fixpoint equation ``x*(s) = r + l·x*(s) + Σ_{t≠s} P(s,t) x*(t)``
    (r = 0 for an until) gives ``x*(s) = r/(1 - l) + Σ_{t≠s} P'(s,t)
    x*(t)`` with ``P' = P/(1 - l)``.  So the folded operator has the same
    fixpoint, the only one on the undecided pairs, and its weights are not
    negative, so it is monotone and lo and hi bracket the fixpoint as below
    (Baier, Klein, Leuschner, Parker & Wunderlich, CAV 2017).  Each P' is
    at most 1, and a row's P' sum to at most 1, since the row's loop-free
    mass is at most 1 - l; a folded reward ``r/(1 - l)`` is at most
    ``x*(s)``, so at most the top.  So the bounds on a rounded sum below,
    and the lane width that follows from them, hold as for the unfolded
    operator.  A lane where l is 1 keeps its loop.

    Values are integers over ``2**bits`` (:func:`_bits` of ``epsilon`` and
    the largest top, 64 bits when only ``bound`` is given) rounded
    outward, down for lo and up for hi, so each stays on its side of the
    exact operator applied to the old value.  Each state's lo and hi are
    one int each, with one lane per product (:class:`PackedLanes`).  An
    edge is one ``(successor, down, up, lanes)`` entry per distinct
    rounded value, ``lanes`` masking the products whose edge has that
    value, so a state's update is one multiply-add per entry for every
    product at once; the floor and the ceiling are one shift each.  Lane i
    holds at most its top T (``2**bits`` for an until) per state, and a
    rounded reward is at most T, so a rounded sum stays below
    ``2**(bits+2) * T`` and a lane width of at least ``bits + bitlen(T) +
    15`` bits never carries: 80 bits for an until at 1e-3.

    A new bound overwrites the old one, except that hi is clamped
    lane-wise to its top: the rounded-up sum can exceed it.  This gives
    the iterates of keeping the better of the old and the new bound.  The
    operator is monotone, lo only rises and hi only falls, so a new lower
    sum is at least the one that set the old lo (or the start value 0),
    and a new upper sum at most the one that set the old hi, which was
    clamped the same way (or the start value, the top).  Pairs outside
    ``unknown`` and products that have stopped keep their lanes through a
    masked select.

    With ``bound`` exactly that many sweeps run.  Otherwise a product stops
    being updated once its interval is narrower than ``epsilon``: with
    ``at_init`` the interval aggregated at the initial distribution, else
    the widest at any state, either read with lane-wise comparisons.  With
    ``at_init`` the ``unknown`` pairs are those of the init cone: the
    initial states' bounds depend only on the states they reach, so they,
    and the sweep at which a product stops, are those of a run on every
    undecided pair, and the states outside the cone keep their starting
    bounds.  A product still wider after ``max_depth`` sweeps, or after a
    sweep that moved none of its bounds (rounding has stalled), raises
    ConvergenceError, which names the widest such product.  ``observer(sweep,
    lo, hi)`` sees the bounds of every state after every sweep.

    Returns (lo, hi) as :class:`LaneValues`, every product's integers over
    ``2**bits``: of every state, or with ``at_init`` of the initial states
    of positive weight.  One of ``epsilon`` and ``bound`` is required.
    """
    if epsilon is None and bound is None:
        raise ValueError("_family_until_run needs epsilon or bound, got neither")
    states = dense.states
    index = dense.index
    bits = _bits(epsilon, 1 if rewards is None else max(top, default=1))
    full = 1 << bits
    if rewards is None:
        tops = [full] * dense.n
    else:
        tops = [-(-(int(u.numerator) << bits) // int(u.denominator)) for u in top]
    top_bits = max(tops, default=full).bit_length()
    width = bits + top_bits + 15
    if not at_init:
        denom = full
    else:
        weights = dense.init
        denom = math.lcm(*(int(w.denominator) for w in weights.values()))
        weight_items = [(index[s], int(w * denom)) for s, w in weights.items() if w]
        # the weighted gap is at most the top times the weight sum per lane
        width = max(width, top_bits + sum(w for _, w in weight_items).bit_length() + 3)
        denom <<= bits
    lanes = PackedLanes(dense.n, -(-width // 8) * 8)
    width = lanes.width
    ones = lanes.ones
    cap = lanes.pack(tops)
    # lo[k], hi[k]: every product's bound at state states[k], scaled by
    # 2**bits; the last entry is the reward sink, 1 in every lane
    lo = [lanes.spread(to_sink[s]) << bits for s in states] + [ones << bits]
    hi = [cap & lanes.widen(lanes.spread(kept[s])) for s in states] + [ones << bits]
    table = _edge_table(dense, unknown, bits, lanes, rewards)
    # the width of product i is over denom, and the largest lane i of gap()
    if not at_init:

        def gap():
            return [hi[k] - lo[k] for k, _, _ in table]  # decided lanes are 0

    else:

        def gap():
            return [sum(w * (hi[k] - lo[k]) for k, w in weight_items)]

    def as_values(values, keys=states):
        chunk = (range(dense.n), full, lanes, values)
        return LaneValues(dense.n, {s: index[s] for s in keys}, [chunk])

    if epsilon is not None:
        eps_num, eps_den = int(epsilon.numerator), int(epsilon.denominator)
        # a product is still wide while gap >= eps * denom; the threshold is
        # capped above every gap a lane can hold, below the top bit
        threshold = ones * min(-(-eps_num * denom // eps_den), 1 << (width - 2))
    low = ones * ((1 << (width - bits)) - 1)  # a lane after the shift
    round_up = ones * (full - 1)
    above_cap = cap + ones
    high = lanes.high
    active = lanes.widen(ones)  # lanes of the products still iterated
    for sweep in range(1, (max_depth if bound is None else bound) + 1):
        moved = 0
        for k, cone, entries in table:
            upd = cone & active
            if not upd:
                continue
            acc_lo = 0
            acc_hi = 0
            for t, down, up, mask in entries:
                acc_lo += down * (lo[t] & mask)
                acc_hi += up * (hi[t] & mask)
            new_lo = (acc_lo >> bits) & low
            new_hi = ((acc_hi + round_up) >> bits) & low
            over = ((new_hi | high) - above_cap) & high  # lanes above their top
            if over:
                new_hi ^= (new_hi ^ cap) & lanes.fill(over)
            old = lo[k]
            diff_lo = (new_lo ^ old) & upd
            lo[k] = old ^ diff_lo
            old = hi[k]
            diff_hi = (new_hi ^ old) & upd
            hi[k] = old ^ diff_hi
            moved |= diff_lo | diff_hi
        if observer is not None:
            observer(sweep, as_values(lo[:]), as_values(hi[:]))
        if bound is None:
            wide = 0
            for g in gap():
                wide |= lanes.at_least(g, threshold)
            active &= lanes.fill(wide)
            if not active:
                break
            # a sweep that moves nothing would move nothing ever after
            stuck = active & ~lanes.fill(lanes.nonzero(moved))
            if stuck or sweep == max_depth:
                chosen = lanes.unpack(stuck or active)
                widths = [*map(max, zip(*map(lanes.unpack, gap())))]
                i = max((i for i, c in enumerate(chosen) if c), key=widths.__getitem__)
                worst = rational(widths[i], denom)
                raise ConvergenceError(
                    f"{'rounding stalled' if stuck else 'no convergence'} after "
                    f"{sweep} sweeps at {bits} bits; worst undecided mass is {worst}, "
                    f"at product {dense.products[i]}",
                    worst_undecided=worst,
                )
    read = dense.starts if at_init else states
    return as_values(lo, read), as_values(hi, read)


# ---------------------------------------------------------------------------
# The answer on value intervals
# ---------------------------------------------------------------------------


class _BoundedCheck(FamilyCheck):
    """One property on every product, on certified value intervals;
    ``bound`` fixes the sweeps of a top-level until or reward."""

    exact = False

    def __init__(self, dense: DenseModel, epsilon, max_depth: int, bound: int | None = None):
        super().__init__(dense)
        self.epsilon = epsilon
        self.max_depth = max_depth
        self.bound = bound

    def solve(self, unknown, kept, to_sink, rewards=False, at_init=False):
        """The hook of :class:`FamilyCheck`: one run of the interval
        kernel on its sets, ``bound`` sweeps where it is given for a run
        that reads the initial states."""
        bound = self.bound if at_init else None
        if rewards:
            return bounded_expected_reward(self.dense, unknown, self.epsilon, self.max_depth, bound)
        return _family_until_run(
            self.dense, unknown, kept, to_sink, self.epsilon, bound, self.max_depth, at_init
        )


def sat_states(
    dense: DenseModel,
    formula: StateFormula,
    epsilon=None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> dict[StateFormula, SatEntry]:
    """Bottom-up satisfaction map over the parse tree: per subformula, a
    SatEntry of per-state product bitsets.

    Nested probability operators are thresholded three-valuedly; whatever
    stays unresolved at precision ``epsilon`` is retried once at
    ``epsilon/10`` by check_family_bounded.
    """
    epsilon = rational("1/1000") if epsilon is None else epsilon
    check = _BoundedCheck(dense, epsilon, max_depth)
    check.sat_of(formula)
    return check.entries


# ---------------------------------------------------------------------------
# Reward queries
# ---------------------------------------------------------------------------


def bounded_expected_reward(
    dense: DenseModel,
    cone,
    epsilon,
    max_depth: int = DEFAULT_MAX_DEPTH,
    bound: int | None = None,
):
    """Certified bounds on every product's expected reward-to-target at the
    initial states of positive weight, by the interval kernel on ``x = r +
    P·x`` over ``cone``, the :func:`reward_cone` of the target cut to the
    products whose value is finite.  Returns per-state ``(lower, upper)``,
    whose aggregate at the initial distribution is narrower than
    ``epsilon``, or after ``bound`` sweeps when it is given; a product
    outside the cone gets bounds 0.

    With ``window`` the number of states, every window of steps in the
    cone earns at most ``rmax * window`` and stays in it with probability
    at most ``1 - q``: ``rmax`` is the largest reward and ``q`` the
    smallest probability of leaving the cone within ``window`` steps, over
    its states.  A path leaves the cone only at a target, which a finite
    product reaches from each state of it within ``window`` steps, so
    ``q`` is positive and ``rmax * window / q`` bounds the value at each
    of them: the upper iterate starts there.
    """
    rewards = dense.rewards
    window = len(dense.states)
    everywhere = dict.fromkeys(dense.states, dense.full)
    outside = {s: dense.full & ~bits for s, bits in cone.items()}
    # a product's values share one denominator, so q is its least numerator
    reach = bounded_until_vectors(dense, everywhere, outside, window)
    numerators = {s: reach.at(s)[0] for s in dense.states if cone[s]}
    top = [ZERO] * dense.n
    for i, denominator in enumerate(reach.denominators):
        seen = [s for s in numerators if cone[s] >> i & 1]
        if seen:
            rmax = max(rewards[s][i] for s in seen)
            top[i] = rmax * window * denominator / min(numerators[s][i] for s in seen)
    return _family_until_run(
        dense,
        cone,
        cone,
        dict.fromkeys(dense.states, 0),
        epsilon,
        bound,
        max_depth,
        at_init=True,
        rewards={s: dense.model.reward_profile(s) for s in dense.states},
        top=top,
    )


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------


def check_family_bounded(
    model: FDTMC,
    prop: Property | str,
    epsilon=None,
    bound: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FamilyResult:
    """Check every product in a single exploration of the featured model.

    Quantitative queries report the midpoint of the certified interval with
    half its width as the error bound.  Threshold queries and plain state
    formulae (decided at every initial state) are three-valued; an unknown
    verdict triggers one automatic retry at a tenth of the precision before
    being surfaced.
    """
    prop = bind_check(prop, model.ap)
    epsilon = rational("1/1000") if epsilon is None else epsilon
    if epsilon <= 0:
        raise ValueError(f"precision must be positive, got {epsilon}")
    if bound is not None and bound < 0:
        raise ValueError(f"sweep bound must not be negative, got {bound}")
    if max_depth < 1:
        raise ValueError(f"depth ceiling must be at least 1, got {max_depth}")
    started = time.perf_counter()
    dense = DenseModel(model)
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    # under a fixed sweep count a finer precision only helps nested
    # operators; without one the retry would repeat the same interval
    retry = bound is None or any(isinstance(f, Prob) for f in parse_tree(prop)[:-1])
    for used in (epsilon, epsilon / 10):
        outcomes = _BoundedCheck(dense, used, max_depth, bound).outcomes(prop)
        result.outcomes = {o.product: o for o in outcomes}
        unknowns = len(result.unknown_products)
        if not unknowns or not retry:
            break
    if unknowns:
        result.warnings.append(f"{unknowns} products stayed unknown at precision {used}")
    result.elapsed = time.perf_counter() - started
    return result
