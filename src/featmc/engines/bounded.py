"""Feature-aware bounded search: all products checked in one exploration.

Satisfaction of state formulae is tracked per (state, product) as 0/1
indicator vectors over the canonical product order.  An unbounded until is
bracketed by interval iteration of the one-step recurrence

    x'(s) = sat2(s) + (1 - sat2(s)) * sat1(s) * sum_t P(s,t) * x(t)

from both sides at once: a lower bound ``lo`` starts at the target
indicator and an upper bound ``hi`` starts at 1 on constraint states that
can reach a target (0 where the target is unreachable, so such mass counts
as decided from the start).  The exact value always lies in ``[lo, hi]``;
``hi - lo`` is the undecided path mass, and a product stops being iterated
once it is below the requested precision.  Threshold operators are decided
three-valuedly on that interval.

The iteration runs on Python integers over a common denominator ``2**bits``
whose size follows from the precision, with outward rounding: probabilities
and sums are rounded down for ``lo`` and up for ``hi``, so the certificate
is as sound as an exact-rational iteration and the bounds handed back are
exact rationals.  Step-bounded until, next and expected reward stay exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..errors import ConvergenceError, UnsupportedPropertyError
from ..models import FDTMC, State
from ..profiles import to_dense
from ..properties import (
    Atom,
    Interval,
    Next,
    PAnd,
    PNot,
    Prob,
    Property,
    PTrue,
    RewardQuery,
    StateFormula,
    Until,
    parse_tree,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO, rational
from ..result import SAT, UNKNOWN, VIOLATED, FamilyResult, ProductOutcome

ENGINE_NAME = "bounded"

DEFAULT_MAX_DEPTH = 100_000

# ---------------------------------------------------------------------------
# Dense model form
# ---------------------------------------------------------------------------


class DenseModel:
    """FDTMC with every profile flattened to a per-product vector."""

    def __init__(self, model: FDTMC):
        self.model = model
        self.states = model.states
        self.products = model.diagram.valid_products()
        self.n = len(self.products)
        self.edges: dict[State, list[tuple[State, tuple]]] = {s: [] for s in self.states}
        for (s, t), profile in model.transitions.items():
            vec = to_dense(profile).values
            if all(v == 0 for v in vec):
                continue
            self.edges[s].append((t, vec))
        self.init = model.init
        self.labels = model.labels

    def zeros(self):
        return [ZERO] * self.n

    def ones(self):
        return [ONE] * self.n

    def label_vector(self, proposition: str) -> dict[State, list]:
        return {
            s: (self.ones() if proposition in self.labels[s] else self.zeros())
            for s in self.states
        }

    def reward_vectors(self) -> dict[State, tuple]:
        return {
            s: to_dense(self.model.reward_profile(s)).values for s in self.states
        }


# ---------------------------------------------------------------------------
# Boolean reachability over products
# ---------------------------------------------------------------------------


def can_reach_vectors(dense: DenseModel, sat1, sat2) -> dict[State, list[bool]]:
    """Per (state, product): can a target be reached along constraint states.

    Backward fixpoint over Booleans; a target state counts as reaching.
    """
    can = {s: [bool(sat2[s][i]) for i in range(dense.n)] for s in dense.states}
    conform = {
        s: [bool(sat1[s][i]) and not sat2[s][i] for i in range(dense.n)]
        for s in dense.states
    }
    changed = True
    while changed:
        changed = False
        for s in dense.states:
            row = can[s]
            conf = conform[s]
            for t, vec in dense.edges[s]:
                target_row = can[t]
                for i in range(dense.n):
                    if conf[i] and not row[i] and vec[i] > 0 and target_row[i]:
                        row[i] = True
                        changed = True
    return can


def forward_reachable_vectors(dense: DenseModel) -> dict[State, list[bool]]:
    """Per (state, product): reachable with positive probability from init."""
    reach = {
        s: [(s in dense.init and dense.init[s] > 0)] * dense.n for s in dense.states
    }
    reach = {s: list(row) for s, row in reach.items()}
    changed = True
    while changed:
        changed = False
        for s in dense.states:
            row = reach[s]
            for t, vec in dense.edges[s]:
                target_row = reach[t]
                for i in range(dense.n):
                    if row[i] and vec[i] > 0 and not target_row[i]:
                        target_row[i] = True
                        changed = True
    return reach


# ---------------------------------------------------------------------------
# Path operators
# ---------------------------------------------------------------------------


def _next_vectors(dense: DenseModel, sat) -> dict[State, list]:
    out = {}
    for s in dense.states:
        acc = dense.zeros()
        for t, vec in dense.edges[s]:
            ind = sat[t]
            for i in range(dense.n):
                if ind[i] != 0:
                    acc[i] += vec[i] * ind[i]
        out[s] = acc
    return out


def _until_step(dense: DenseModel, sat1, sat2, x):
    """One Jacobi application of the recurrence at every state."""
    out = {}
    for s in dense.states:
        sat2_row = sat2[s]
        sat1_row = sat1[s]
        acc = dense.zeros()
        for t, vec in dense.edges[s]:
            xt = x[t]
            for i in range(dense.n):
                if vec[i] != 0 and xt[i] != 0:
                    acc[i] += vec[i] * xt[i]
        row = []
        for i in range(dense.n):
            if sat2_row[i] != 0:
                row.append(ONE)
            elif sat1_row[i] != 0:
                row.append(acc[i])
            else:
                row.append(ZERO)
        out[s] = row
    return out


def bounded_until_vectors(
    dense: DenseModel, sat1, sat2, bound: int
) -> dict[State, list]:
    """Exact step-bounded until values: ``bound`` Jacobi steps from the
    target indicator (the iterates never decrease)."""
    x = {s: [ONE if v != 0 else ZERO for v in sat2[s]] for s in dense.states}
    for _ in range(bound):
        x = _until_step(dense, sat1, sat2, x)
    return x


def _family_until_run(
    dense: DenseModel,
    sat1,
    sat2,
    epsilon=None,
    bound: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    weights=None,
    observer=None,
):
    """Two-sided interval iteration of the unbounded until, in place.

    Tracks a lower bound lo and an upper bound hi of the until value per
    (state, product); both are iterates of the same monotone one-step
    operator started below respectively above the fixpoint, so the exact
    value stays inside [lo, hi] under any update order, lo never decreases
    and hi never increases.  States are swept with successors first so mass
    propagates across whole chains per sweep.

    Values are integers over ``2**bits`` (``bits`` from ``epsilon``, 64
    without one) rounded outward, down for lo and up for hi, so each stays
    on its side of the exact operator applied to the old value.

    With ``bound`` exactly that many sweeps run.  Otherwise a product stops
    being updated once its interval is narrower than ``epsilon``: the
    interval aggregated under ``weights`` (state -> weight, the initial
    distribution of a top-level query), or at every state when ``weights``
    is None.  A product still wider after ``max_depth`` sweeps, or after a
    sweep that moved none of its bounds (rounding has stalled), raises
    ConvergenceError.  ``observer(sweep, lo, hi)`` sees the vectors as
    rationals after every sweep.

    Returns per-state (lo, hi).
    """
    n = dense.n
    states = list(dense.states)
    index = {s: i for i, s in enumerate(states)}
    can = can_reach_vectors(dense, sat1, sat2)
    if epsilon is None:
        bits = 64
    else:
        eps_num, eps_den = int(epsilon.numerator), int(epsilon.denominator)
        bits = 2 * ((eps_den // eps_num).bit_length() + 1) + 32
    full = 1 << bits
    # lo[i][k], hi[i][k]: product i at state states[k], scaled by 2**bits
    lo = [[full if sat2[s][i] != 0 else 0 for s in states] for i in range(n)]
    hi = [
        [
            full if sat2[s][i] != 0 or (sat1[s][i] != 0 and can[s][i]) else 0
            for s in states
        ]
        for i in range(n)
    ]
    # sweep order: successors before predecessors (DFS post-order over the
    # edge graph, cycles broken at back edges) so one sweep pushes values
    # across whole chains instead of one step
    post_order = []
    visited = set()
    for root in states:
        if root in visited:
            continue
        stack = [(root, iter([t for t, _ in dense.edges[root]]))]
        visited.add(root)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in visited:
                    visited.add(child)
                    stack.append(
                        (child, iter([t for t, _ in dense.edges[child]]))
                    )
                    advanced = True
                    break
            if not advanced:
                post_order.append(node)
                stack.pop()
    rank = {s: i for i, s in enumerate(post_order)}
    # per product, the states that conform for it (the only ones that ever
    # change) in sweep order, each with its nonzero out-edges as (successor,
    # probability rounded down, probability rounded up)
    rows = [[] for _ in range(n)]
    for s in sorted(states, key=lambda s: (rank[s], index[s])):
        edges = []
        for t, vec in dense.edges[s]:
            pairs = [divmod(int(v.numerator) << bits, int(v.denominator)) for v in vec]
            edges.append((index[t], [(q, q + (r > 0)) for q, r in pairs]))
        for i in range(n):
            if sat1[s][i] != 0 and sat2[s][i] == 0:
                succ = [(t, *rounded[i]) for t, rounded in edges if rounded[i][1]]
                rows[i].append((index[s], succ))
    # width of product i is gap(i) / denom
    if weights is None:
        denom = full

        def gap(i):
            return max((hi[i][k] - lo[i][k] for k, _ in rows[i]), default=0)

    else:
        denom = math.lcm(*(int(w.denominator) for w in weights.values()))
        weight_items = [(index[s], int(w * denom)) for s, w in weights.items()]
        denom <<= bits

        def gap(i):
            return sum(w * (hi[i][k] - lo[i][k]) for k, w in weight_items)

    def as_rationals(values):
        return {
            s: [rational(values[i][k], full) for i in range(n)]
            for k, s in enumerate(states)
        }

    active = list(range(n))
    for sweep in range(1, (max_depth if bound is None else bound) + 1):
        stalled = set()
        for i in active:
            lo_i = lo[i]
            hi_i = hi[i]
            moved = False
            for k, succ in rows[i]:
                acc_lo = 0
                acc_hi = 0
                for t, down, up in succ:
                    acc_lo += down * lo_i[t]
                    acc_hi += up * hi_i[t]
                acc_lo >>= bits
                acc_hi = -(-acc_hi >> bits)
                if acc_lo > lo_i[k]:
                    lo_i[k] = acc_lo
                    moved = True
                if acc_hi < hi_i[k]:
                    hi_i[k] = acc_hi
                    moved = True
            if not moved:
                stalled.add(i)
        if observer is not None:
            observer(sweep, as_rationals(lo), as_rationals(hi))
        if bound is None:
            active = [i for i in active if gap(i) * eps_den >= eps_num * denom]
            if not active:
                break
            # a sweep that moves nothing would move nothing ever after
            stuck = [i for i in active if i in stalled]
            if stuck or sweep == max_depth:
                worst = rational(max(map(gap, stuck or active)), denom)
                raise ConvergenceError(
                    f"{'rounding stalled' if stuck else 'no convergence'} after "
                    f"{sweep} sweeps at {bits} bits; worst undecided mass is {worst}",
                    worst_undecided=worst,
                )
    return as_rationals(lo), as_rationals(hi)


def _decide(interval: Interval, lo, hi) -> str:
    """Three-valued threshold of a value known to lie in [lo, hi]."""
    if interval.contains_range(lo, hi):
        return SAT
    if interval.disjoint_from_range(lo, hi):
        return VIOLATED
    return UNKNOWN


# ---------------------------------------------------------------------------
# Satisfaction maps (three-valued per product)
# ---------------------------------------------------------------------------


@dataclass
class SatEntry:
    """Lower and upper indicator vectors: lo=definitely, hi=possibly."""

    lo: dict
    hi: dict

    def decided(self) -> bool:
        return all(self.lo[s] == self.hi[s] for s in self.lo)


def _path_interval(
    dense: DenseModel, path, sat_of, epsilon, max_depth, bound=None, weights=None
):
    """Per-state value intervals [lo, hi] for a path formula.

    ``bound`` and ``weights`` apply to an unbounded until, as in
    _family_until_run.  Undecided operands bracket the value between a run
    on their definite and one on their possible satisfaction sets.
    """
    if isinstance(path, Next):
        entry = sat_of(path.operand)
        return _next_vectors(dense, entry.lo), _next_vectors(dense, entry.hi)
    if not isinstance(path, Until):
        raise UnsupportedPropertyError(f"unknown path formula {path!r}")
    e1 = sat_of(path.left)
    e2 = sat_of(path.right)
    decided = e1.decided() and e2.decided()
    if path.bound is not None:
        lo = bounded_until_vectors(dense, e1.lo, e2.lo, path.bound)
        hi = lo if decided else bounded_until_vectors(dense, e1.hi, e2.hi, path.bound)
        return lo, hi
    lo, hi = _family_until_run(
        dense, e1.lo, e2.lo, epsilon, bound, max_depth, weights
    )
    if not decided:
        _, hi = _family_until_run(
            dense, e1.hi, e2.hi, epsilon, bound, max_depth, weights
        )
    return lo, hi


def sat_states(
    dense: DenseModel,
    formula: StateFormula,
    epsilon=None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> dict[StateFormula, SatEntry]:
    """Bottom-up satisfaction map over the parse tree.

    Nested probability operators are thresholded three-valuedly; whatever
    stays unresolved at precision ``epsilon`` is retried once at
    ``epsilon/10`` by the caller (see check_family_bounded).
    """
    epsilon = rational("1/1000") if epsilon is None else epsilon
    entries: dict[StateFormula, SatEntry] = {}

    def sat_of(node: StateFormula) -> SatEntry:
        if node in entries:
            return entries[node]
        if isinstance(node, PTrue):
            vec = {s: dense.ones() for s in dense.states}
            entry = SatEntry(vec, dict(vec))
        elif isinstance(node, Atom):
            vec = dense.label_vector(node.name)
            entry = SatEntry(vec, dict(vec))
        elif isinstance(node, PNot):
            inner = sat_of(node.operand)
            entry = SatEntry(
                {s: [ONE - v for v in inner.hi[s]] for s in dense.states},
                {s: [ONE - v for v in inner.lo[s]] for s in dense.states},
            )
        elif isinstance(node, PAnd):
            left = sat_of(node.left)
            right = sat_of(node.right)
            entry = SatEntry(
                {
                    s: [a * b for a, b in zip(left.lo[s], right.lo[s])]
                    for s in dense.states
                },
                {
                    s: [a * b for a, b in zip(left.hi[s], right.hi[s])]
                    for s in dense.states
                },
            )
        elif isinstance(node, Prob):
            if node.interval is None:
                raise UnsupportedPropertyError(
                    "quantitative operator is only allowed at the top level"
                )
            lo, hi = _path_interval(dense, node.path, sat_of, epsilon, max_depth)
            decisions = {
                s: [_decide(node.interval, a, b) for a, b in zip(lo[s], hi[s])]
                for s in dense.states
            }
            entry = SatEntry(
                {
                    s: [ONE if d == SAT else ZERO for d in row]
                    for s, row in decisions.items()
                },
                {
                    s: [ZERO if d == VIOLATED else ONE for d in row]
                    for s, row in decisions.items()
                },
            )
        else:
            raise UnsupportedPropertyError(f"unknown state formula {node!r}")
        entries[node] = entry
        return entry

    sat_of(formula)
    return entries


# ---------------------------------------------------------------------------
# Reward queries
# ---------------------------------------------------------------------------


def bounded_expected_reward(
    dense: DenseModel,
    targets,
    epsilon,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Iterative lower bounds on expected reward-to-target with a sound
    truncation-error certificate.

    Products where some forward-reachable state cannot reach the target get
    an infinite value.  For the rest the alive mass decays geometrically;
    the decay factor observed over one model-size window turns the residual
    alive mass into a rigorous tail bound.
    """
    n = dense.n
    all_one = {s: dense.ones() for s in dense.states}
    target_vec = targets
    can = can_reach_vectors(dense, all_one, target_vec)
    fwd = forward_reachable_vectors(dense)
    infinite = [False] * n
    for s in dense.states:
        for i in range(n):
            if fwd[s][i] and not can[s][i] and target_vec[s][i] == 0:
                infinite[i] = True
    rewards = dense.reward_vectors()
    rmax = [ZERO] * n
    for s in dense.states:
        for i in range(n):
            if fwd[s][i] and rewards[s][i] > rmax[i]:
                rmax[i] = rewards[s][i]
    E = {s: dense.zeros() for s in dense.states}
    m = {
        s: [ONE if target_vec[s][i] == 0 else ZERO for i in range(n)]
        for s in dense.states
    }

    def step(values, add_reward):
        out = {}
        for s in dense.states:
            tgt = target_vec[s]
            acc = dense.zeros()
            for t, vec in dense.edges[s]:
                val = values[t]
                for i in range(n):
                    if vec[i] != 0 and val[i] != 0:
                        acc[i] += vec[i] * val[i]
            if add_reward:
                rew = rewards[s]
                row = [
                    (rew[i] + acc[i]) if tgt[i] == 0 else ZERO for i in range(n)
                ]
            else:
                row = [acc[i] if tgt[i] == 0 else ZERO for i in range(n)]
            out[s] = row
        return out

    window = max(len(dense.states), 1)
    for _ in range(window):
        E = step(E, True)
        m = step(m, False)
    # decay of the alive mass over one window, per product
    decay = [ZERO] * n
    for s in dense.states:
        for i in range(n):
            if fwd[s][i] and m[s][i] > decay[i]:
                decay[i] = m[s][i]
    k = window
    while True:
        done = True
        for i in range(n):
            if infinite[i] or rmax[i] == 0:
                continue
            alive = ZERO
            for s, weight in dense.init.items():
                alive += weight * m[s][i]
            if alive == 0:
                continue
            tail = rmax[i] * alive * window / (1 - decay[i]) if decay[i] < 1 else None
            if tail is None or tail >= epsilon:
                done = False
                break
        if done:
            break
        if k >= max_depth:
            raise ConvergenceError(
                f"reward iteration did not converge within {k} phases"
            )
        E = step(E, True)
        m = step(m, False)
        k += 1
    tails = [ZERO] * n
    for i in range(n):
        if infinite[i]:
            continue
        alive = ZERO
        for s, weight in dense.init.items():
            alive += weight * m[s][i]
        if rmax[i] != 0 and decay[i] < 1:
            tails[i] = rmax[i] * alive * window / (1 - decay[i])
    init_lower = [ZERO] * n
    for s, weight in dense.init.items():
        for i in range(n):
            init_lower[i] += weight * E[s][i]
    return init_lower, tails, infinite, k


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------


def _aggregate_init(dense: DenseModel, vectors) -> list:
    out = [ZERO] * dense.n
    for s, weight in dense.init.items():
        row = vectors[s]
        for i in range(dense.n):
            out[i] += weight * row[i]
    return out


def check_family_bounded(
    model: FDTMC,
    prop: Property | str,
    epsilon=None,
    bound: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FamilyResult:
    """Check every product in a single exploration of the featured model.

    Quantitative queries report the midpoint of the certified interval with
    half its width as the error bound.  Threshold queries are three-valued;
    an unknown verdict triggers one automatic retry at a tenth of the
    precision before being surfaced.
    """
    from ..properties import bind_check, parse_property

    if isinstance(prop, str):
        prop = parse_property(prop)
    bind_check(prop, model.ap)
    epsilon = rational("1/1000") if epsilon is None else epsilon
    if epsilon <= 0:
        raise ValueError(f"precision must be positive, got {epsilon}")
    started = time.perf_counter()
    dense = DenseModel(model)
    products = dense.products
    result = FamilyResult(ENGINE_NAME, print_property(prop))

    def finish():
        result.elapsed = time.perf_counter() - started
        return result

    if isinstance(prop, RewardQuery):
        target_entry = sat_states(dense, prop.target, epsilon, max_depth)[prop.target]
        if not target_entry.decided():
            raise UnsupportedPropertyError(
                "reward target could not be decided at this precision"
            )
        lower, tails, infinite, _ = bounded_expected_reward(
            dense, target_entry.lo, epsilon, max_depth
        )
        for i, product in enumerate(products):
            if infinite[i]:
                outcome = ProductOutcome(product, value=INFINITY, error_bound=ZERO)
            else:
                half = tails[i] / 2
                outcome = ProductOutcome(
                    product, value=lower[i] + half, error_bound=half
                )
            result.outcomes[product] = outcome
        return finish()

    if isinstance(prop, Prob):
        def compute(eps):
            sat_cache = {}

            def sat_of(node):
                if node not in sat_cache:
                    sat_cache.update(sat_states(dense, node, eps, max_depth))
                return sat_cache[node]

            lo, hi = _path_interval(
                dense, prop.path, sat_of, eps, max_depth, bound, dense.init
            )
            return _aggregate_init(dense, lo), _aggregate_init(dense, hi)

        lo, hi = compute(epsilon)
        if prop.interval is None:
            for i, product in enumerate(products):
                half = (hi[i] - lo[i]) / 2
                result.outcomes[product] = ProductOutcome(
                    product, value=lo[i] + half, error_bound=half
                )
            return finish()
        # under a fixed sweep count a finer precision only helps nested
        # operators; without one the retry would repeat the same interval
        retry = bound is None or any(isinstance(f, Prob) for f in parse_tree(prop)[:-1])
        used = epsilon
        while True:
            unknowns = []
            for i, product in enumerate(products):
                decision = _decide(prop.interval, lo[i], hi[i])
                if decision == UNKNOWN:
                    unknowns.append(product)
                half = (hi[i] - lo[i]) / 2
                result.outcomes[product] = ProductOutcome(
                    product, value=lo[i] + half, decision=decision, error_bound=half
                )
            if not unknowns or not retry or used != epsilon:
                if unknowns:
                    result.warnings.append(
                        f"{len(unknowns)} products stayed unknown at precision {used}"
                    )
                return finish()
            used = epsilon / 10
            lo, hi = compute(used)

    # state formula without a top probability operator: decide per product
    # at the initial states (every support state must satisfy it)
    init_total = sum(model.init.values(), ZERO)
    for attempt_eps in (epsilon, epsilon / 10):
        entry = sat_states(dense, prop, attempt_eps, max_depth)[prop]
        init_lo = _aggregate_init(dense, entry.lo)
        init_hi = _aggregate_init(dense, entry.hi)
        unknowns = 0
        for i, product in enumerate(products):
            if init_lo[i] == init_total:
                decision = SAT
            elif init_hi[i] < init_total:
                decision = VIOLATED
            else:
                decision = UNKNOWN
                unknowns += 1
            result.outcomes[product] = ProductOutcome(product, decision=decision)
        if not unknowns:
            break
    if result.unknown_products:
        result.warnings.append(
            f"{len(result.unknown_products)} products stayed unknown after deepening"
        )
    return finish()
