import itertools
import math
import random
import time
from operator import attrgetter

import pytest

from featmc.dsl import build_model, parse_model
from featmc.engines import bounded as bounded_engine, dense as dense_engine
from featmc.engines.bounded import (
    DEFAULT_MAX_DEPTH,
    DenseModel,
    _bits,
    _edge_table,
    _family_until_run,
    bounded_expected_reward,
    bounded_until_vectors,
    check_family_bounded,
    sat_states,
)
from featmc.engines.dense import (
    PackedLanes,
    next_vectors,
    reward_cone,
    until_sets,
)
from featmc.engines.elimination import closure, until_partition
from featmc.engines.enumerative import (
    bounded_until_values,
    check_dtmc,
    check_family_enumerative,
    expected_reward,
    until_state_partition,
    until_values,
)
from featmc.engines.parametric import check_family_parametric
from featmc.errors import ConvergenceError, ModelError, PropertyBindingError
from featmc.features import FeatureDiagram, Product, parse_feature_expression
from featmc.generators import gen_failure_recovery, gen_service_provider
from featmc.models import FDTMC, project
from featmc.profiles import GuardedProfile, constant
from featmc.properties import (
    Atom,
    Interval,
    PAnd,
    PNot,
    Prob,
    TRUE_F,
    parse_property,
    parse_tree,
)
from featmc.rational import INFINITY, ONE, ZERO, rational
from featmc.report import render_json
from featmc.result import SAT, UNKNOWN, VIOLATED

from conftest import edge_vectors, random_fdtmc


def _indicators(dense, formula):
    return sat_states(dense, formula)[formula].lo


def _next(model, formula):
    dense = DenseModel(model)
    return next_vectors(dense, _indicators(dense, formula))


def _bounded_until(model, left, right, bound):
    dense = DenseModel(model)
    return bounded_until_vectors(
        dense, _indicators(dense, left), _indicators(dense, right), bound
    )


@pytest.fixture(scope="module")
def leaky_cycle():
    """Eight products on a cycle ``on -> wait -> on``: each visit to ``on``
    ends or falls into an absorbing sink alike, so ``F end`` has value 1/2
    on every product.  No state loops, so no sweep reaches 1/2 and the
    value is approached only in the limit."""
    return parse_model(
        """
        features f g h;

        fdtmc Leaky {
          states off on wait end sink;
          init off;
          label end: end;

          off  -> on   : 1;
          on   -> wait : [f] 0.8, [g] 0.9, 0.7;
          on   -> end  : [f] 0.1, [g] 0.05, 0.15;
          on   -> sink : [f] 0.1, [g] 0.05, 0.15;
          wait -> on   : 1;
          end  -> end  : 1;
          sink -> sink : 1;
        }

        system = Leaky;
        """
    )


def _until(model, left, right, **kwargs):
    dense = DenseModel(model)
    return _until_run(dense, _indicators(dense, left), _indicators(dense, right), **kwargs)


def _until_run(
    dense, sat1, sat2, epsilon=None, bound=None, max_depth=DEFAULT_MAX_DEPTH, weights=None, **kwargs
):
    """:func:`_family_until_run` on the sets the answer layer solves ``sat1
    U sat2`` on (:func:`until_sets`), with the arguments of
    :func:`_reference_until_run`: ``weights`` is None or ``dense.init``,
    whose run reads the initial states."""
    at_init = weights is not None
    sets = until_sets(dense, sat1, sat2, at_init)
    return _family_until_run(dense, *sets, epsilon, bound, max_depth, at_init, **kwargs)


def _finite_cone(dense, targets):
    """The :func:`reward_cone` of ``targets`` cut to the finite products, as
    the answer layer hands it to :func:`bounded_expected_reward`."""
    cone, infinite = reward_cone(dense, targets)
    return {s: bits & ~infinite for s, bits in cone.items()}


def _folded_row(dense, s, i, bits):
    """Test oracle for the fold of :func:`_edge_table`: state s's edges on
    product i as ``(successor position, down, up)``, in edge order, each a
    probability times 2**bits rounded down and up.  Where the self-loop's
    value l is below 1 the loop is dropped and every other probability is
    first scaled by 1/(1 - l) in exact rationals; a loop of 1 stays."""
    edges = edge_vectors(dense.model, s)
    loop = next((vec[i] for t, vec in edges if t == s), ZERO)
    scale = ONE / (ONE - loop) if loop < 1 else ONE
    row = []
    for t, vec in edges:
        if t == s and loop < 1:
            continue
        v = vec[i] * scale
        q, r = divmod(int(v.numerator) << bits, int(v.denominator))
        if q + (r > 0):
            row.append((dense.index[t], q, q + (r > 0)))
    return row


def _reference_until_run(
    dense,
    sat1,
    sat2,
    epsilon=None,
    bound=None,
    max_depth=DEFAULT_MAX_DEPTH,
    weights=None,
    observer=None,
):
    """Test oracle for :func:`_family_until_run`: the same iteration with
    one Python loop per product over per-product rows of fixed-point edges
    (:func:`_folded_row`), and the ``acc_lo > lo`` / ``acc_hi < hi`` guards
    in place of the packed kernel's clamp and masked select."""
    n = dense.n
    states = dense.states
    index = dense.index
    zero, one = until_partition(dense.pred, sat1, sat2, dense.full)
    bits = _bits(epsilon)
    full = 1 << bits
    lo = [[full if one[s] >> i & 1 else 0 for s in states] for i in range(n)]
    hi = [[0 if zero[s] >> i & 1 else full for s in states] for i in range(n)]
    undecided = {s: dense.full & ~(zero[s] | one[s]) for s in states}
    if weights is not None:
        seeds = {s: undecided[s] if weights.get(s, 0) > 0 else 0 for s in states}
        undecided = closure(seeds, dense.succ, undecided)
    rows = [[] for _ in range(n)]
    for s in dense.sweep_order:
        for i in range(n):
            if undecided[s] >> i & 1:
                rows[i].append((index[s], _folded_row(dense, s, i, bits)))
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

    def as_rationals(values, keys=states):
        return {s: [rational(values[i][index[s]], full) for i in range(n)] for s in keys}

    if epsilon is not None:
        eps_num, eps_den = int(epsilon.numerator), int(epsilon.denominator)
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
            stuck = [i for i in active if i in stalled]
            if stuck or sweep == max_depth:
                widest = max(stuck or active, key=gap)
                worst = rational(gap(widest), denom)
                raise ConvergenceError(
                    f"{'rounding stalled' if stuck else 'no convergence'} after "
                    f"{sweep} sweeps at {bits} bits; worst undecided mass is {worst}, "
                    f"at product {dense.products[widest]}",
                    worst_undecided=worst,
                )
    read = states if weights is None else list(weights)
    return as_rationals(lo, read), as_rationals(hi, read)


class TestSatStates:
    def test_true_is_constant_one(self, wiper):
        dense = DenseModel(wiper.system)
        vec = _indicators(dense, TRUE_F)
        assert all(vec[s] == dense.full for s in dense.states)

    def test_atom_matches_labels(self, wiper):
        dense = DenseModel(wiper.system)
        vec = _indicators(dense, Atom("wiping"))
        for s in dense.states:
            expected = dense.full if "wiping" in dense.labels[s] else 0
            assert vec[s] == expected

    def test_composed_label_conjunction(self, minepump):
        dense = DenseModel(minepump.system)
        formula = PAnd(PNot(Atom("pumpOn")), Atom("methane"))
        vec = _indicators(dense, formula)
        for s in dense.states:
            expected = (
                dense.full
                if "methane" in dense.labels[s] and "pumpOn" not in dense.labels[s]
                else 0
            )
            assert vec[s] == expected


class TestNext:
    def test_true_gives_one_by_the_axiom(self, wiper):
        vectors = _next(wiper.system, TRUE_F)
        for s in wiper.system.states:
            assert all(v == 1 for v in vectors[s])

    def test_minepump_methane_step(self, minepump):
        vectors = _next(minepump.system, Atom("methane"))
        init = next(iter(minepump.system.init))
        assert set(vectors[init]) == {rational("0.125")}

    def test_wiper_fast_profile(self, wiper):
        values = _next(wiper.system, Atom("fastmode"))["off"]
        products = wiper.diagram.valid_products()
        for p, v in zip(products, values):
            if not p["spd2"]:
                assert v == 0
            elif p["very"]:
                assert v == rational("0.6")
            else:
                assert v == rational("0.3")


class TestBoundedUntil:
    def test_zero_steps_is_target_indicator(self, wiper):
        vectors = _bounded_until(wiper.system, TRUE_F, Atom("end"), 0)
        for s in wiper.system.states:
            expected = ONE if s == "end" else ZERO
            assert all(v == expected for v in vectors[s])

    def test_wiper_two_steps_from_on_is_constant(self, wiper):
        vectors = _bounded_until(wiper.system, TRUE_F, Atom("end"), 2)
        # one step out of a wiping state ends with 0.2; two steps add
        # (alpha+beta) * 0.2 = 0.8 * 0.2 for every product
        assert set(vectors["on"]) == {rational("0.36")}
        assert set(vectors["off"]) == {rational("0.16")}

    def test_matches_per_product_iteration(self):
        rng = random.Random(21)
        for _ in range(10):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            dense = DenseModel(m)
            sat1 = _indicators(dense, Atom("b"))
            sat2 = _indicators(dense, Atom("a"))
            x = bounded_until_vectors(dense, sat1, sat2, 4)
            for idx, p in enumerate(m.diagram.valid_products()):
                dtmc = project(m, p)
                expected = bounded_until_values(
                    dtmc, dtmc.states_with("b"), dtmc.states_with("a"), 4
                )
                for s in m.states:
                    assert x[s][idx] == expected[s]


class TestLowerApprox:
    def test_unreachable_target_converges_to_zero(self):
        d = FeatureDiagram(("f",))
        # target reachable only when f holds; absorbing sink otherwise
        m = FDTMC(
            ("s", "sink", "goal"),
            "s",
            d,
            {
                ("s", "goal"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], ZERO
                ),
                ("s", "sink"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], ONE
                ),
                ("sink", "sink"): constant(ONE, d),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        lo, hi = _until(m, TRUE_F, Atom("goal"), epsilon=rational("1e-6"))
        off = m.diagram.valid_products()[0]
        idx = m.diagram.product_index(off)
        assert lo["s"][idx] == 0
        assert hi["s"][idx] == 0

    def test_acyclic_model_is_exact_at_depth(self):
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("a", "b", "c", "goal"),
            "a",
            d,
            {
                ("a", "b"): constant(ONE, d),
                ("b", "c"): constant(rational("0.5"), d),
                ("b", "goal"): constant(rational("0.5"), d),
                ("c", "goal"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.25"))], rational("0.75")
                ),
                ("c", "c"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.75"))], rational("0.25")
                ),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        lo, hi = _until(m, TRUE_F, Atom("goal"), epsilon=rational("1e-9"))
        enum = check_family_enumerative(m, "P=?(F goal)")
        for idx, p in enumerate(m.diagram.valid_products()):
            exact = enum.outcomes[p].value
            assert lo["a"][idx] <= exact <= hi["a"][idx]
            assert hi["a"][idx] - lo["a"][idx] < rational("1e-8")

    def test_monotone_and_sound_at_every_depth(self):
        rng = random.Random(31)
        for _ in range(15):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            exact_by_product = {}
            for idx, p in enumerate(m.diagram.valid_products()):
                dtmc = project(m, p)
                exact_by_product[idx] = until_values(
                    dtmc, set(dtmc.states), dtmc.states_with("a")
                )
            history = []

            def record(sweep, lo, hi):
                history.append(
                    ({s: list(row) for s, row in lo.items()},
                     {s: list(row) for s, row in hi.items()})
                )

            _until(m, TRUE_F, Atom("a"), epsilon=rational("1e-4"), observer=record)
            assert history
            previous = None
            for lo, hi in history:
                for s in m.states:
                    for idx in exact_by_product:
                        exact = exact_by_product[idx][s]
                        assert lo[s][idx] <= exact <= hi[s][idx]
                        if previous is not None:
                            assert previous[0][s][idx] <= lo[s][idx]
                            assert hi[s][idx] <= previous[1][s][idx]
                previous = (lo, hi)

    def test_single_product_equals_classical_iteration(self):
        rng = random.Random(41)
        m = random_fdtmc(rng, max_states=6, max_features=1)
        # freeze the single-product projection of one variant as a trivial family
        p = m.diagram.valid_products()[0]
        d0 = FeatureDiagram(())
        frozen = FDTMC(
            m.states,
            m.init,
            d0,
            {k: constant(v.evaluate(p), d0) for k, v in m.transitions.items()},
            m.ap,
            m.labels,
        )
        dtmc = project(frozen, d0.valid_products()[0])
        steps = {}

        def record(sweep, lo, hi):
            steps[sweep] = {s: lo[s][0] for s in frozen.states}

        _until(frozen, TRUE_F, Atom("a"), bound=5, observer=record)
        assert sorted(steps) == [1, 2, 3, 4, 5]
        for k, snapshot in steps.items():
            classical = bounded_until_values(
                dtmc, set(dtmc.states), dtmc.states_with("a"), k
            )
            for s in frozen.states:
                # a successors-first sweep is at least one classical step
                assert snapshot[s] >= classical[s]


class TestThreshold:
    def test_no_undecided_reduces_to_two_valued(self, wiper):
        lo, _ = _until(wiper.system, TRUE_F, Atom("end"), epsilon=rational("1e-4"))
        interval = Interval(ZERO, rational("0.5"))
        for s in wiper.system.states:
            assert all(interval.decide(v, v) != UNKNOWN for v in lo[s])

    def test_full_interval_always_satisfied(self, wiper):
        lo, hi = _until(wiper.system, TRUE_F, Atom("end"), epsilon=rational("1e-4"))
        for s in wiper.system.states:
            assert all(
                Interval(ZERO, ONE).decide(a, b) == SAT for a, b in zip(lo[s], hi[s])
            )

    def test_interval_containment_decides(self):
        interval = Interval(ZERO, rational("0.1"), upper_strict=True)
        assert interval.decide(rational("0.095"), rational("0.097")) == SAT
        assert interval.decide(rational("0.1"), rational("0.2")) == VIOLATED
        # an exact value (lo == hi) is decided by containment alone, also on
        # a strict or a closed endpoint
        tenth = rational("0.1")
        assert interval.decide(tenth, tenth) == VIOLATED
        assert Interval(ZERO, tenth).decide(tenth, tenth) == SAT
        assert Interval(tenth, ONE, lower_strict=True).decide(tenth, tenth) == VIOLATED
        assert Interval(tenth, ONE).decide(tenth, tenth) == SAT
        for strict in (False, True):
            for bounds in ((ZERO, tenth), (tenth, ONE), (tenth, rational("0.2"))):
                for j in (Interval(*bounds, strict, False), Interval(*bounds, False, strict)):
                    for v in (ZERO, rational("0.05"), tenth, rational("0.2"), ONE):
                        assert j.decide(v, v) == (SAT if j.contains(v) else VIOLATED), (j, v)

    def test_straddling_interval_is_unknown(self):
        interval = Interval(ZERO, rational("0.1"), upper_strict=True)
        assert interval.decide(rational("0.099"), rational("0.101")) == UNKNOWN

    def test_scaled_interval_decides_numerators(self):
        """``scaled(d)`` decides integer numerators over d as the interval
        decides their values: on open and closed ends, and where no
        numerator lies inside (1/10 to 1/5 over 3), at every pair of
        numerators next to a bound."""
        tenth, fifth, third = rational(1, 10), rational(1, 5), rational(1, 3)
        for d in (1, 3, 10, 1 << 30):
            for bounds in ((ZERO, tenth), (tenth, ONE), (tenth, fifth), (third, third)):
                near = {0, d}
                for bound in bounds:
                    near |= {math.floor(bound * d) + k for k in (-1, 0, 1, 2)}
                near = sorted(v for v in near if 0 <= v <= d)
                for strict in itertools.product((False, True), repeat=2):
                    if bounds[0] == bounds[1] and any(strict):
                        continue
                    interval = Interval(*bounds, *strict)
                    scaled = interval.scaled(d)
                    for a, b in itertools.combinations_with_replacement(near, 2):
                        expected = interval.decide(rational(a, d), rational(b, d))
                        assert scaled.decide(a, b) == expected, (interval, d, a, b)


class TestFamilyBounded:
    def test_wiper_reaches_end_almost_surely(self, wiper):
        result = check_family_bounded(
            wiper.system, "P=?(F end)", epsilon=rational("1e-3")
        )
        for o in result.outcomes.values():
            assert abs(o.value - 1) <= o.error_bound + rational("1e-3")

    def test_threshold_agrees_with_enumerative(self):
        rng = random.Random(51)
        for _ in range(10):
            m = random_fdtmc(rng, max_states=6, max_features=2)
            enum = check_family_enumerative(m, "P[<0.5](F a)")
            bounded = check_family_bounded(
                m, "P[<0.5](F a)", epsilon=rational("1e-5")
            )
            for p in m.diagram.valid_products():
                b = bounded.outcomes[p].decision
                if b != UNKNOWN:
                    assert b == enum.outcomes[p].decision

    def test_unknowns_resolve_on_deepening(self):
        # a chain whose reach probability is exactly representable but close
        # to the threshold: coarse epsilon cannot separate, finer one can
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("s", "goal", "sink"),
            "s",
            d,
            {
                ("s", "goal"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.45"))], rational("0.55")
                ),
                ("s", "sink"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.55"))], rational("0.45")
                ),
                ("goal", "goal"): constant(ONE, d),
                ("sink", "sink"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        result = check_family_bounded(m, "P[<0.5](F goal)", epsilon=rational("0.2"))
        decisions = {str(p): o.decision for p, o in result.outcomes.items()}
        assert decisions == {"{f}": SAT, "{}": VIOLATED}

    def test_deepening_warning_names_the_precision_used(self, leaky_cycle):
        # one sweep cannot separate F end (value 1/2) from the bound; with the
        # sweep count fixed and no nested operator a finer precision changes
        # nothing, so there is no retry
        result = check_family_bounded(
            leaky_cycle.system, "P[>=0.8](F end)", epsilon=rational("1/1000"), bound=1
        )
        assert len(result.unknown_products) == 8
        assert result.warnings == ["8 products stayed unknown at precision 1/1000"]

    def test_fixed_sweeps_still_retry_nested_operators(self, leaky_cycle):
        # the nested operator runs to its precision whatever the bound, so a
        # tenth of it can still decide more and the retry goes ahead
        result = check_family_bounded(
            leaky_cycle.system,
            "P[>=0.8](F P[>=0.9](X end))",
            epsilon=rational("1/1000"),
            bound=1,
        )
        assert len(result.unknown_products) == 8
        assert result.warnings == ["8 products stayed unknown at precision 1/10000"]

    def test_precision_must_be_positive(self, wiper):
        with pytest.raises(ValueError):
            check_family_bounded(wiper.system, "P=?(F end)", epsilon=ZERO)

    @pytest.mark.parametrize("limits", [{"max_depth": 0}, {"bound": -1}])
    def test_limits_that_skip_the_iteration_are_rejected(self, limits):
        # with no sweep allowed the interval stays at [0, 1] and would be
        # reported as 1/2 +- 1/2 without a warning
        system = build_model(gen_failure_recovery(2)).system
        with pytest.raises(ValueError):
            check_family_bounded(system, "P=?(F failure)", **limits)

    def test_binding_error_on_unknown_atom(self, wiper):
        with pytest.raises(PropertyBindingError):
            check_family_bounded(wiper.system, "P=?(F nonsense)")

    def test_reward_interval_contains_exact(self, wiper):
        enum = check_family_enumerative(wiper.system, "R=?[F end]")
        bounded = check_family_bounded(
            wiper.system, "R=?[F end]", epsilon=rational("1e-3")
        )
        for p in wiper.diagram.valid_products():
            exact = enum.outcomes[p].value
            o = bounded.outcomes[p]
            assert o.value - o.error_bound <= exact <= o.value + o.error_bound
            assert abs(o.value - exact) <= rational("1e-3")

    def test_reward_infinite_products_flagged(self):
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("a", "trap", "goal"),
            "a",
            d,
            {
                ("a", "trap"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], ZERO
                ),
                ("a", "goal"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], ONE
                ),
                ("trap", "trap"): constant(ONE, d),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
            rewards={"a": constant(ONE, d)},
        )
        result = check_family_bounded(m, "R=?[F goal]", epsilon=rational("1e-3"))
        with_f = Product(("f",), (True,))
        without = Product(("f",), (False,))
        assert result.outcomes[with_f].value == INFINITY
        assert result.outcomes[without].value == 1


    def test_reward_ignores_states_after_the_target(self):
        # a -> t -> dead: dead cannot reach the target, but it is only
        # reachable after the target, so the reward stays finite
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("a", "t", "dead"),
            "a",
            d,
            {
                ("a", "t"): constant(ONE, d),
                ("t", "dead"): constant(ONE, d),
                ("dead", "dead"): constant(ONE, d),
            },
            ("goal",),
            {"t": ("goal",)},
            rewards={"a": constant(rational(5), d)},
        )
        for check in (check_family_enumerative, check_family_parametric):
            assert [o.value for o in check(m, "R=?[F goal]").outcomes.values()] == [5, 5]
        result = check_family_bounded(m, "R=?[F goal]", epsilon=rational("1e-3"))
        assert len(result.outcomes) == 2
        for o in result.outcomes.values():
            assert o.value - o.error_bound <= 5 <= o.value + o.error_bound

    def test_reward_fine_precision_stays_fast_and_renders(self):
        # exact-rational reward iterates grew without limit on this model:
        # about a minute at 1e-9, and a value too long to print
        rng = random.Random(5)
        for _ in range(47):
            m = random_fdtmc(rng, max_states=6, max_features=3, with_rewards=True)
        epsilon = rational("1e-9")
        started = time.perf_counter()
        result = check_family_bounded(m, "R=?[F a]", epsilon=epsilon)
        assert time.perf_counter() - started < 2
        enum = check_family_enumerative(m, "R=?[F a]")
        for p, o in result.outcomes.items():
            exact = enum.outcomes[p].value
            assert exact != INFINITY
            assert o.value - o.error_bound <= exact <= o.value + o.error_bound
            assert 2 * o.error_bound < epsilon
        render_json(m.diagram.valid_products(), [result])

    def test_reward_without_rewards_is_a_model_error(self):
        system = build_model(gen_failure_recovery(3)).system
        for check in (check_family_enumerative, check_family_parametric, check_family_bounded):
            with pytest.raises(ModelError, match="model has no rewards"):
                check(system, "R=?[F failure]")

    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_reward_depth_ceiling(self, wiper, max_depth):
        with pytest.raises(ConvergenceError) as err:
            check_family_bounded(wiper.system, "R=?[F end]", max_depth=max_depth)
        assert f"after {max_depth} sweeps" in str(err.value)
        assert err.value.worst_undecided > 0

    def test_prob1_decides_almost_sure_reachability(self, wiper):
        result = check_family_bounded(
            wiper.system, "P[>=1](F end)", epsilon=rational("1/1000")
        )
        assert [o.decision for o in result.outcomes.values()] == [SAT] * 8
        assert result.warnings == []


class TestReachabilityClosure:
    OPERANDS = (
        (TRUE_F, Atom("a")),
        (Atom("b"), Atom("a")),
        (PNot(Atom("c")), Atom("b")),
        (PAnd(Atom("a"), Atom("b")), PNot(Atom("a"))),
    )

    def test_family_partition_matches_each_projection(self):
        rng = random.Random(81)
        for _ in range(40):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            dense = DenseModel(m)
            projections = [project(m, p) for p in dense.products]
            for left, right in self.OPERANDS:
                zero, one = until_partition(
                    dense.pred,
                    _indicators(dense, left),
                    _indicators(dense, right),
                    dense.full,
                )
                for i, dtmc in enumerate(projections):
                    expected_zero, expected_one, _ = until_state_partition(
                        dtmc, check_dtmc(dtmc, left).sat, check_dtmc(dtmc, right).sat
                    )
                    assert {s for s in m.states if zero[s] >> i & 1} == expected_zero
                    assert {s for s in m.states if one[s] >> i & 1} == expected_one


class TestRewardSoundness:
    @pytest.mark.parametrize("epsilon", ["1/10", "1/1000", "1e-6", "1e-9"])
    def test_certified_tail_contains_exact(self, epsilon):
        rng = random.Random(91)
        for _ in range(30):
            m = random_fdtmc(rng, max_states=6, max_features=3, with_rewards=True)
            enum = check_family_enumerative(m, "R=?[F a]")
            dense = DenseModel(m)
            targets = _indicators(dense, Atom("a"))
            _, diverging = reward_cone(dense, targets)
            infinite = [bool(diverging >> i & 1) for i in range(dense.n)]
            lo, hi = bounded_expected_reward(dense, _finite_cone(dense, targets), rational(epsilon))
            lower, upper = ([*map(rational, *v.aggregate(dense.init))] for v in (lo, hi))
            for i, p in enumerate(dense.products):
                exact = enum.outcomes[p].value
                assert infinite[i] == (exact == INFINITY)
                if not infinite[i]:
                    assert lower[i] <= exact <= upper[i]
                    assert upper[i] - lower[i] < rational(epsilon)


    def test_bound_fixes_the_reward_sweeps(self, wiper):
        """``bound`` fixes the sweeps of a top-level reward as it does those
        of an until: after none the lower bound is still its start, 0."""
        prop = "R=?[F end]"
        exact = check_family_enumerative(wiper.system, prop).outcomes
        for outcome in check_family_bounded(wiper.system, prop, bound=0).outcomes.values():
            assert outcome.value - outcome.error_bound == 0
        for p, o in check_family_bounded(wiper.system, prop, bound=3).outcomes.items():
            assert o.value - o.error_bound <= exact[p].value <= o.value + o.error_bound


class TestNestedOperators:
    PROPERTIES = (
        "P[>=0.5](F P[<0.3](X a))",
        "P[<0.5](b U P[>0.2](F a))",
        "P=?(F P[>=0.5](a U<=2 b))",
        "P[>0.1](X !P[<0.5](F a))",
    )

    def test_agree_with_enumerative(self):
        rng = random.Random(61)
        for _ in range(60):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            for prop in self.PROPERTIES:
                enum = check_family_enumerative(m, prop)
                bounded = check_family_bounded(m, prop, epsilon=rational("1e-3"))
                for p, expected in enum.outcomes.items():
                    o = bounded.outcomes[p]
                    assert o.value - o.error_bound <= expected.value
                    assert expected.value <= o.value + o.error_bound
                    if o.decision != UNKNOWN:
                        assert o.decision == expected.decision, (prop, str(p))

    def test_operator_shared_by_both_operands_runs_once(self, wiper, monkeypatch):
        runs = []
        original = bounded_engine._family_until_run

        def counted(*args, **kwargs):
            runs.append(args[1:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(bounded_engine, "_family_until_run", counted)
        prop = "P=?(P[>0.5](F end) U (P[>0.5](F end) & end))"
        result = check_family_bounded(wiper.system, prop)
        # the nested operator, then the top-level until
        assert len(runs) == 2
        enum = check_family_enumerative(wiper.system, prop)
        for p, expected in enum.outcomes.items():
            o = result.outcomes[p]
            assert o.value - o.error_bound <= expected.value <= o.value + o.error_bound


class TestStepVectors:
    @pytest.mark.parametrize(
        "prop, name",
        [("P=?(X fastmode)", "next_vectors"), ("P=?(true U<=3 end)", "bounded_until_vectors")],
    )
    def test_built_once_when_the_operands_are_decided(self, wiper, monkeypatch, prop, name):
        """Decided operands make the lower and the upper vectors equal, so
        one set of vectors stands for both."""
        calls = []
        original = getattr(dense_engine, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dense_engine, name, counted)
        result = check_family_bounded(wiper.system, prop)
        assert len(calls) == 1
        enum = check_family_enumerative(wiper.system, prop)
        for p, o in result.outcomes.items():
            assert (o.value, o.error_bound) == (enum.outcomes[p].value, 0)


class TestThreeValuedSatMaps:
    PROPERTIES = TestNestedOperators.PROPERTIES + ("!P[<0.5](F a)",)

    def test_bitsets_bracket_the_exact_sat_set_at_every_state(self):
        rng = random.Random(63)
        undecided = 0
        for _ in range(40):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            dense = DenseModel(m)
            projections = [project(m, p) for p in dense.products]
            for text in self.PROPERTIES:
                prop = parse_property(text)
                # a quantitative root has no satisfaction set; its operands do
                quantitative = isinstance(prop, Prob) and prop.interval is None
                roots = parse_tree(prop)[:-1] if quantitative else [prop]
                for root, epsilon in itertools.product(roots, ("1/2", "1/1000")):
                    for f, entry in sat_states(dense, root, rational(epsilon)).items():
                        for i, dtmc in enumerate(projections):
                            exact = check_dtmc(dtmc, f).sat
                            for s in m.states:
                                lo, hi = entry.lo[s] >> i & 1, entry.hi[s] >> i & 1
                                assert not lo or s in exact, (text, f, s)
                                assert s not in exact or hi, (text, f, s)
                                undecided += lo != hi
        # some maps stay undecided, so both implications are exercised
        assert undecided


class TestPlainStateFormulae:
    PROPERTIES = ("!P[<0.5](F a)", "a | P[>=0.2](b U a)")

    def _assert_agrees(self, m, prop):
        enum = check_family_enumerative(m, prop)
        bounded = check_family_bounded(m, prop, epsilon=rational("1e-3"))
        decided = 0
        for p, expected in enum.outcomes.items():
            o = bounded.outcomes[p]
            assert o.value is None and o.error_bound is None
            if o.decision != UNKNOWN:
                assert o.decision == expected.decision, (prop, str(p))
                decided += 1
        return decided

    def test_agree_with_enumerative(self):
        rng = random.Random(65)
        decided = 0
        for _ in range(30):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            for prop in self.PROPERTIES:
                decided += self._assert_agrees(m, prop)
        assert decided

    def test_every_initial_state_must_satisfy(self):
        d = FeatureDiagram(("f",))
        # from u, a is reached with probability 1 when f holds and 0
        # otherwise; v is labelled a, so every formula here holds there
        m = FDTMC(
            ("u", "v", "goal", "sink"),
            {"u": rational(1, 2), "v": rational(1, 2)},
            d,
            {
                ("u", "goal"): GuardedProfile(d, [(parse_feature_expression("f"), ONE)], ZERO),
                ("u", "sink"): GuardedProfile(d, [(parse_feature_expression("f"), ZERO)], ONE),
                ("v", "v"): constant(ONE, d),
                ("goal", "goal"): constant(ONE, d),
                ("sink", "sink"): constant(ONE, d),
            },
            ("a", "b"),
            {"v": ("a",), "goal": ("a",)},
        )
        for prop in self.PROPERTIES:
            assert self._assert_agrees(m, prop) == 2
        result = check_family_bounded(m, "!P[<0.5](F a)")
        decisions = {str(p): o.decision for p, o in result.outcomes.items()}
        assert decisions == {"{f}": SAT, "{}": VIOLATED}

    def test_undecided_formula_warns_with_the_precision_used(self, leaky_cycle):
        # F end is exactly 1/2, so no precision separates it from the bound
        result = check_family_bounded(leaky_cycle.system, "!P[>=0.5](F end)")
        assert [o.decision for o in result.outcomes.values()] == [UNKNOWN] * 8
        assert result.warnings == ["8 products stayed unknown at precision 1/10000"]


class TestRounding:
    """The kernel works on integers over 2**bits with outward rounding."""

    def test_sound_after_every_sweep_with_non_dyadic_probabilities(self):
        rng = random.Random(71)
        checked = 0
        for grain in (3, 7, 9, 21) * 12:
            m = random_fdtmc(rng, max_states=6, max_features=3, grain=grain)
            exact = {}
            for idx, p in enumerate(m.diagram.valid_products()):
                dtmc = project(m, p)
                exact[idx] = until_values(dtmc, set(dtmc.states), dtmc.states_with("a"))
            history = []
            _until(
                m,
                TRUE_F,
                Atom("a"),
                epsilon=rational("1e-6"),
                observer=lambda sweep, lo, hi: history.append((lo, hi)),
            )
            for lo, hi in history:
                for s in m.states:
                    for idx, values in exact.items():
                        assert lo[s][idx] <= values[s] <= hi[s][idx]
                        checked += 1
        assert checked > 1000

    def test_width_below_float_resolution(self):
        d = FeatureDiagram(("f",))
        third = rational(1, 3)
        m = FDTMC(
            ("a", "b", "goal", "sink"),
            "a",
            d,
            {
                ("a", "b"): constant(third, d),
                ("a", "goal"): constant(1 - third, d),
                ("b", "goal"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational(1, 7))], rational(2, 9)
                ),
                ("b", "sink"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational(6, 7))], rational(7, 9)
                ),
                ("goal", "goal"): constant(ONE, d),
                ("sink", "sink"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        epsilon = rational("1e-40")
        lo, hi = _until(m, TRUE_F, Atom("goal"), epsilon=epsilon)
        enum = check_family_enumerative(m, "P=?(F goal)")
        for idx, p in enumerate(m.diagram.valid_products()):
            exact = enum.outcomes[p].value
            assert lo["a"][idx] <= exact <= hi["a"][idx]
            assert hi["a"][idx] - lo["a"][idx] < epsilon

    def test_bounds_are_backend_rationals(self, wiper):
        for kwargs in ({"epsilon": rational("1e-4")}, {"bound": 3}):
            lo, hi = _until(wiper.system, TRUE_F, Atom("end"), **kwargs)
            for rows in (lo, hi):
                for row in rows.values():
                    assert all(type(v) is type(ONE) for v in row)

    def test_stalled_rounding_raises_at_once(self):
        d = FeatureDiagram(("f",))
        # at epsilon 1/2 the escape probabilities round to 0 for lo and the
        # cycle's edges to 1 for hi, so neither bound can move; the value is
        # 1/2 (a self-loop would be folded out; the cycle s <-> u is not)
        escape = rational(1, 2**60)
        m = FDTMC(
            ("s", "u", "goal", "sink"),
            "s",
            d,
            {
                ("s", "u"): constant(1 - 2 * escape, d),
                ("u", "s"): constant(ONE, d),
                ("s", "goal"): constant(escape, d),
                ("s", "sink"): constant(escape, d),
                ("goal", "goal"): constant(ONE, d),
                ("sink", "sink"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        sweeps = []
        with pytest.raises(ConvergenceError) as err:
            _until(
                m,
                TRUE_F,
                Atom("goal"),
                epsilon=rational(1, 2),
                observer=lambda sweep, lo, hi: sweeps.append(sweep),
            )
        assert sweeps == [1]
        assert err.value.worst_undecided == 1


def _criterion3_corpus():
    """The random chains of acceptance criterion 3."""
    for seed in range(200):
        yield random_fdtmc(random.Random(seed), max_states=8, max_features=4)


class TestCone:
    """A top-level run (``at_init``) sweeps only the undecided states its
    initial states reach (:func:`until_sets`); its initial bounds must be
    those of a sweep over every undecided state, bit for bit."""

    EPSILON = rational("1/1000")

    @staticmethod
    def _operands(model):
        atoms = [Atom(a) for a in sorted(model.ap)]
        return [(TRUE_F, a) for a in atoms] + [
            (PNot(b), a) for a, b in zip(atoms, atoms[1:])
        ]

    def _assert_cone_matches_full_sweep(self, model):
        dense = DenseModel(model)
        weights = dense.init
        init = [s for s, w in weights.items() if w > 0]
        for left, right in self._operands(model):
            sat1 = _indicators(dense, left)
            sat2 = _indicators(dense, right)
            history = []
            everywhere = until_sets(dense, sat1, sat2)
            cone = until_sets(dense, sat1, sat2, at_init=True)
            _family_until_run(
                dense,
                *everywhere,
                self.EPSILON,
                observer=lambda sweep, lo, hi: history.append((lo, hi)),
            )
            lo, hi = _family_until_run(dense, *cone, self.EPSILON, at_init=True)
            fixed = _family_until_run(dense, *cone, self.EPSILON, bound=2, at_init=True)
            fixed_full = _family_until_run(dense, *everywhere, self.EPSILON, bound=2)
            for i in range(dense.n):
                # the full sweep at the first sweep where the product's
                # aggregated interval is narrower than epsilon
                full_lo, full_hi = next(
                    (a, b)
                    for a, b in history
                    if sum(w * (b[s][i] - a[s][i]) for s, w in weights.items())
                    < self.EPSILON
                )
                for s in init:
                    assert (lo[s][i], hi[s][i]) == (full_lo[s][i], full_hi[s][i])
                    assert fixed[0][s][i] == fixed_full[0][s][i]
                    assert fixed[1][s][i] == fixed_full[1][s][i]

    def test_generated_and_bundled_models(self, wiper, minepump):
        for model in (
            wiper.system,
            minepump.system,
            build_model(gen_service_provider(4)).system,
            build_model(gen_failure_recovery(4)).system,
        ):
            self._assert_cone_matches_full_sweep(model)

    def test_criterion3_corpus(self):
        for model in _criterion3_corpus():
            self._assert_cone_matches_full_sweep(model)
            # the same chain entered from two states, plus a third of weight 0
            first, *_, last = model.states
            init = {first: rational(1, 2), last: rational(1, 2)}
            if len(model.states) > 2:
                init[model.states[1]] = ZERO
            self._assert_cone_matches_full_sweep(
                FDTMC(model.states, init, model.diagram, model.transitions, model.ap, model.labels)
            )

    def test_only_the_read_states_are_returned(self, leaky_cycle):
        dense = DenseModel(leaky_cycle.system)
        sat1 = _indicators(dense, TRUE_F)
        sat2 = _indicators(dense, Atom("end"))
        lo, hi = _until_run(dense, sat1, sat2, self.EPSILON, weights=dense.init)
        assert set(lo) == set(hi) == set(dense.init)
        lo, hi = _until_run(dense, sat1, sat2, self.EPSILON)
        assert set(lo) == set(hi) == set(dense.states)


class TestScaledEdges:
    """The interval kernel's fixed-point edge table, built once per run."""

    def test_equals_per_product_divmod(self, wiper, minepump):
        rng = random.Random(17)
        models = [wiper.system, minepump.system, build_model(gen_failure_recovery(3)).system]
        models += [random_fdtmc(rng, max_states=6, max_features=3, grain=g) for g in (3, 7, 9)]
        inexact = 0
        for model in models:
            dense = DenseModel(model)
            cone = dict.fromkeys(dense.states, dense.full)
            for epsilon in (rational("1/1000"), rational("1e-9"), None):
                bits = _bits(epsilon)
                lanes = PackedLanes(dense.n, -(-(2 * bits + 16) // 8) * 8)
                table = _edge_table(dense, cone, bits, lanes)
                assert [k for k, _, _ in table] == [dense.index[s] for s in dense.sweep_order]
                for k, cone_lanes, entries in table:
                    assert lanes.unpack(cone_lanes) == [(1 << lanes.width) - 1] * dense.n
                    s = dense.states[k]
                    per_lane = [lanes.unpack(mask) for _, _, _, mask in entries]
                    for i in range(dense.n):
                        expected = _folded_row(dense, s, i, bits)
                        inexact += any(down < up for _, down, up in expected)
                        got = [entry[:3] for entry, m in zip(entries, per_lane) if m[i]]
                        assert got == expected
                        # a lane is all ones or all zeros
                        assert {m[i] for m in per_lane} <= {0, (1 << lanes.width) - 1}
        assert inexact  # some edge rounds down and up to different integers

    def test_one_entry_per_successor_and_rounded_value(self):
        # failure_recovery computes a value object per product, yet an edge
        # carries at most two distinct values
        dense = DenseModel(build_model(gen_failure_recovery(6)).system)
        bits = _bits(rational("1/1000"))
        lanes = PackedLanes(dense.n, 128)
        table = _edge_table(dense, dict.fromkeys(dense.states, dense.full), bits, lanes)
        for _, _, entries in table:
            keys = [entry[:3] for entry in entries]
            assert len(keys) == len(set(keys))
            assert len(keys) <= 2 * len({k for k, _, _ in keys})

    def test_value_groups_and_masks_match_each_product(self, minepump):
        rng = random.Random(5)
        models = [minepump.system, build_model(gen_service_provider(4)).system]
        models += [random_fdtmc(rng, max_states=5, max_features=3) for _ in range(10)]
        for model in models:
            dense = DenseModel(model)
            for s in dense.states:
                positive = [(t, vec) for t, vec in edge_vectors(model, s) if any(vec)]
                assert [t for t, _ in dense.groups[s]] == [t for t, _ in positive]
                assert dense.succ[s] == [
                    (t, sum(1 << i for i, v in enumerate(vec) if v)) for t, vec in positive
                ]
                for (_, groups), (_, vec) in zip(dense.groups[s], positive):
                    for i, v in enumerate(vec):
                        carried = [w for w, bits in groups if bits >> i & 1]
                        assert carried == ([v] if v else [])
                # the per-product lanes built from the groups are the vectors
                reads = (attrgetter("numerator"), attrgetter("denominator"), float)
                for (num, den, floats), (_, vec) in zip(dense.edge_lanes(reads)[s], positive):
                    assert [*map(rational, num, den)] == list(vec)
                    assert floats == tuple(map(float, vec))


def _run_or_error(run, *args, observe=True, **kwargs):
    """A run's result and observer history, or its ConvergenceError's
    message and worst undecided mass."""
    history = []
    if observe:
        kwargs["observer"] = lambda sweep, lo, hi: history.append((sweep, lo, hi))
    try:
        out = run(*args, **kwargs)
    except ConvergenceError as err:
        out = (str(err), err.worst_undecided)
    return out, history


class TestPackedKernel:
    """The packed interval kernel against the per-product loop it replaced
    (:func:`_reference_until_run`): equal bounds, observer histories and
    errors, bit for bit."""

    def _assert_matches_reference(self, model, max_depth=DEFAULT_MAX_DEPTH):
        dense = DenseModel(model)
        errors = 0
        for left, right in TestCone._operands(model):
            sat1 = _indicators(dense, left)
            sat2 = _indicators(dense, right)
            for epsilon in (rational("1/1000"), rational("1e-9")):
                for weights in (None, dense.init):
                    for bound in (None, 2):
                        args = (dense, sat1, sat2, epsilon, bound, max_depth, weights)
                        observe = epsilon == rational("1/1000")
                        packed = _run_or_error(_until_run, *args, observe=observe)
                        reference = _run_or_error(_reference_until_run, *args, observe=observe)
                        assert packed == reference, (left, right, epsilon, weights, bound)
                        errors += isinstance(packed[0][0], str)
        return errors

    def test_generated_and_bundled_models(self, wiper, minepump):
        for model in (
            wiper.system,
            minepump.system,
            build_model(gen_service_provider(4)).system,
            build_model(gen_failure_recovery(4)).system,
        ):
            self._assert_matches_reference(model)

    def test_criterion3_corpus(self):
        for model in itertools.islice(_criterion3_corpus(), 40):
            self._assert_matches_reference(model)

    def test_convergence_errors(self, leaky_cycle):
        # too few sweeps for 1e-9: "no convergence" with the worst mass
        for model in (leaky_cycle.system, build_model(gen_failure_recovery(3)).system):
            assert self._assert_matches_reference(model, max_depth=2)
        dense = DenseModel(build_model(gen_failure_recovery(3)).system)
        sat1 = _indicators(dense, TRUE_F)
        sat2 = _indicators(dense, Atom("failure"))
        out, _ = _run_or_error(_until_run, dense, sat1, sat2, rational("1e-9"), max_depth=2)
        assert out[0].startswith("no convergence after 2 sweeps") and out[1] > 0
        # rounding that cannot move a bound: "rounding stalled" at once
        escape = rational(1, 2**60)
        model = _chain(
            {
                ("s", "u"): 1 - 2 * escape,
                ("u", "s"): ONE,
                ("s", "goal"): escape,
                ("s", "sink"): escape,
            }
        )
        dense = DenseModel(model)
        args = (dense, _indicators(dense, TRUE_F), _indicators(dense, Atom("goal")))
        for weights in (None, dense.init):
            packed = _run_or_error(_until_run, *args, rational(1, 2), weights=weights)
            reference = _run_or_error(
                _reference_until_run, *args, rational(1, 2), weights=weights
            )
            assert packed == reference
            assert packed[0][0].startswith("rounding stalled after 1 sweeps")


def _chain(edges, init="s", guarded=None):
    """FDTMC over one feature f with absorbing ``goal`` and ``sink``:
    ``edges`` maps (state, successor) to a probability for every product,
    ``guarded`` to a (probability with f, without f) pair."""
    d = FeatureDiagram(("f",))
    transitions = {key: constant(p, d) for key, p in edges.items()}
    for key, (with_f, without_f) in (guarded or {}).items():
        transitions[key] = GuardedProfile(
            d, [(parse_feature_expression("f"), with_f)], without_f
        )
    transitions[("goal", "goal")] = constant(ONE, d)
    transitions[("sink", "sink")] = constant(ONE, d)
    states = tuple(dict.fromkeys([s for key in transitions for s in key]))
    return FDTMC(states, init, d, transitions, ("goal",), {"goal": ("goal",)})


class TestPrecision:
    """The kernel's fixed point (:func:`_bits`): the bits of top/epsilon
    plus 20, so 30 at 1e-3 for an until, where every rounded edge value
    below 1 is one 30-bit CPython digit and the lanes are 80 bits."""

    EPSILON = rational("1/1000")

    @pytest.mark.parametrize(
        "family, n, sweeps", [(gen_service_provider, 7, 16), (gen_failure_recovery, 8, 13)]
    )
    def test_generated_families(self, family, n, sweeps):
        dense = DenseModel(build_model(family(n)).system)
        bits = _bits(self.EPSILON)
        assert bits <= 30
        lanes = PackedLanes(dense.n, 80)
        table = _edge_table(dense, dict.fromkeys(dense.states, dense.full), bits, lanes)
        rounded = [(down, up) for _, _, entries in table for _, down, up, _ in entries]
        below_one = [(down, up) for down, up in rounded if down < 1 << bits]
        assert below_one and all(up < 2**30 for _, up in below_one)
        assert all(down == up == 1 << bits for down, up in rounded if down >= 1 << bits)
        history = []
        lo, hi = _until_run(
            dense,
            _indicators(dense, TRUE_F),
            _indicators(dense, Atom("failure")),
            self.EPSILON,
            weights=dense.init,
            observer=lambda sweep, lo, hi: history.append(sweep),
        )
        assert {lanes.width for _, _, lanes, _ in lo.chunks + hi.chunks} == {80}
        assert lo.denominators == [1 << bits] * dense.n
        assert len(history) == sweeps

    @staticmethod
    def _two_cycle(escape, rewards=None):
        """s -> u -> s, leaving s for goal and for sink with ``escape``
        each: ``F goal`` is 1/2, and a sweep shrinks the gap by about
        2 * escape, so 1e-3 takes about 3.45 / escape sweeps."""
        m = _chain(
            {
                ("s", "u"): 1 - 2 * escape,
                ("u", "s"): ONE,
                ("s", "goal"): escape,
                ("s", "sink"): escape,
            }
        )
        if rewards is not None:
            earned = {s: constant(ONE, m.diagram) for s in rewards}
            m = FDTMC(m.states, m.init, m.diagram, m.transitions, m.ap, m.labels, rewards=earned)
        return DenseModel(m)

    def _until_goal(self, escape):
        dense = self._two_cycle(escape)
        return _until_run(
            dense,
            _indicators(dense, TRUE_F),
            _indicators(dense, Atom("goal")),
            self.EPSILON,
            weights=dense.init,
        )

    def test_slow_cycle_stops_at_the_sweep_cap_not_on_rounding(self):
        # about 34,500 sweeps converge at 1/10**4; 1/30000 would need about
        # 103,600, so the cap of 100,000 comes before rounding could stall
        lo, hi = self._until_goal(rational(1, 10**4))
        for a, b in zip(lo["s"], hi["s"]):
            assert a <= rational(1, 2) <= b and b - a < self.EPSILON
        with pytest.raises(ConvergenceError, match="^no convergence after 100000 sweeps"):
            self._until_goal(rational(1, 30000))

    def test_a_reward_takes_the_bits_of_its_top(self):
        # one per step in s and u until goal or sink: (1 - e) / e = 9999.
        # The values reach the top, so its bits join the precision: at the
        # 30 bits of an until this run stops at the sweep cap
        escape = rational(1, 10**4)
        dense = self._two_cycle(escape, rewards=("s", "u"))
        targets = {s: dense.full if s in ("goal", "sink") else 0 for s in dense.states}
        lo, hi = bounded_expected_reward(dense, _finite_cone(dense, targets), self.EPSILON)
        assert lo.denominators[0] >= 1 << _bits(self.EPSILON, 9999)
        for a, b in zip(lo["s"], hi["s"]):
            assert a <= (1 - escape) / escape <= b and b - a < self.EPSILON


class TestLaneEdges:
    """Cases at the edge of a lane's range."""

    @pytest.mark.parametrize("exponent", [70, 90])
    def test_tiny_init_weight_widens_the_lanes(self, exponent):
        # weights 1 - 2**-e and 2**-e are 2**e - 1 and 1 over 2**e, so the
        # weighted gap needs bits + e + 1 bits: past 2*bits + 16 for both at
        # 30 bits, so past the 80-bit lanes an until would otherwise use
        tiny = rational(1, 2**exponent)
        half = rational(1, 2)
        # s returns through w, a cycle that folding leaves alone, so the
        # iteration takes more than one sweep
        model = _chain(
            {("s", "w"): half, ("w", "s"): ONE, ("u", "goal"): half, ("u", "sink"): half},
            init={"s": 1 - tiny, "u": tiny},
            guarded={
                ("s", "goal"): (rational(1, 4), rational(3, 8)),
                ("s", "sink"): (rational(1, 4), rational(1, 8)),
            },
        )
        dense = DenseModel(model)
        args = (dense, _indicators(dense, TRUE_F), _indicators(dense, Atom("goal")))
        epsilon = rational("1/1000")
        assert 2 * _bits(epsilon) + 16 < _bits(epsilon) + exponent + 1
        packed = _run_or_error(_until_run, *args, epsilon, weights=dense.init)
        reference = _run_or_error(_reference_until_run, *args, epsilon, weights=dense.init)
        assert packed == reference
        (lo, hi), history = packed
        assert [hi["s"][i] - lo["s"][i] < epsilon for i in range(2)] == [True, True]
        assert len(history) > 1

    def test_no_valid_products(self):
        model = _chain({("s", "s"): rational(1, 2), ("s", "goal"): rational(1, 2)})
        empty = FeatureDiagram(("f",), parse_feature_expression("f & !f"))
        model = FDTMC(
            model.states,
            model.init,
            empty,
            {key: constant(p.default, empty) for key, p in model.transitions.items()},
            model.ap,
            model.labels,
        )
        dense = DenseModel(model)
        args = (dense, _indicators(dense, TRUE_F), _indicators(dense, Atom("goal")))
        for weights in (None, dense.init):
            packed = _run_or_error(_until_run, *args, rational("1/1000"), weights=weights)
            reference = _run_or_error(
                _reference_until_run, *args, rational("1/1000"), weights=weights
            )
            assert packed == reference
            assert packed[0][0]["s"] == []
        assert check_family_bounded(model, "P=?(F goal)").outcomes == {}

    def test_upper_bound_stays_at_most_one_and_never_grows(self):
        # three 1/3 edges round up to more than 2**bits in total
        third = rational(1, 3)
        model = _chain(
            {("s", "s"): third, ("s", "u"): third, ("s", "goal"): third},
            guarded={
                ("u", "s"): (rational(1, 2), rational(1, 4)),
                ("u", "sink"): (rational(1, 2), rational(3, 4)),
            },
        )
        dense = DenseModel(model)
        bits = _bits(rational("1e-9"))
        assert 3 * -(-(1 << bits) // 3) > 1 << bits
        args = (dense, _indicators(dense, TRUE_F), _indicators(dense, Atom("goal")))
        for weights in (None, dense.init):
            packed = _run_or_error(_until_run, *args, rational("1e-9"), weights=weights)
            reference = _run_or_error(
                _reference_until_run, *args, rational("1e-9"), weights=weights
            )
            assert packed == reference
            _, history = packed
            previous = None
            for _, _, hi in history:
                for s in dense.states:
                    assert all(v <= 1 for v in hi[s])
                    if previous is not None:
                        assert all(a <= b for a, b in zip(hi[s], previous[s]))
                previous = hi
            assert len(history) > 2


class TestSelfLoopFold:
    """Each state's self-loop is folded out of the interval kernel's edges
    where its value l is below 1: the loop goes and every other edge is
    scaled by 1/(1 - l).  Every sweep still brackets the exact value."""

    @staticmethod
    def _exact(model, target, reward=False):
        """Per product, every state's exact value of ``F target`` or of
        ``R=?[F target]``."""
        values = []
        for p in model.diagram.valid_products():
            dtmc = project(model, p)
            goal = dtmc.states_with(target)
            values.append(
                expected_reward(dtmc, goal) if reward else until_values(dtmc, set(dtmc.states), goal)
            )
        return values

    @staticmethod
    def _goal_sets(dense):
        """The sets of ``F goal`` for a run at every state and for one at
        the initial states (:func:`until_sets`)."""
        sat1, sat2 = _indicators(dense, TRUE_F), _indicators(dense, Atom("goal"))
        return [until_sets(dense, sat1, sat2, at_init) for at_init in (False, True)]

    @staticmethod
    def _sweeps(dense, sets, exact, epsilon=rational("1/1000"), **kwargs):
        """Runs at every state and at the initial states, on the two sets of
        ``sets`` in turn, to ``epsilon`` and for a fixed three sweeps,
        asserting after every sweep that each state's interval holds its
        exact value; the sweep counts of the runs to ``epsilon``."""
        counts = []
        for at_init, run_sets in zip((False, True), sets):
            for limits in ({"epsilon": epsilon}, {"bound": 3}):
                history = []
                _family_until_run(
                    dense,
                    *run_sets,
                    at_init=at_init,
                    observer=lambda sweep, lo, hi: history.append((lo, hi)),
                    **limits,
                    **kwargs,
                )
                assert history
                if "bound" in limits:
                    assert len(history) == limits["bound"]
                for lo, hi in history:
                    for s in dense.states:
                        for i, values in enumerate(exact):
                            assert lo[s][i] <= values[s] <= hi[s][i], (s, i, limits, at_init)
                if "epsilon" in limits:
                    counts.append(len(history))
        return counts

    @staticmethod
    def _entries(dense, state, bits, rewards=None):
        """Per product, the edge-table entries of ``state`` over a cone of
        every state, as ``(successor, down, up)``."""
        lanes = PackedLanes(dense.n, -(-(2 * bits + 16) // 8) * 8)
        table = _edge_table(dense, dict.fromkeys(dense.states, dense.full), bits, lanes, rewards)
        entries = next(e for k, _, e in table if k == dense.index[state])
        per_lane = [lanes.unpack(mask) for _, _, _, mask in entries]
        return [
            [entry[:3] for entry, m in zip(entries, per_lane) if m[i]] for i in range(dense.n)
        ]

    def test_slow_self_loop_converges_in_one_sweep(self):
        # the loop keeps all but 2**-59 of the mass, which stalled the
        # rounding before; folded, goal and sink get 1/2 each
        escape = rational(1, 2**60)
        model = _chain({("s", "s"): 1 - 2 * escape, ("s", "goal"): escape, ("s", "sink"): escape})
        dense = DenseModel(model)
        exact = self._exact(model, "goal")
        assert {values["s"] for values in exact} == {rational(1, 2)}
        for epsilon in (rational(1, 2), rational("1/1000"), rational("1e-9")):
            assert self._sweeps(dense, self._goal_sets(dense), exact, epsilon=epsilon) == [1, 1]

    def test_mixed_lanes_keep_an_absorbing_loop(self):
        # s is absorbing with f and loops at 0.9 without it
        tenth = rational(1, 10)
        model = _chain(
            {("a", "s"): rational(1, 2), ("a", "goal"): rational(1, 2)},
            init="a",
            guarded={
                ("s", "s"): (ONE, 1 - tenth),
                ("s", "goal"): (ZERO, tenth / 2),
                ("s", "sink"): (ZERO, tenth / 2),
            },
        )
        dense = DenseModel(model)
        bits = _bits(rational("1/1000"))
        full = 1 << bits
        index = dense.index
        with_f = [bool(p["f"]) for p in dense.products]
        expected = {
            True: [(index["s"], full, full)],
            False: [(index["goal"], full // 2, full // 2), (index["sink"], full // 2, full // 2)],
        }
        assert self._entries(dense, "s", bits) == [expected[f] for f in with_f]
        exact = self._exact(model, "goal")
        assert [values["a"] for values in exact] == [
            rational(1, 2) if f else rational(3, 4) for f in with_f
        ]
        self._sweeps(dense, self._goal_sets(dense), exact)

    def test_reward_edge_is_scaled_by_the_loop(self):
        # a earns 2 per step and stays with 3/4 (f) or 1/2: r/(1 - l) is 8 or 4
        d = FeatureDiagram(("f",))
        f = parse_feature_expression("f")
        model = FDTMC(
            ("b", "a", "goal"),
            "b",
            d,
            {
                ("b", "a"): constant(ONE, d),
                ("a", "a"): GuardedProfile(d, [(f, rational(3, 4))], rational(1, 2)),
                ("a", "goal"): GuardedProfile(d, [(f, rational(1, 4))], rational(1, 2)),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
            rewards={"a": constant(rational(2), d), "b": constant(ONE, d)},
        )
        dense = DenseModel(model)
        bits = _bits(rational("1/1000"))
        full = 1 << bits
        index = dense.index
        with_f = [bool(p["f"]) for p in dense.products]
        rewards = {s: model.reward_profile(s) for s in dense.states}
        sink = len(dense.states)
        assert self._entries(dense, "a", bits, rewards) == [
            [(index["goal"], full, full), (sink, (8 if f else 4) * full, (8 if f else 4) * full)]
            for f in with_f
        ]
        exact = self._exact(model, "goal", reward=True)
        assert [values["b"] for values in exact] == [9 if f else 5 for f in with_f]
        cone = _finite_cone(dense, _indicators(dense, Atom("goal")))
        sets = (cone, cone, dict.fromkeys(dense.states, 0))
        self._sweeps(dense, [sets, sets], exact, rewards=rewards, top=[rational(20)] * dense.n)


class TestCorpus:
    """Every property of the bundled and of small generated models."""

    @pytest.mark.parametrize("epsilon", ["1/1000", "1e-12"])
    def test_bounded_brackets_enumerative(self, wiper, minepump, epsilon):
        models = [
            wiper,
            minepump,
            build_model(gen_service_provider(4)),
            build_model(gen_failure_recovery(4)),
        ]
        checked = 0
        for built in models:
            for text in built.properties.values():
                enum = check_family_enumerative(built.system, text)
                bounded = check_family_bounded(
                    built.system, text, epsilon=rational(epsilon)
                )
                for p, expected in enum.outcomes.items():
                    o = bounded.outcomes[p]
                    if expected.value is not None:
                        assert o.value - o.error_bound <= expected.value
                        assert expected.value <= o.value + o.error_bound
                    if o.decision != UNKNOWN:
                        assert o.decision == expected.decision, (text, str(p))
                    checked += 1
        assert checked > 100


class TestConvergenceCeiling:
    def test_depth_ceiling_reports_worst_mass(self):
        d = FeatureDiagram(("f",))

        def escape(with_f, without):
            return GuardedProfile(d, [(parse_feature_expression("f"), with_f)], without)

        # slow mixing: tiny escape probabilities out of the constrained
        # cycle s <-> u, to the goal and to a sink alike (value 1/2); without
        # f they are the same or ten times larger
        for without in (rational("0.001"), rational("0.01")):
            m = FDTMC(
                ("s", "u", "goal", "sink"),
                "s",
                d,
                {
                    ("s", "u"): escape(rational("0.998"), 1 - 2 * without),
                    ("u", "s"): constant(ONE, d),
                    ("s", "goal"): escape(rational("0.001"), without),
                    ("s", "sink"): escape(rational("0.001"), without),
                    ("goal", "goal"): constant(ONE, d),
                    ("sink", "sink"): constant(ONE, d),
                },
                ("goal",),
                {"goal": ("goal",)},
            )
            history = []
            with pytest.raises(ConvergenceError) as err:
                _until(
                    m,
                    TRUE_F,
                    Atom("goal"),
                    epsilon=rational("1e-9"),
                    max_depth=10,
                    observer=lambda sweep, lo, hi: history.append((lo, hi)),
                )
            assert err.value.worst_undecided > 0
            # the message names the product of widest interval after the last sweep
            lo, hi = history[-1]
            products = m.diagram.valid_products()
            widths = [max(hi[s][i] - lo[s][i] for s in m.states) for i in range(len(products))]
            widest = max(range(len(products)), key=widths.__getitem__)
            assert err.value.worst_undecided == widths[widest]
            assert str(err.value).endswith(f", at product {products[widest]}")
            assert widest == (0 if without == rational("0.001") else 1), products


class TestRunArguments:
    def test_neither_epsilon_nor_bound_is_a_value_error(self, minepump):
        with pytest.raises(ValueError, match="epsilon or bound"):
            _until(minepump.system, TRUE_F, Atom("methane"))

    def test_bound_alone_runs_at_64_bits(self, minepump):
        lo, hi = _until(minepump.system, TRUE_F, Atom("methane"), bound=3)
        for s in lo:
            assert all(a <= b for a, b in zip(lo[s], hi[s]))
            assert all((a * 2**64).denominator == 1 for a in lo[s])
