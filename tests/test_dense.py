"""The qualitative layer all three engines share (``engines/dense.py``)."""

import gc
import itertools
import random
import weakref

import pytest

from featmc.dsl import build_model, parse_model, print_model_file
from featmc.engines import bounded as bounded_engine, dense as dense_engine, parametric
from featmc.engines.bounded import (
    DEFAULT_MAX_DEPTH,
    _BoundedCheck,
    check_family_bounded,
    sat_states,
)
from featmc.engines.dense import (
    DenseModel,
    bounded_until_vectors,
    next_vectors,
    satisfaction,
    step_chunks,
)
from featmc.engines.enumerative import _FamilyCheck, check_family_enumerative, check_product
from featmc.engines.parametric import check_family_parametric
from featmc.features import FeatureDiagram
from featmc.generators import gen_failure_recovery, gen_service_provider
from featmc.models import FDTMC, project
from featmc.profiles import DenseProfile, GuardedProfile, Profile, constant
from featmc.properties import Next, bind_check, parse_property
from featmc.rational import INFINITY, ONE, rational
from featmc.result import UNKNOWN

from conftest import (
    edge_vectors,
    fraction_next_vectors,
    fraction_until_vectors,
    random_fdtmc,
    split_init,
)


class TestSharedWalker:
    FORMULAS = (
        "!(a & !c)",
        "P[>=0.5](F P[<0.3](X a))",
        "P[<0.5](b U P[>0.2](F a))",
        "P[>0.1](X !P[<0.5](F a))",
        "!P[<0.5](F a) & b",
        "P[>=0.5](a U<=2 !b)",
    )

    def test_exact_entries_lie_inside_bounded_ones(self):
        """The enumerative engine's entries are exact (lo == hi) and lie
        inside the bounded engine's [lo, hi]; where the bounded engine
        decided, both are the same."""
        rng = random.Random(63)
        decided = undecided = 0
        for _ in range(40):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            dense = DenseModel(m)
            for text, epsilon in itertools.product(self.FORMULAS, ("1/2", "1/1000")):
                formula = parse_property(text)
                check = _FamilyCheck(dense, float_mode=False)
                check.sat_of(formula)
                bounded = sat_states(dense, formula, rational(epsilon))
                assert bounded.keys() == check.entries.keys()
                for f, entry in bounded.items():
                    exact = check.entries[f]
                    assert exact.lo == exact.hi
                    for s in dense.states:
                        assert entry.lo[s] & ~exact.lo[s] == 0, (text, f, s)
                        assert exact.lo[s] & ~entry.hi[s] == 0, (text, f, s)
                    if entry.decided():
                        assert exact == entry
                        decided += 1
                    else:
                        undecided += 1
        assert decided and undecided


@pytest.mark.parametrize(
    "name, formula", [("wiper", "!end & fastmode"), ("minepump", "pumpOn & !methane")]
)
def test_edges_are_read_on_first_use(request, monkeypatch, name, formula):
    """Building a DenseModel and walking propositional formulas evaluates
    no profile; reading every state's per-product edge vectors evaluates
    each transition's profile once."""
    model = request.getfixturevalue(name).system
    profile_reads = []
    for cls in (GuardedProfile, DenseProfile):
        original = cls.dense_values

        def counted(self, original=original):
            profile_reads.append(self)
            return original(self)

        monkeypatch.setattr(cls, "dense_values", counted)
    dense = DenseModel(model)
    satisfaction(dense, parse_property(formula), None, {})
    assert profile_reads == []
    check_family_parametric(model, formula)  # a plain formula reads no vector
    assert profile_reads == []
    assert sum(len(edge_vectors(model, s)) for s in dense.states) == len(model.transitions)
    assert len(profile_reads) == len(model.transitions)
    assert dense.succ.keys() == dense.groups.keys() == set(model.states)
    assert len(profile_reads) == len(model.transitions)


def _count_edge_vectors(monkeypatch) -> list:
    """The profiles whose per-product vector (``Profile.dense_values``) is
    read from now on."""
    reads = []
    original = Profile.dense_values

    def counted(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(Profile, "dense_values", counted)
    return reads


@pytest.mark.parametrize("name, prop", [("wiper", "energy"), ("service4", "fail_value")])
def test_unbounded_parametric_queries_build_no_edge_vectors(request, monkeypatch, name, prop):
    """An unbounded parametric ``R=?`` or ``P=?`` solves over support
    tables and takes its cones' masks from the profiles' groups, so it
    never expands an edge to per-product vectors."""
    if name == "wiper":
        built = request.getfixturevalue("wiper")
    else:
        built = build_model(gen_service_provider(4))
    reads = _count_edge_vectors(monkeypatch)
    result = check_family_parametric(built.system, built.properties[prop])
    assert reads == []
    assert len(result.outcomes) == len(built.system.diagram.valid_products())


STEP_ENGINES = {
    "enum": check_family_enumerative,
    "enum_float": lambda model, prop: check_family_enumerative(model, prop, float_mode=True),
    "param": check_family_parametric,
    "bounded": check_family_bounded,
}


@pytest.mark.parametrize("engine", STEP_ENGINES)
@pytest.mark.parametrize(
    "prop", ["P=?(X fastmode)", "P=?(true U<=3 end)", "P=?(X P[>0.3](X fastmode))"]
)
def test_step_queries_build_no_edge_vectors(wiper, monkeypatch, engine, prop):
    """Next and step-bounded until run on the packed step kernel, which
    reads the profiles' value groups, in every engine: no per-product edge
    vector is built, and the values are the Fraction loop's."""
    expected = check_family_enumerative(wiper.system, prop)
    reads = _count_edge_vectors(monkeypatch)
    result = STEP_ENGINES[engine](wiper.system, prop)
    assert reads == []
    for product, outcome in result.outcomes.items():
        assert outcome.value == expected.outcomes[product].value
        assert outcome.error_bound in (None, 0)


def _random_bits(rng, dense):
    return {s: rng.getrandbits(dense.n) for s in dense.states}


def _with_init(model, init):
    return FDTMC(
        model.states, init, model.diagram, model.transitions, model.ap, model.labels
    )


def _primes(count):
    found, k = [], 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def distinct_primes_family():
    """Three states over six free features: from ``s`` every product steps
    to ``goal`` and to ``sink`` with 1/p and stays with (p-2)/p, each of
    the 64 products with its own prime p.  No product's denominator divides
    another's, so the step kernel runs one chunk per product."""
    d = FeatureDiagram([f"f{i}" for i in range(6)])
    primes = _primes(66)[2:]
    leave = DenseProfile(d, [rational(1, p) for p in primes])
    transitions = {
        ("s", "goal"): leave,
        ("s", "sink"): leave,
        ("s", "s"): DenseProfile(d, [rational(p - 2, p) for p in primes]),
        ("goal", "goal"): constant(ONE, d),
        ("sink", "sink"): constant(ONE, d),
    }
    return FDTMC(("s", "goal", "sink"), "s", d, transitions, ("goal",), {"goal": ("goal",)})


class TestStepKernel:
    """The packed step kernel against the Fraction loop over per-product
    edge vectors (``conftest.fraction_*``): ``==`` at every state and
    product."""

    @staticmethod
    def assert_equal(values, expected, dense):
        for s in dense.states:
            assert values[s] == expected[s], s

    @pytest.mark.parametrize("grain", [8, 3, 10, 7])
    def test_criterion3_corpus(self, grain):
        """Product-dependent operands, so ``sat1`` is not every state and
        differs per product; non-dyadic grains make D odd; k = 0 is the
        target indicator."""
        rng = random.Random(2300 + grain)
        for _ in range(25):
            m = random_fdtmc(rng, max_states=6, max_features=3, grain=grain)
            dense = DenseModel(m)
            sat1, sat2 = _random_bits(rng, dense), _random_bits(rng, dense)
            for k in (0, 1, 4, 9):
                self.assert_equal(
                    bounded_until_vectors(dense, sat1, sat2, k),
                    fraction_until_vectors(dense, sat1, sat2, k),
                    dense,
                )
            self.assert_equal(
                next_vectors(dense, sat2), fraction_next_vectors(dense, sat2), dense
            )

    def test_decided_and_undecided_nested_operands(self):
        """A nested operator the bounded engine leaves undecided gives
        different definite and possible sets; each runs the kernel."""
        rng = random.Random(2301)
        decided = undecided = 0
        texts = ("P=?(P[>0.4](F a) U<=3 b)", "P=?(X P[<0.5](F b))", "P=?(b U<=3 P[>=0.5](F a))")
        for _ in range(60):
            m = random_fdtmc(rng, max_states=6, max_features=3, grain=6)
            dense = DenseModel(m)
            for epsilon, text in itertools.product(("1/2", "9/10"), texts):
                check = _BoundedCheck(dense, rational(epsilon), DEFAULT_MAX_DEPTH)
                path = parse_property(text).path
                lo, hi = check.step_bounds(path)
                if isinstance(path, Next):
                    operand = check.sat_of(path.operand)
                    expected = [fraction_next_vectors(dense, operand.lo)]
                    expected.append(fraction_next_vectors(dense, operand.hi))
                    is_decided = operand.decided()
                else:
                    left, right = check.sat_of(path.left), check.sat_of(path.right)
                    expected = [
                        fraction_until_vectors(dense, left.lo, right.lo, 3),
                        fraction_until_vectors(dense, left.hi, right.hi, 3),
                    ]
                    is_decided = left.decided() and right.decided()
                assert (lo is hi) == is_decided
                decided += is_decided
                undecided += not is_decided
                self.assert_equal(lo, expected[0], dense)
                self.assert_equal(hi, expected[1], dense)
        assert decided and undecided

    def test_weight_zero_initial_states(self):
        """Only the initial states of positive weight count at the initial
        distribution."""
        rng = random.Random(2302)
        checked = 0
        for _ in range(20):
            m = random_fdtmc(rng, max_states=5, max_features=3, grain=5)
            if len(m.states) < 3:
                continue
            checked += 1
            first, second, third = m.states[:3]
            m = _with_init(m, {first: rational(1, 3), second: rational(2, 3), third: 0})
            dense = DenseModel(m)
            sat1, sat2 = _random_bits(rng, dense), _random_bits(rng, dense)
            expected = fraction_until_vectors(dense, sat1, sat2, 5)
            values = bounded_until_vectors(dense, sat1, sat2, 5)
            got = [*map(rational, *values.aggregate(dense.init))]
            assert got == [
                rational(1, 3) * a + rational(2, 3) * b
                for a, b in zip(expected[first], expected[second])
            ]
        assert checked

    def test_one_chunk_per_distinct_prime(self):
        """64 products whose denominators divide no other's: 64 chunks, and
        200 steps still equal the Fraction loop."""
        dense = DenseModel(distinct_primes_family())
        chunks = step_chunks(dense, 200)
        assert len(chunks) == 64 and all(len(members) == 1 for members, _ in chunks)
        sat1 = dict.fromkeys(dense.states, dense.full)
        sat2 = {s: dense.full if s == "goal" else 0 for s in dense.states}
        self.assert_equal(
            bounded_until_vectors(dense, sat1, sat2, 200),
            fraction_until_vectors(dense, sat1, sat2, 200),
            dense,
        )

    def test_divisors_fold_into_one_chunk(self, wiper, minepump):
        """A product whose denominator divides another's shares its chunk:
        every bundled model runs one chunk."""
        for built in (wiper, minepump):
            dense = DenseModel(built.system)
            ((members, _),) = step_chunks(dense, 50)
            assert members == list(range(dense.n))

    def test_denominator_classes_are_walked_once(self, wiper):
        """A nested X under a top-level X runs the kernel twice, but the
        groups are walked for denominators once per model; the values are
        the per-chain reference's."""

        class Walks(dict):
            count = 0

            def values(self):
                self.count += 1
                return super().values()

        dense = DenseModel(wiper.system)
        dense.groups = Walks(dense.groups)
        prop = parse_property("P=?(X P[>0.3](X fastmode))")
        outcomes = _FamilyCheck(dense, False).outcomes(prop)
        assert dense.groups.count == 1
        for outcome in outcomes:
            expected = check_product(project(wiper.system, outcome.product), prop)
            assert outcome.value == expected.value
        assert len({o.value for o in outcomes}) > 1

    @pytest.mark.parametrize("budget", [1, 40])
    def test_chunks_split_at_the_byte_budget(self, monkeypatch, budget):
        """A budget below the lanes of a whole chunk splits it, into single
        products at the extreme; the values do not change."""
        monkeypatch.setattr(dense_engine, "STEP_CHUNK_BYTES", budget)
        rng = random.Random(2303)
        split = 0
        for _ in range(15):
            m = random_fdtmc(rng, max_states=5, max_features=3, grain=10)
            dense = DenseModel(m)
            sat1, sat2 = _random_bits(rng, dense), _random_bits(rng, dense)
            split += len(step_chunks(dense, 6)) > 1
            self.assert_equal(
                bounded_until_vectors(dense, sat1, sat2, 6),
                fraction_until_vectors(dense, sat1, sat2, 6),
                dense,
            )
        assert split


@pytest.mark.parametrize("engine", ["enum", "param", "bounded"])
def test_a_checked_model_dies_without_the_collector(engine):
    """Parsing, building and checking leave no reference cycle: with the
    cyclic collector off, the dense model, a built component and the
    checked property are freed as soon as the last reference goes."""
    text = print_model_file(gen_service_provider(4))
    prop = parse_property("P[<0.5](X P[>0.1](F failure))")
    dense_models = []
    original = DenseModel.__init__

    def init(self, model):
        dense_models.append(weakref.ref(self))
        original(self, model)

    enabled = gc.isenabled()
    gc.disable()
    try:
        DenseModel.__init__ = init
        built = parse_model(text)
        component = weakref.ref(next(iter(built.components.values())))
        checked = weakref.ref(prop)
        STEP_ENGINES[engine](built.system, prop)
        del built, prop
        assert len(dense_models) == 1
        assert dense_models[0]() is None
        assert component() is None
        assert checked() is None
    finally:
        DenseModel.__init__ = original
        if enabled:
            gc.enable()


class TestSplitInitialDistribution:
    """Every engine answers at an initial distribution of several states,
    one of them of weight 0: the shared answer layer aggregates each
    engine's values at the initial states."""

    PROPERTIES = (
        "P=?(F a)",
        "P[>=0.3](!c U a)",
        "R=?[F a]",
        "P=?(X a)",
        "P=?(F P[<0.5](!c U a))",
    )

    def test_every_engine_agrees(self):
        rng = random.Random(71)
        changed = infinite = 0
        for k in range(30):
            model = random_fdtmc(rng, max_states=7, max_features=3, with_rewards=True)
            split = split_init(model, k)
            for text in self.PROPERTIES:
                single = check_family_enumerative(model, text).outcomes
                for m in (model, split):
                    exact = check_family_enumerative(m, text).outcomes
                    floats = check_family_enumerative(m, text, float_mode=True).outcomes
                    param = check_family_parametric(m, text).outcomes
                    bounded = check_family_bounded(m, text).outcomes
                    for p, e in exact.items():
                        assert param[p].value == e.value
                        assert param[p].decision == e.decision
                        f = floats[p].value
                        assert f == e.value or abs(f - e.value) <= 1e-12 * abs(e.value)
                        b = bounded[p]
                        assert (b.value == INFINITY) == (e.value == INFINITY)
                        assert b.value - b.error_bound <= e.value <= b.value + b.error_bound
                        assert b.decision in (e.decision, UNKNOWN)
                changed += any(exact[p].value != o.value for p, o in single.items())
                infinite += [o.value for o in exact.values()].count(INFINITY)
        assert changed >= 40 and infinite >= 15


#: A chain whose values are its thresholds: ``P(F goal)`` is 1/2 on the
#: products with f and 1/4 on the others, reached through a self-loop of a
#: (1/2 with g, 3/4 without) and so solved, not read off an edge.  Every
#: value is dyadic, so float64 and the interval kernel's fixed point hold
#: it exactly.
ON_THE_BOUND = """
features f g;

fdtmc Edge {
  states a goal sink;
  init a;
  label goal: goal;
  label sink: sink;

  a -> a    : [g] 1/2, 3/4;
  a -> goal : [f & g] 1/4, [f] 1/8, [g] 1/8, 1/16;
  a -> sink : [f & g] 1/4, [f] 1/8, [g] 3/8, 3/16;
  goal -> goal : 1;
  sink -> sink : 1;
}

system = Edge;
"""


class TestThresholdOnTheValue:
    """A threshold that equals the exact value is decided exactly in every
    engine, exact and float: the answer layer compares integers, so no
    rounding moves a value across its bound."""

    QUERIES = (
        "P[>=0.5](F goal)",
        "P[>0.5](F goal)",
        "P[<=0.5](F goal)",
        "P[<0.5](F goal)",
        "P[0.25,0.5](F goal)",
        "P[>=0.25](F goal)",
        "P[<0.25](F goal)",
        "P[>=1/2](X P[>=0.5](F goal))",
        "P[<=0.25](P[>=0.5](F goal) U<=3 goal)",
    )

    @staticmethod
    def reference(model, prop, float_mode=False):
        """Per product, the per-chain check's verdict: ``Interval.contains``
        on the exact value (on the float64 value in float mode)."""
        return {
            p: check_product(project(model, p), prop, float_mode).decision
            for p in model.diagram.valid_products()
        }

    @pytest.mark.parametrize("engine", STEP_ENGINES)
    @pytest.mark.parametrize("text", QUERIES)
    def test_dyadic_values_on_the_bound(self, engine, text):
        model = parse_model(ON_THE_BOUND).system
        prop = parse_property(text)
        expected = self.reference(model, prop)
        result = STEP_ENGINES[engine](model, prop)
        assert {p: o.decision for p, o in result.outcomes.items()} == expected

    def test_values_sit_on_the_bounds(self):
        model = parse_model(ON_THE_BOUND).system
        for engine in STEP_ENGINES.values():
            outcomes = engine(model, "P=?(F goal)").outcomes.values()
            assert sorted(o.value for o in outcomes) == [0.25, 0.25, 0.5, 0.5]

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_non_dyadic_values_on_the_bound(self, float_mode):
        """At 1/10 and 3/10 the exact engines decide on the exact value, and
        float mode on its float64 value (the float nearest 1/10 lies above
        it); the bounded engine's interval straddles them, so it may stay
        unknown but never decides wrongly."""
        text = ON_THE_BOUND.replace("[f & g] 1/4, [f] 1/8, [g] 1/8, 1/16", "[f & g] 1/20, [f] 1/40, [g] 3/20, 3/40")
        text = text.replace("[f & g] 1/4, [f] 1/8, [g] 3/8, 3/16", "[f & g] 9/20, [f] 9/40, [g] 7/20, 7/40")
        model = parse_model(text).system
        exact = {o.value for o in check_family_enumerative(model, "P=?(F goal)").outcomes.values()}
        assert exact == {rational(1, 10), rational(3, 10)}
        floats = 0
        for bound, op in itertools.product(("0.1", "0.3"), ("<", "<=", ">", ">=")):
            prop = parse_property(f"P[{op}{bound}](F goal)")
            expected = self.reference(model, prop, float_mode)
            got = check_family_enumerative(model, prop, float_mode).outcomes
            assert {p: o.decision for p, o in got.items()} == expected
            if not float_mode:
                got = check_family_parametric(model, prop).outcomes
                assert {p: o.decision for p, o in got.items()} == expected
                for p, o in check_family_bounded(model, prop).outcomes.items():
                    assert o.decision in (expected[p], UNKNOWN)
            floats += expected != self.reference(model, prop)
        # float64 decides some thresholds on the other side of 1/10 or 3/10
        assert bool(floats) == float_mode


class TestOneSystem:
    """Both exact engines solve one system (``SystemCheck``): a solved
    operator makes one ``solve_linear`` call on the same unknowns, lanes
    per product in the enumerative engine and support tables in the
    parametric one.  The bounded engine's interval kernel sweeps the same
    sets: the answer layer builds them once for all three engines."""

    @staticmethod
    def _unknowns(monkeypatch, run, model, prop) -> list[set]:
        """The unknowns of every family solve of one check, in call order."""
        calls = []
        original = dense_engine.solve_linear

        def recorded(unknowns, rows, *args, **kwargs):
            calls.append(set(unknowns))
            return original(unknowns, rows, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dense_engine, "solve_linear", recorded)
            run(model, prop)
        return calls

    def _same_unknowns(self, monkeypatch, model, prop) -> list[set]:
        enum = self._unknowns(monkeypatch, check_family_enumerative, model, prop)
        param = self._unknowns(monkeypatch, check_family_parametric, model, prop)
        assert enum == param, prop
        return enum

    @staticmethod
    def _sets(monkeypatch, owner, name, run) -> list[tuple]:
        """The ``(unknown, kept, to_sink)`` arguments of every call of
        ``owner.name`` (after ``self`` or the dense model) during ``run()``,
        in call order."""
        calls = []
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(args[1:4])
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, recorded)
            run()
        return calls

    def _same_sets(self, monkeypatch, model, prop):
        """Every interval kernel run of a bounded check at 1e-3 gets the
        sets of the exact engines' solve of the same operator, in the same
        order.  The check decides every nested operator, so it runs on no
        possible set."""
        exact = self._sets(
            monkeypatch,
            dense_engine.SystemCheck,
            "solve",
            lambda: check_family_enumerative(model, prop),
        )
        check = _BoundedCheck(DenseModel(model), rational("1/1000"), DEFAULT_MAX_DEPTH)
        bounded = self._sets(
            monkeypatch,
            bounded_engine,
            "_family_until_run",
            lambda: check.outcomes(bind_check(prop, model.ap)),
        )
        assert all(entry.decided() for entry in check.entries.values()), prop
        assert bounded == exact, prop

    def test_random_corpus(self, monkeypatch):
        """An unbounded until, its threshold, a nested until (solved at every
        undecided state) under an outer one, and an expected reward."""
        rng = random.Random(34)
        queries = ("P=?(!c U a)", "P[<0.5](!c U a)", "P=?(b U P[>0.3](!c U a))", "R=?[F a]")
        solves = dict.fromkeys(queries, 0)
        for _ in range(120):
            model = random_fdtmc(rng, max_states=6, max_features=4, with_rewards=True)
            for prop in queries:
                solves[prop] += len(self._same_unknowns(monkeypatch, model, prop))
                self._same_sets(monkeypatch, model, prop)
        assert min(solves.values()) >= 5

    @pytest.mark.parametrize("family", [gen_service_provider, gen_failure_recovery])
    def test_generated_families(self, monkeypatch, family):
        """service and failure at n=4; they carry no reward, so the reward
        query runs on wiper."""
        model = build_model(family(4)).system
        for prop, calls in (
            ("P=?(F failure)", 1),
            ("P[<0.5](F failure)", 1),
            ("P=?(F P[>0.5](F failure))", 2),
        ):
            assert len(self._same_unknowns(monkeypatch, model, prop)) == calls
            self._same_sets(monkeypatch, model, prop)

    def test_reward(self, wiper, monkeypatch):
        assert len(self._same_unknowns(monkeypatch, wiper.system, "R=?[F end]")) == 1
        self._same_sets(monkeypatch, wiper.system, "R=?[F end]")

    @pytest.mark.parametrize("name, query", [("minepump", "risk_value"), ("wiper", "finishes")])
    def test_decided_parametric_query_solves_nothing(self, request, monkeypatch, name, query):
        """The partition decides every state and product, so the parametric
        engine, like the enumerative one, solves nothing and builds no
        table; its values are the enumerative engine's."""
        built = request.getfixturevalue(name)
        prop = built.property_of(query)
        calls = []

        def forbidden(label):
            def record(*args, **kwargs):
                calls.append(label)

            return record

        expected = check_family_enumerative(built.system, prop).outcomes
        monkeypatch.setattr(dense_engine, "solve_linear", forbidden("solve_linear"))
        monkeypatch.setattr(parametric, "profile_table", forbidden("profile_table"))
        result = check_family_parametric(built.system, prop)
        assert calls == []
        assert {p: (o.value, o.decision) for p, o in result.outcomes.items()} == {
            p: (o.value, o.decision) for p, o in expected.items()
        }
