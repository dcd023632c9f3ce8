import random

import pytest

from featmc import models
from featmc.errors import ModelError, NondeterminismError
from featmc.dsl import build_model
from featmc.features import FeatureDiagram, Product, TRUE, parse_feature_expression
from featmc.generators import gen_failure_recovery
from featmc.models import (
    FDTMC,
    FMDP,
    FTS,
    ActionLabel,
    as_fdtmc,
    complete_deterministic,
    fdtmc_as_fmdp,
    fts_to_fmdp,
    is_complete,
    observer_product,
    path_probability,
    project,
    project_fmdp,
    sync_product,
    validate_fdtmc,
    validate_fmdp,
)
from featmc.profiles import GuardedProfile, constant, to_dense
from featmc.rational import ONE, ZERO, rational

from conftest import equals_pointwise, random_complete_fmdp


D1 = FeatureDiagram(("f",))


def _profile(diagram, *cases, default=ZERO):
    parsed = [(parse_feature_expression(g), rational(v)) for g, v in cases]
    return GuardedProfile(diagram, parsed, default)


def simple_chain(diagram=D1):
    """Two-state chain: a -> b with f-dependent probability, b absorbing."""
    transitions = {
        ("a", "b"): _profile(diagram, ("f", "0.5"), default=rational("0.8")),
        ("a", "a"): _profile(diagram, ("f", "0.5"), default=rational("0.2")),
        ("b", "b"): constant(ONE, diagram),
    }
    return FDTMC(
        ("a", "b"), "a", diagram, transitions, ("goal",), {"b": ("goal",)}
    )


class TestValidation:
    def test_wiper_rows_sum_to_one(self, wiper):
        assert validate_fdtmc(wiper.system).ok

    def test_single_selfloop_state(self):
        d = FeatureDiagram(())
        m = FDTMC(("s",), "s", d, {("s", "s"): constant(ONE, d)})
        assert validate_fdtmc(m).ok

    def test_seeded_mutation_reports_state_and_products(self):
        m = simple_chain()
        broken = dict(m.transitions)
        broken[("a", "b")] = _profile(D1, ("f", "0.6"), default=rational("0.8"))
        bad = FDTMC(m.states, "a", D1, broken, m.ap, m.labels)
        report = validate_fdtmc(bad)
        assert not report.ok
        assert len(report.violations) == 1
        state, product, total = report.violations[0]
        assert state == "a"
        assert product["f"] is True
        assert total == rational("1.1")


class TestProjection:
    def test_wiper_base_product(self, wiper):
        base = wiper.diagram.valid_products()[0]
        dtmc = project(wiper.system, base)
        assert dtmc.transitions[("off", "on")] == rational("0.8")
        assert ("off", "fast") not in dtmc.transitions  # probability zero dropped
        assert dtmc.rewards["on"] == 3
        assert dtmc.validate().ok

    def test_single_product_diagram_collapses_profiles(self):
        d = FeatureDiagram(())
        m = FDTMC(
            ("a", "b"),
            "a",
            d,
            {
                ("a", "b"): constant(rational("0.3"), d),
                ("a", "a"): constant(rational("0.7"), d),
                ("b", "b"): constant(ONE, d),
            },
        )
        dtmc = project(m, d.valid_products()[0])
        assert dtmc.transitions[("a", "b")] == rational("0.3")

    def test_minepump_ventilation(self, minepump):
        methane = minepump.components["Methane"]
        ventilated = next(
            p for p in minepump.diagram.valid_products()
            if p["V"] and not p["W"] and not p["A"]
        )
        dtmc = project(methane, ventilated.restrict(("W", "A", "V")))
        assert dtmc.transitions[("methane", "no_methane")] == rational("0.9")


class TestPathProbability:
    def test_singleton(self):
        m = simple_chain()
        assert equals_pointwise(path_probability(m, ["a"]), constant(ONE, D1))

    def test_two_step_product(self):
        m = simple_chain()
        p = path_probability(m, ["a", "a", "b"])
        base = Product(("f",), (False,))
        assert p.evaluate(base) == rational("0.2") * rational("0.8")

    def test_wiper_light_rain(self, wiper):
        profile = path_probability(wiper.system, ["off", "on"])
        two_speed = Product(("spd2", "very", "eco"), (True, False, False))
        assert profile.evaluate(two_speed) == rational("0.5")

    def test_missing_transition(self):
        m = simple_chain()
        with pytest.raises(ModelError, match="not a transition"):
            path_probability(m, ["b", "a"])


class TestFmdpBasics:
    def test_fdtmc_viewed_as_fmdp_is_complete(self):
        m = fdtmc_as_fmdp(simple_chain())
        assert is_complete(m)
        assert validate_fmdp(m).ok

    def test_disabled_action_is_consistent_not_complete(self):
        d = FeatureDiagram(())
        transitions = {
            ("a", ActionLabel("go"), "a"): constant(ONE, d),
            # action "stop" exists only in state b
            ("b", ActionLabel("stop"), "b"): constant(ONE, d),
            ("b", ActionLabel("go"), "b"): constant(ONE, d),
        }
        m = FMDP(("a", "b"), "a", d, transitions)
        assert validate_fmdp(m).ok
        assert not is_complete(m)

    def test_inconsistent_row_reported(self):
        d = FeatureDiagram(())
        m = FMDP(
            ("a",),
            "a",
            d,
            {("a", ActionLabel("go"), "a"): constant(rational("0.7"), d)},
        )
        report = validate_fmdp(m)
        assert not report.ok
        state, action, obs, product, total = report.violations[0]
        assert (state, action, total) == ("a", "go", rational("0.7"))

    def test_as_fdtmc_round_trip(self):
        m = simple_chain()
        assert validate_fdtmc(as_fdtmc(fdtmc_as_fmdp(m))).ok

    def test_as_fdtmc_rejects_incomplete(self):
        d = FeatureDiagram(())
        m = FMDP(
            ("a", "b"),
            "a",
            d,
            {("a", ActionLabel("t"), "a"): constant(ONE, d)},
        )
        with pytest.raises(ModelError, match="not complete"):
            as_fdtmc(m)

    def test_completion_rejects_a_half_row(self):
        d = FeatureDiagram(())
        m = FMDP(("a",), "a", d, {("a", ActionLabel("t"), "a"): constant(rational(1, 2), d)})
        with pytest.raises(
            ModelError,
            match=r"^state a, action t: row sums to 1/2, "
            "cannot complete a non-deterministic-profile row$",
        ):
            complete_deterministic(m)

    def test_rows_are_totalled_once(self, monkeypatch):
        """Completion reads the totals the FTS check summed, and chain
        validation the totals ``as_fdtmc`` summed for its completeness check."""
        controller = fts_to_fmdp(TestFts()._controller())
        chain = as_fdtmc(fdtmc_as_fmdp(simple_chain()))

        def forbidden(*args):
            raise AssertionError("a row was totalled twice")

        monkeypatch.setattr(models, "row_total", forbidden)
        completed = complete_deterministic(controller)
        assert validate_fdtmc(chain).ok
        monkeypatch.undo()
        assert is_complete(completed)

    def test_as_fdtmc_rejects_two_actions(self):
        d = FeatureDiagram(())
        m = FMDP(
            ("a",),
            "a",
            d,
            {
                ("a", ActionLabel("t"), "a"): constant(ONE, d),
                ("a", ActionLabel("u"), "a"): constant(ONE, d),
            },
        )
        with pytest.raises(ModelError, match="single action"):
            as_fdtmc(m)


class TestFts:
    def _controller(self):
        d = FeatureDiagram(("W",))
        transitions = {
            ("ready", ActionLabel("go", parse_feature_expression("high")), "run"):
                parse_feature_expression("W"),
        }
        return FTS(("ready", "run"), "ready", d, transitions)

    def test_guard_becomes_indicator(self):
        m = fts_to_fmdp(self._controller())
        profile = m.transitions[
            ("ready", ActionLabel("go", parse_feature_expression("high")), "run")
        ]
        assert list(to_dense(profile).values) == [0, 1]

    def test_completion_adds_selfloops(self):
        m = complete_deterministic(fts_to_fmdp(self._controller()))
        assert is_complete(m)
        # product without W stays in ready whatever it observes
        no_w = Product(("W",), (False,))
        loops = [
            key
            for key in m.transitions
            if key[0] == "ready" and key[2] == "ready"
        ]
        assert loops

    def test_nondeterminism_rejected(self):
        d = FeatureDiagram(("W",))
        transitions = {
            ("s", ActionLabel("go"), "a"): parse_feature_expression("W"),
            ("s", ActionLabel("go"), "b"): parse_feature_expression("true"),
        }
        fts = FTS(("s", "a", "b"), "s", d, transitions)
        with pytest.raises(NondeterminismError):
            fts_to_fmdp(fts)

    def test_fts_without_features_is_product_independent(self):
        d = FeatureDiagram(("W",))
        transitions = {
            ("s", ActionLabel("go"), "t"): TRUE,
            ("t", ActionLabel("go"), "t"): TRUE,
        }
        m = fts_to_fmdp(FTS(("s", "t"), "s", d, transitions))
        for (_, _, _), profile in m.transitions.items():
            assert len(set(to_dense(profile).values)) == 1


class TestSyncProduct:
    def test_complete_times_complete_is_complete(self):
        rng = random.Random(1)
        m1 = random_complete_fmdp(rng, "x", ("a1",))
        m2 = random_complete_fmdp(rng, "y", ("b1",))
        assert is_complete(sync_product(m1, m2, prune=False))

    def test_minepump_one_thirtysecond(self, minepump):
        plant = sync_product(
            fdtmc_as_fmdp(minepump.components["Methane"]),
            minepump.components["Water"],
            prune=False,
        )
        # from (no_methane, normal) with the pump off: methane appears with
        # 1/8 while the water rises with 1/4
        total = ZERO
        source = ("no_methane", "normal")
        target = ("methane", "high")
        no_pump = Product(("W", "A", "V"), (False, False, False))
        for (s, label, t), profile in plant.transitions.items():
            if s == source and t == target:
                if label.obs.evaluate({"pumpOn": False}):
                    total += profile.evaluate(no_pump)
        assert total == rational(1, 32)

    def test_unit_component(self):
        m = fdtmc_as_fmdp(simple_chain())
        d0 = FeatureDiagram(())
        unit = FMDP(
            ("u",), "u", d0, {("u", ActionLabel("tick"), "u"): constant(ONE, d0)}
        )
        composed = sync_product(m, unit)
        assert {s for s, _ in composed.states} <= set(m.states)
        assert is_complete(composed)
        base = Product(("f",), (True,))
        original = project_fmdp(m, base)
        projected = project_fmdp(composed, base.restrict(("f",)))
        values = {
            (s[0], t[0]): profile.evaluate(Product((), ()))
            for (s, _, t), profile in projected.transitions.items()
        }
        for (s, label, t), profile in original.transitions.items():
            assert values[(s, t)] == profile.evaluate(Product((), ()))

    def test_overlapping_propositions_rejected(self):
        rng = random.Random(2)
        m1 = random_complete_fmdp(rng, "x", ("shared",))
        m2 = random_complete_fmdp(rng, "y", ("shared",))
        with pytest.raises(ModelError, match="overlapping"):
            sync_product(m1, m2)


def _reached_by_some_product(m: FMDP) -> set:
    """Brute force: the states some product's projection reaches with
    positive probability, by a depth-first search per product."""
    reached = set()
    for product in m.diagram.valid_products():
        chain = project_fmdp(m, product)
        succ = {}
        for (s, _, t), profile in chain.transitions.items():
            if profile.evaluate(Product((), ())) > 0:
                succ.setdefault(s, set()).add(t)
        seen = {s for s, w in chain.init.items() if w > 0}
        stack = list(seen)
        while stack:
            for t in succ.get(stack.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reached |= seen
    return reached


class TestPruning:
    @pytest.mark.parametrize("compose", [sync_product, observer_product])
    def test_keeps_exactly_the_states_some_product_reaches(self, compose):
        rng = random.Random(12)
        pruned_any = False
        for _ in range(30):
            m1 = random_complete_fmdp(rng, "x", ("a1", "a2"), max_states=4)
            m2 = random_complete_fmdp(
                rng, "y", ("b1",), foreign_propositions=("a1", "a2"),
                max_states=4, single_action=compose is observer_product,
            )
            full = compose(m1, m2, prune=False)
            pruned = compose(m1, m2)
            expected = _reached_by_some_product(full)
            assert set(pruned.states) == expected
            assert {k: p.dense_values() for k, p in pruned.transitions.items()} == {
                (s, label, t): profile.dense_values()
                for (s, label, t), profile in full.transitions.items()
                if s in expected and t in expected
            }
            pruned_any |= len(expected) < len(full.states)
        assert pruned_any

    @pytest.mark.parametrize("compose", [sync_product, observer_product])
    def test_reachability_is_per_product(self, compose):
        # b is reached only with f and leaves for c only without f, so no
        # single product reaches c, though the union of the edges does
        tick = ActionLabel("tick")
        m1 = FMDP(("a", "b", "c"), "a", D1, {
            ("a", tick, "b"): _profile(D1, ("f", "1")),
            ("a", tick, "a"): _profile(D1, ("f", "0"), default=ONE),
            ("b", tick, "c"): _profile(D1, ("f", "0"), default=ONE),
            ("b", tick, "b"): _profile(D1, ("f", "1")),
            ("c", tick, "c"): constant(ONE, D1),
        })
        d0 = FeatureDiagram(())
        unit = FMDP(("u",), "u", d0, {("u", ActionLabel("r"), "u"): constant(ONE, d0)})
        assert compose(m1, unit).states == (("a", "u"), ("b", "u"))

    def test_zero_weight_initial_state_is_pruned_from_init(self):
        d0 = FeatureDiagram(())
        loop = constant(ONE, d0)
        m1 = FMDP(
            ("a", "b"), {"a": ONE, "b": ZERO}, d0,
            {("a", ActionLabel("tick"), "a"): loop, ("b", ActionLabel("tick"), "b"): loop},
        )
        m2 = FMDP(("u",), "u", d0, {("u", ActionLabel("tick"), "u"): loop})
        composed = sync_product(m1, m2)
        assert composed.states == (("a", "u"),)
        assert composed.init == {("a", "u"): ONE}


class TestConstructorChecks:
    def test_fdtmc_rejects_reward_on_unknown_state(self):
        m = simple_chain()
        with pytest.raises(ModelError, match="unknown state"):
            FDTMC(m.states, "a", D1, m.transitions, m.ap, m.labels,
                  {"c": constant(ONE, D1)})

    def test_fdtmc_rejects_reward_over_foreign_diagram(self):
        # read by position, the foreign column would give both products 0
        m = simple_chain()
        foreign = FeatureDiagram(("g", "h"))
        with pytest.raises(ModelError, match="foreign diagram"):
            FDTMC(m.states, "a", D1, m.transitions, m.ap, m.labels,
                  {"a": _profile(foreign, ("g", "5"))})

    def test_fmdp_rejects_duplicate_states(self):
        d0 = FeatureDiagram(())
        with pytest.raises(ModelError, match="duplicate states"):
            FMDP(("s", "s"), "s", d0, {})

    def test_fmdp_rejects_initial_state_outside_its_states(self):
        d0 = FeatureDiagram(())
        with pytest.raises(ModelError, match="not in state set"):
            FMDP(("s",), "t", d0, {})


class TestSharedValues:
    @pytest.mark.parametrize("name", ["minepump", "failure"])
    def test_computed_profiles_hold_one_object_per_value(self, name, minepump):
        # composition and row completion compute dense profiles; each must
        # hand the same object to every product that carries a value
        if name == "minepump":
            system = minepump.system
        else:
            system = build_model(gen_failure_recovery(4)).system
        computed = [
            to_dense(p) for p in system.transitions.values()
            if not isinstance(p, GuardedProfile)
        ]
        assert computed
        for profile in computed:
            assert len(set(map(id, profile.values))) == len(set(profile.values))


class TestObserverProduct:
    def test_requires_complete_observer(self):
        rng = random.Random(3)
        m1 = random_complete_fmdp(rng, "x", ("a1",))
        d0 = FeatureDiagram(())
        incomplete = FMDP(
            ("o", "p"),
            "o",
            d0,
            {("o", ActionLabel("r", parse_feature_expression("a1")), "p"): constant(ONE, d0)},
        )
        with pytest.raises(ModelError, match="complete"):
            observer_product(m1, incomplete)

    def test_complete_pair_gives_complete(self):
        rng = random.Random(4)
        for _ in range(5):
            m1 = random_complete_fmdp(rng, "x", ("a1", "a2"))
            m2 = random_complete_fmdp(
                rng, "y", ("b1",), foreign_propositions=("a1", "a2"),
                single_action=True,
            )
            assert is_complete(observer_product(m1, m2, prune=False))

    def test_observer_reads_successor_labels(self):
        # a deterministic observee alternates labels; the observer copies
        # the label it sees, which is the observee's *next* state
        d0 = FeatureDiagram(())
        observee = FMDP(
            ("e", "o"),
            "e",
            d0,
            {
                ("e", ActionLabel("tick"), "o"): constant(ONE, d0),
                ("o", ActionLabel("tick"), "e"): constant(ONE, d0),
            },
            ("lit",),
            {"o": ("lit",)},
        )
        observer = FMDP(
            ("dark", "bright"),
            "dark",
            d0,
            {
                ("dark", ActionLabel("r", parse_feature_expression("lit")), "bright"): constant(ONE, d0),
                ("dark", ActionLabel("r", parse_feature_expression("!lit")), "dark"): constant(ONE, d0),
                ("bright", ActionLabel("r", parse_feature_expression("lit")), "bright"): constant(ONE, d0),
                ("bright", ActionLabel("r", parse_feature_expression("!lit")), "dark"): constant(ONE, d0),
            },
        )
        composed = observer_product(observee, observer)
        # from (e, dark): the observee moves to "o" (lit), so the observer
        # must move to "bright" in the same step
        successors = {
            t for (s, _, t), profile in composed.transitions.items()
            if s == ("e", "dark") and any(v > 0 for v in profile.dense_values())
        }
        assert successors == {("o", "bright")}


class TestProjectionDistributivity:
    @pytest.mark.parametrize("seed", range(8))
    def test_sync(self, seed):
        rng = random.Random(seed)
        m1 = random_complete_fmdp(rng, "x", ("a1",))
        m2 = random_complete_fmdp(rng, "y", ("b1",), foreign_propositions=("a1",))
        composed = sync_product(m1, m2, prune=False)
        for p in composed.diagram.valid_products():
            left = project_fmdp(composed, p)
            right = sync_product(
                project_fmdp(m1, p.restrict(m1.diagram.signature)),
                project_fmdp(m2, p.restrict(m2.diagram.signature)),
                prune=False,
            )
            assert _transition_values(left) == _transition_values(right)

    @pytest.mark.parametrize("seed", range(8))
    def test_observer(self, seed):
        rng = random.Random(100 + seed)
        m1 = random_complete_fmdp(rng, "x", ("a1", "a2"))
        m2 = random_complete_fmdp(
            rng, "y", ("b1",), foreign_propositions=("a1", "a2"), single_action=True
        )
        composed = observer_product(m1, m2, prune=False)
        for p in composed.diagram.valid_products():
            left = project_fmdp(composed, p)
            right = observer_product(
                project_fmdp(m1, p.restrict(m1.diagram.signature)),
                project_fmdp(m2, p.restrict(m2.diagram.signature)),
                prune=False,
            )
            assert _transition_values(left) == _transition_values(right)


def _transition_values(m: FMDP):
    empty = Product((), ())
    out = {}
    for (s, label, t), profile in m.transitions.items():
        value = profile.evaluate(empty)
        if value != 0:
            key = (s, label.name, label.obs, t)
            out[key] = out.get(key, ZERO) + value
    return out


def test_as_fdtmc_of_composition_validates():
    rng = random.Random(99)
    for _ in range(5):
        m1 = random_complete_fmdp(rng, "x", ("a1",), single_action=True)
        m2 = random_complete_fmdp(rng, "y", ("b1",), single_action=True)
        # share the single action name so the product stays single-action
        def rename(m):
            renamed = {
                (s, ActionLabel("tick", label.obs), t): profile
                for (s, label, t), profile in m.transitions.items()
            }
            return FMDP(m.states, m.init, m.diagram, renamed, m.ap, m.labels)

        composed = sync_product(rename(m1), rename(m2))
        chain = as_fdtmc(composed)
        assert validate_fdtmc(chain).ok


def test_as_fdtmc_rejects_unresolved_observation_guards():
    d = FeatureDiagram(())
    m = FMDP(
        ("a",),
        "a",
        d,
        {
            ("a", ActionLabel("tick", parse_feature_expression("ext")), "a"):
                constant(ONE, d),
        },
    )
    with pytest.raises(ModelError, match="unresolved observation guard"):
        as_fdtmc(m)


def test_observer_of_constant_labels_sees_a_constant_stream():
    # the observee never changes its labels, so the observer's behaviour
    # reduces to whatever its reaction to that fixed observation is
    d0 = FeatureDiagram(())
    observee = FMDP(
        ("e",),
        "e",
        d0,
        {("e", ActionLabel("tick"), "e"): constant(ONE, d0)},
        ("lit",),
        {"e": ("lit",)},
    )
    observer = FMDP(
        ("p", "q"),
        "p",
        d0,
        {
            ("p", ActionLabel("r", parse_feature_expression("lit")), "q"): constant(ONE, d0),
            ("p", ActionLabel("r", parse_feature_expression("!lit")), "p"): constant(ONE, d0),
            ("q", ActionLabel("r", parse_feature_expression("lit")), "q"): constant(ONE, d0),
            ("q", ActionLabel("r", parse_feature_expression("!lit")), "p"): constant(ONE, d0),
        },
    )
    composed = observer_product(observee, observer)
    chain = as_fdtmc(composed)
    # driven by the constant "lit" stream the observer marches to q and stays
    assert equals_pointwise(
        chain.transitions[(("e", "p"), ("e", "q"))], constant(ONE, chain.diagram)
    )
    assert equals_pointwise(
        chain.transitions[(("e", "q"), ("e", "q"))], constant(ONE, chain.diagram)
    )
