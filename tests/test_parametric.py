import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from featmc.engines import parametric
from featmc.engines.enumerative import check_family_enumerative
from featmc.engines.parametric import (
    TABLE_ONE,
    MultilinearPolynomial,
    SupportTable,
    _closure,
    _TableCheck,
    check_family_parametric,
    interpolate_family,
    poly_to_text,
    profile_table,
    property_function,
    rf_to_text,
)
from featmc import dsl, generators
from featmc.cli import bundled_model_path, main
from featmc.engines.bounded import check_family_bounded
from featmc.engines.dense import DenseModel
from featmc.errors import ModelError, UnsupportedPropertyError
from featmc.features import FeatureDiagram, Product, parse_feature_expression
from featmc.models import FDTMC
from featmc.properties import Prob, parse_property, parse_tree
from featmc.profiles import (
    DenseProfile,
    GuardedProfile,
    constant,
    indicator,
)
from featmc.rational import INFINITY, ONE, ZERO, rational
from featmc.report import render_json
from featmc.result import UNKNOWN

from conftest import lane_rationals, random_fdtmc, table_at


WIPER = FeatureDiagram(("spd2", "very", "eco"))


def poly(text_terms):
    return MultilinearPolynomial(
        {frozenset(mono): rational(coeff) for mono, coeff in text_terms.items()}
    )


class TestPolynomials:
    def test_variable_squares_collapse(self):
        f = MultilinearPolynomial.variable("f")
        assert f * f == f

    def test_complement_annihilation(self):
        f = MultilinearPolynomial.variable("f")
        one = MultilinearPolynomial.const(1)
        assert ((one - f) * f).is_zero()

    def test_evaluation_at_boolean_point(self):
        p = poly({("spd2", "very"): 45, ("spd2",): 45, (): 120})
        both = Product(("spd2", "very", "eco"), (True, True, False))
        assert p.evaluate(both) == 210

    def test_add_cancels(self):
        f = MultilinearPolynomial.variable("f")
        assert (f - f).is_zero()

    def test_text_form_is_sorted_and_stable(self):
        p = poly({("b", "a"): -15, ("a",): 3, (): 2})
        assert poly_to_text(p) == "- 15*a*b + 3*a + 2".replace("- ", "-", 1)


def epsilon(product: Product) -> MultilinearPolynomial:
    """Reference point-mask polynomial: 1 exactly at this product's 0/1
    assignment (factor f for enabled features, 1-f for absent ones)."""
    result = MultilinearPolynomial.const(1)
    for name, value in zip(product.names, product.values):
        f = MultilinearPolynomial.variable(name)
        result = result * (f if value else MultilinearPolynomial.const(1) - f)
    return result


def point_mask_sum(values, diagram):
    """Reference interpolant: the point-mask sum over the valid products."""
    total = MultilinearPolynomial()
    for product, value in zip(diagram.valid_products(), values):
        total = total + epsilon(product).scale(value)
    return total


def one_hot(product, diagram):
    return [ONE if q == product else ZERO for q in diagram.valid_products()]


class TestEpsilon:
    """Point-mask polynomials, obtained as interpolants of one-hot vectors,
    and the transform checked against the point-mask sum."""

    def test_single_enabled_feature(self):
        d = FeatureDiagram(("f",))
        p = Product(("f",), (True,))
        assert interpolate_family(one_hot(p, d), d) == MultilinearPolynomial.variable("f")

    def test_single_disabled_feature(self):
        d = FeatureDiagram(("f",))
        p = Product(("f",), (False,))
        one = MultilinearPolynomial.const(1)
        assert interpolate_family(one_hot(p, d), d) == one - MultilinearPolynomial.variable("f")

    def test_three_feature_expansion(self):
        d = FeatureDiagram(("W", "A", "V"))
        p = Product(("W", "A", "V"), (True, False, True))
        expected = poly({("W", "V"): 1, ("W", "A", "V"): -1})
        assert interpolate_family(one_hot(p, d), d) == expected

    def test_point_mask_property(self):
        d = FeatureDiagram(("a", "b"))
        products = d.valid_products()
        for p in products:
            mask = interpolate_family(one_hot(p, d), d)
            for q in products:
                assert mask.evaluate(q) == (ONE if p == q else ZERO)

    def test_partition_of_unity(self):
        d = FeatureDiagram(("a", "b", "c"))
        ones = [ONE] * len(d.valid_products())
        # over an unconstrained diagram the interpolant of 1 is the constant 1
        assert interpolate_family(ones, d) == MultilinearPolynomial.const(1)

    def test_matches_point_mask_sum_on_constrained_diagram(self):
        d = FeatureDiagram(("a", "b", "c"), parse_feature_expression("a -> (b | c)"))
        assert len(d.valid_products()) < 8  # some products are invalid
        values = [rational(i * i + 1, i + 2) for i in range(len(d.valid_products()))]
        assert interpolate_family(values, d) == point_mask_sum(values, d)

    def test_matches_point_mask_sum_on_dense_failure_profile(self):
        built = dsl.parse_model(dsl.print_model_file(generators.gen_failure_recovery(4)))
        dense = [
            p for p in built.system.transitions.values() if isinstance(p, DenseProfile)
        ]
        assert dense
        for profile in dense:
            values = profile.dense_values()
            assert interpolate_family(values, built.diagram) == point_mask_sum(
                values, built.diagram
            )
            encoded = profile_table(profile, built.diagram)
            # a dense profile keeps only the features its values depend on
            assert len(encoded.support) < len(built.diagram.signature)
            for p, value in zip(built.diagram.valid_products(), values):
                assert table_at(encoded, p) == value


def table(support, values):
    return SupportTable.of(support, [rational(v) for v in values])


def same_table(a, b):
    return a.support == b.support and lane_rationals(a) == lane_rationals(b)


def assert_encodes(profile, diagram):
    """The table encoding agrees with the profile at every valid product."""
    encoded = profile_table(profile, diagram)
    for p in diagram.valid_products():
        assert table_at(encoded, p) == profile.evaluate(p), (profile, p)


class TestProfileEncoding:
    def test_two_case_shortcut(self):
        d = FeatureDiagram(("f",))
        profile = GuardedProfile(
            d,
            [(parse_feature_expression("f"), rational("0.3"))],
            rational("0.9"),
        )
        assert same_table(profile_table(profile, d), table((0,), ("0.9", "0.3")))

    def test_constant(self):
        d = FeatureDiagram(("f",))
        encoded = profile_table(constant(rational("0.5"), d), d)
        assert same_table(encoded, table((), ("0.5",)))

    def test_wiper_alpha_closed_form(self):
        profile = GuardedProfile(
            WIPER,
            [
                (parse_feature_expression("!spd2"), rational("0.8")),
                (parse_feature_expression("spd2 & !very"), rational("0.5")),
                (parse_feature_expression("spd2 & very"), rational("0.2")),
            ],
        )
        # support {spd2, very}; eco never read
        expected = table((0, 1), ("0.8", "0.8", "0.5", "0.2"))
        assert same_table(profile_table(profile, WIPER), expected)
        assert_encodes(profile, WIPER)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_profiles_agree_everywhere(self, seed):
        rng = random.Random(seed)
        m = random_fdtmc(rng, max_states=4, max_features=4)
        for profile in m.transitions.values():
            assert_encodes(profile, m.diagram)

    def test_indicator_table_matches_guard(self):
        d = FeatureDiagram(("a", "b", "c"))
        for text in ("a & !b", "a | b", "a ^ c", "a -> b", "!(a & (b | c))"):
            guard = parse_feature_expression(text)
            encoded = profile_table(indicator(guard, d), d)
            assert len(encoded.support) == len(guard.variables())
            for p in d.valid_products():
                assert table_at(encoded, p) == (ONE if guard.evaluate(p.as_dict()) else ZERO)

    @pytest.mark.parametrize("name", ["wiper", "minepump"])
    def test_bundled_profiles_agree_everywhere(self, name, request):
        built = request.getfixturevalue(name)
        system = built.system
        for profile in system.transitions.values():
            assert_encodes(profile, system.diagram)
        for s in system.states:
            assert_encodes(system.reward_profile(s), system.diagram)

    @pytest.mark.parametrize("seed", range(15))
    def test_constrained_diagram_agrees_at_valid_products(self, seed):
        m = constrained_fdtmc(random.Random(seed))
        assert len(m.diagram.valid_products()) < 2 ** len(m.diagram.signature)
        for profile in m.transitions.values():
            assert_encodes(profile, m.diagram)
        for s in m.states:
            assert_encodes(m.reward_profile(s), m.diagram)


CONSTRAINT = parse_feature_expression("f1 -> f2")


def constrained_fdtmc(rng):
    """A ``random_fdtmc`` moved onto a diagram constrained by ``f1 -> f2``.

    Each profile keeps its values on the valid products; about half of them
    become dense profiles, the rest keep their guard lists.
    """
    m = random_fdtmc(rng, max_states=8, max_features=4, with_rewards=True)
    signature = m.diagram.signature + (() if "f2" in m.diagram.signature else ("f2",))
    diagram = FeatureDiagram(signature, CONSTRAINT)

    def move(profile):
        if rng.random() < 0.5:
            return DenseProfile(
                diagram, [profile.evaluate(p) for p in diagram.valid_products()]
            )
        return GuardedProfile(diagram, profile.cases, profile.default)

    return FDTMC(
        m.states,
        m.init,
        diagram,
        {key: move(profile) for key, profile in m.transitions.items()},
        m.ap,
        m.labels,
        {s: move(m.reward_profile(s)) for s in m.states},
    )


TABLE_SIGNATURE = ("a", "b", "c", "d")
#: A table entry: 0, 1, negative and above 1 among them.
TABLE_ENTRY = st.one_of(
    st.sampled_from([0, 1, -1, 2, 7]).map(Fraction),
    st.fractions(-3, 9, max_denominator=10**6),
)
TABLES = st.one_of(
    st.just(SupportTable()),
    st.just(TABLE_ONE),
    st.sets(st.integers(0, len(TABLE_SIGNATURE) - 1), max_size=3).flatmap(
        lambda support: st.lists(
            TABLE_ENTRY, min_size=1 << len(support), max_size=1 << len(support)
        ).map(
            lambda entries: SupportTable.of(
                sorted(support), [rational(f.numerator, f.denominator) for f in entries]
            )
        )
    ),
)


def as_fraction(value) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


class TestSupportTable:
    """Pointwise algebra on operands with disjoint, nested and equal supports."""

    SIGNATURE = ("a", "b", "c")
    OPERANDS = {
        "disjoint": (table((0,), ("1/2", "1/3")), table((1, 2), ("0", "2", "1/5", "7"))),
        "nested": (table((1,), ("3/4", "0")), table((0, 1, 2), range(8))),
        "equal": (table((0, 2), ("1/7", "0", "1", "-2")), table((0, 2), ("1", "0", "2", "1/9"))),
        "scalar": (table((), ("5/3",)), table((1,), ("1/8", "0"))),
        "one": (table((), ("1",)), table((2,), ("1/8", "3"))),
    }

    @pytest.mark.parametrize("case", sorted(OPERANDS))
    def test_add_and_mul_are_pointwise(self, case):
        a, b = self.OPERANDS[case]
        for x, y in ((a, b), (b, a)):
            total, prod = x + y, x * y
            union = set(x.support) | set(y.support)
            assert set(total.support) <= union and set(prod.support) <= union
            for p in FeatureDiagram(self.SIGNATURE).valid_products():
                assert table_at(total, p) == table_at(x, p) + table_at(y, p)
                assert table_at(prod, p) == table_at(x, p) * table_at(y, p)

    @pytest.mark.parametrize("case", sorted(OPERANDS))
    def test_closure_is_pointwise(self, case):
        for loop in self.OPERANDS[case]:
            closed = _closure(loop)
            if loop.support == () and lane_rationals(loop)[0] == 1:
                assert closed is None
                continue
            for p in FeatureDiagram(self.SIGNATURE).valid_products():
                x = table_at(loop, p)
                assert table_at(closed, p) == (ZERO if x == 1 else ONE / (ONE - x))

    @given(st.data())
    def test_lanes_match_fractions(self, data):
        """``+``, ``*`` and the closure equal the pointwise Fraction results
        on random supports, with negative entries, loops of 1 and above 1,
        the zero and the unit table; every lane stays in lowest terms with
        a positive denominator."""
        a, b, loop = (data.draw(TABLES) for _ in range(3))
        results = [a + b, a * b]
        closed = _closure(loop)
        for p in FeatureDiagram(TABLE_SIGNATURE).valid_products():
            x, y, z = (as_fraction(table_at(t, p)) for t in (a, b, loop))
            assert as_fraction(table_at(results[0], p)) == x + y
            assert as_fraction(table_at(results[1], p)) == x * y
            if closed is not None:
                assert as_fraction(table_at(closed, p)) == (0 if z == 1 else 1 / (1 - z))
        if closed is None:
            assert loop.support == () and lane_rationals(loop) == [1]
        else:
            results.append(closed)
        for t in results:
            assert len(t.num) == len(t.den) == 1 << len(t.support)
            assert all(gcd(n, d) == 1 and d > 0 for n, d in zip(t.num, t.den))

    def test_zero_operands_and_unit_factor(self):
        zero = table((0, 1), ("0", "0", "0", "0"))
        x = table((2,), ("1/3", "2/3"))
        assert not zero and x
        assert (zero + x) is x and (x + zero) is x
        assert not (zero * x) and not (x * zero)
        one = table((), ("1",))
        assert (one * x) is x and (x * one) is x

    def test_loop_of_one_only_at_an_invalid_assignment(self):
        # the loop is 1 exactly where a & !b, which the constraint rules out
        d = FeatureDiagram(("a", "b"), parse_feature_expression("a -> b"))
        half = rational("0.5")
        m = FDTMC(
            ("s", "t", "u"),
            "s",
            d,
            {
                ("s", "s"): GuardedProfile(
                    d, [(parse_feature_expression("a & !b"), ONE)], half
                ),
                ("s", "t"): GuardedProfile(
                    d, [(parse_feature_expression("a & !b"), ZERO)], rational("0.25")
                ),
                ("s", "u"): GuardedProfile(
                    d, [(parse_feature_expression("a & !b"), ZERO)], rational("0.25")
                ),
                ("t", "t"): constant(ONE, d),
                ("u", "u"): constant(ONE, d),
            },
            ("goal",),
            {"t": ("goal",)},
        )
        closed = _closure(profile_table(m.transitions[("s", "s")], d))
        assert lane_rationals(closed) == [2, 2, 0, 2]
        result = check_family_parametric(m, "P=?(F goal)")
        assert not result.warnings
        for p in d.valid_products():
            assert result.outcomes[p].value == half


class TestElimination:
    def test_absorbing_target_reached_almost_surely(self):
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("s", "t"),
            "s",
            d,
            {
                ("s", "t"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], rational("0.8")
                ),
                ("s", "s"): GuardedProfile(
                    d, [(parse_feature_expression("f"), rational("0.5"))], rational("0.2")
                ),
                ("t", "t"): constant(ONE, d),
            },
            ("goal",),
            {"t": ("goal",)},
        )
        result = check_family_parametric(m, "P=?(F goal)")
        assert [o.value for o in result.outcomes.values()] == [1, 1]

    def test_minepump_methane_reached_almost_surely(self, minepump):
        methane = minepump.components["Methane"]
        result = check_family_parametric(methane, "P=?(F methane)")
        for p in methane.diagram.valid_products():
            assert result.outcomes[p].value == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumerative_on_random_models(self, seed):
        rng = random.Random(seed)
        m = random_fdtmc(rng, max_states=8, max_features=4)
        enum = check_family_enumerative(m, "P=?(F a)")
        param = check_family_parametric(m, "P=?(F a)")
        for p in m.diagram.valid_products():
            assert enum.outcomes[p].value == param.outcomes[p].value

    def test_absorbing_at_one_product_is_exact(self):
        # state m is absorbing exactly when f is enabled, so the loop
        # complement vanishes at that product: its closure is 0 there
        d = FeatureDiagram(("f",))
        half = rational("0.5")
        m = FDTMC(
            ("s", "m", "t"),
            "s",
            d,
            {
                ("s", "m"): constant(half, d),
                ("s", "t"): constant(half, d),
                ("m", "m"): GuardedProfile(
                    d, [(parse_feature_expression("f"), ONE)], half
                ),
                ("m", "t"): GuardedProfile(
                    d, [(parse_feature_expression("f"), ZERO)], half
                ),
                ("t", "t"): constant(ONE, d),
            },
            ("goal",),
            {"t": ("goal",)},
        )
        result = check_family_parametric(m, "P=?(F goal)")
        on = Product(("f",), (True,))
        off = Product(("f",), (False,))
        assert result.outcomes[off].value == 1
        assert result.outcomes[on].value == rational("0.5")
        assert not any(o.fallback for o in result.outcomes.values())
        assert not result.warnings

    @pytest.mark.parametrize("prop", ["risk_value", "pump_risk"])
    def test_minepump_is_exact_without_fallback(self, minepump, prop):
        text = minepump.property_of(prop)
        param = check_family_parametric(minepump.system, text)
        enum = check_family_enumerative(minepump.system, text)
        assert not param.warnings
        for p in minepump.diagram.valid_products():
            assert param.outcomes[p].value == enum.outcomes[p].value
            assert param.outcomes[p].decision == enum.outcomes[p].decision
            assert not param.outcomes[p].fallback

    def test_minepump_risk_agrees_through_the_cli(self, capsys):
        path = str(bundled_model_path("minepump"))
        code = main(["check", path, "--prop", "risk_value", "--engine", "all"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [line for line in captured.out.splitlines() if line.startswith("{")]
        assert len(rows) == 8
        assert all(row.split()[-1] == "yes" for row in rows)
        assert "parametric" not in captured.err


class TestConstrainedCorpus:
    """Parametric equals enumerative exactly on random chains over a
    constrained diagram, with guarded and dense profiles mixed."""

    @pytest.mark.parametrize("block", range(4))
    def test_matches_enumerative(self, block):
        props = ("P=?(F a)", "P=?(b U a)", "R=?[F a]", "P[<0.5](F c)")
        dense_profiles = 0
        for seed in range(block * 30, block * 30 + 30):
            m = constrained_fdtmc(random.Random(seed))
            dense_profiles += sum(
                isinstance(p, DenseProfile) for p in m.transitions.values()
            )
            for prop in props:
                enum = check_family_enumerative(m, prop)
                param = check_family_parametric(m, prop)
                assert not any(o.fallback for o in param.outcomes.values())
                for p in m.diagram.valid_products():
                    assert param.outcomes[p].value == enum.outcomes[p].value, (seed, prop, p)
                    assert param.outcomes[p].decision == enum.outcomes[p].decision
        assert dense_profiles >= 30


NESTED_WIPER = (
    "P=?(F P[>0.5](X fastmode))",
    "P[<0.5](P[>0.3](X fastmode) U end)",
    "R=?[F end | P[>0.5](X fastmode)]",
    "!P[<0.5](X P[>0.5](F end))",
    "P=?(P[>0.5](F end) U (P[>0.5](F end) & end))",
)
NESTED_SERVICE = (
    "P[<0.5](X P[>0.1](F failure))",
    "P=?(F P[>0.1](F failure))",
    "P=?(P[>0.05](F failure) U failure)",
)
NESTED_RANDOM = (
    "P=?(F P[>=0.5](X a))",
    "P=?(b U P[>0.2](F a))",
    "P[<0.5](F P[>=0.5](a U<=2 b))",
    "P=?(X !P[<0.5](F a))",
)


def _diverging_reward_model():
    """goal with probability 1 when f is off, 1/2 when f is on."""
    d = FeatureDiagram(("f",))
    return FDTMC(
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


class TestExpectedReward:
    def test_wiper_expression_at_every_product(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F end]")

        def closed_form(p):
            s, v, e = int(p["spd2"]), int(p["very"]), int(p["eco"])
            return rational(
                -15 * s * e * v - 15 * s * e + 45 * s * v + 45 * s - 40 * e + 120, 8
            )

        for p in wiper.diagram.valid_products():
            assert result.outcomes[p].value == closed_form(p)

    def test_zero_rewards(self):
        d = FeatureDiagram(("f",))
        m = FDTMC(
            ("a", "b"),
            "a",
            d,
            {("a", "b"): constant(ONE, d), ("b", "b"): constant(ONE, d)},
            ("goal",),
            {"b": ("goal",)},
            rewards={},
        )
        result = check_family_parametric(m, "R=?[F goal]")
        assert [o.value for o in result.outcomes.values()] == [0, 0]


class TestFamilyParametric:
    def test_wiper_reward_family(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F end]")
        values = {str(p): o.value for p, o in result.outcomes.items()}
        assert values["{spd2,very}"] == rational("26.25")
        assert values["{spd2,very,eco}"] == rational("17.5")

    @pytest.mark.parametrize("prop", ["R=?[F end]", "P=?(X fastmode)", "P[>0.5](F end)"])
    def test_property_function_interpolates_the_outcomes(self, wiper, prop):
        result = check_family_parametric(wiper.system, prop)
        function = property_function(wiper.system, parse_property(prop))
        assert rf_to_text(function) == rf_to_text(result.function)
        for p, o in result.outcomes.items():
            assert function.evaluate(p) == o.value

    def test_property_function_of_a_diverging_reward_is_none(self):
        """The reward is infinite at {f}: no closed form, as the check
        gives none, instead of a function with an ``inf`` coefficient."""
        m = _diverging_reward_model()
        assert property_function(m, parse_property("R=?[F goal]")) is None
        assert check_family_parametric(m, "R=?[F goal]").function is None

    def test_property_function_needs_an_operator_at_the_top(self, wiper):
        with pytest.raises(UnsupportedPropertyError, match="probability or reward operator"):
            property_function(wiper.system, parse_property("!end & fastmode"))

    def test_emission_format_parses_visually(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F end]")
        text = rf_to_text(result.function)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("/ ")

    @pytest.mark.parametrize(
        "name", ["wiper", "service4"] + [f"random{seed}" for seed in range(4)]
    )
    def test_nested_probability_matches_enumerative(self, request, name):
        """Parametric equals enumerative exactly on nested operators whose
        operand is satisfied by a different state set per product, and the
        bounded interval holds the exact value."""
        if name == "wiper":
            models = [request.getfixturevalue("wiper").system]
            props = NESTED_WIPER
        elif name == "service4":
            models = [dsl.build_model(generators.gen_service_provider(4)).system]
            props = NESTED_SERVICE
        else:
            rng = random.Random(int(name[len("random"):]))
            models = [random_fdtmc(rng, max_states=6, max_features=3) for _ in range(10)]
            props = NESTED_RANDOM
        mixed = 0
        for m, prop in itertools.product(models, props):
            enum = check_family_enumerative(m, prop)
            param = check_family_parametric(m, prop)
            bounded = check_family_bounded(m, prop)
            for p, expected in enum.outcomes.items():
                got = param.outcomes[p]
                assert (got.value, got.decision) == (expected.value, expected.decision), (prop, p)
                o = bounded.outcomes[p]
                if expected.value is not None:
                    assert o.value - o.error_bound <= expected.value <= o.value + o.error_bound
                assert o.decision in (expected.decision, UNKNOWN)
            # some state satisfies a nested operand on some products only
            check = _TableCheck(DenseModel(m))
            for inner in parse_tree(parse_property(prop))[:-1]:
                if isinstance(inner, Prob):
                    definite = check.sat_of(inner).lo
                    mixed += any(0 < bits < check.dense.full for bits in definite.values())
        assert mixed

    @pytest.mark.parametrize("prop", ["end", "!end & fastmode", "!(wiping & !end)"])
    def test_plain_state_formula_is_decided_at_init(self, wiper, prop):
        enum = check_family_enumerative(wiper.system, prop)
        param = check_family_parametric(wiper.system, prop)
        assert [(o.value, o.decision) for o in param.outcomes.values()] == [
            (o.value, o.decision) for o in enum.outcomes.values()
        ]
        assert param.function is None and param.warnings == []

    def test_random_plain_state_formulas(self):
        rng = random.Random(23)
        for _ in range(20):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            for prop in ("a", "!a & b", "!(a & !c)"):
                enum = check_family_enumerative(m, prop)
                param = check_family_parametric(m, prop)
                for p, o in enum.outcomes.items():
                    assert param.outcomes[p].decision == o.decision

    @pytest.mark.parametrize("name", ["wiper", "minepump"])
    @pytest.mark.parametrize("prop", ["P=?(F !true)", "R=?[F !true]", "P[>0](F !true)"])
    def test_empty_target_same_answer_on_every_engine(self, request, name, prop):
        """No state satisfies the target: probability 0, a violated lower
        threshold, an infinite reward, or the same model error."""
        model = request.getfixturevalue(name).system
        answers = []
        for check in (check_family_enumerative, check_family_parametric, check_family_bounded):
            try:
                result = check(model, prop)
            except ModelError as exc:
                answers.append(str(exc))
                continue
            assert all(not o.error_bound for o in result.outcomes.values())
            answers.append([(o.value, o.decision) for o in result.outcomes.values()])
        n = len(model.diagram.valid_products())
        expected = {
            "P=?(F !true)": [(ZERO, None)] * n,
            "R=?[F !true]": [(INFINITY, None)] * n if model.rewards else "model has no rewards",
            "P[>0](F !true)": [(ZERO, "violated")] * n,
        }[prop]
        assert answers == [expected] * 3

    def test_empty_target_reward_emits_no_closed_form(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F !true]")
        assert result.function is None
        assert any("no closed form" in w for w in result.warnings)

    @pytest.mark.parametrize(
        "prop", ["P=?(X a)", "P=?(a U<=3 b)", "P=?(b U a)", "P[<0.5](F a)"]
    )
    def test_random_cross_engine(self, prop):
        rng = random.Random(hash(prop) % 1000)
        for _ in range(5):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            enum = check_family_enumerative(m, prop)
            param = check_family_parametric(m, prop)
            for p in m.diagram.valid_products():
                assert enum.outcomes[p].value == param.outcomes[p].value
                assert enum.outcomes[p].decision == param.outcomes[p].decision


def test_diverging_reward_is_infinite_in_every_engine():
    m = _diverging_reward_model()
    off = Product(("f",), (False,))
    on = Product(("f",), (True,))
    param = check_family_parametric(m, "R=?[F goal]")
    assert param.outcomes[off].value == 1
    assert param.outcomes[on].value == INFINITY
    assert param.function is None
    assert any("{f}" in w for w in param.warnings)
    enum = check_family_enumerative(m, "R=?[F goal]")
    bounded = check_family_bounded(m, "R=?[F goal]")
    for p in m.diagram.valid_products():
        assert enum.outcomes[p].value == param.outcomes[p].value
        assert bounded.outcomes[p].value == param.outcomes[p].value


def test_wiper_emission_is_the_canonical_interpolant(wiper):
    result = check_family_parametric(wiper.system, "R=?[F end]")
    text = rf_to_text(result.function)
    for term in ("-15*eco*spd2*very", "45*spd2*very", "- 40*eco", "+ 120"):
        assert term in text
    assert text.strip().endswith("/ 8")


class TestClosedFormOnDemand:
    """A check does not interpolate; the first read of ``function`` does,
    once, and the emitted text keeps its recorded bytes."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        original = parametric.interpolate_family

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(parametric, "interpolate_family", counted)
        return calls

    @pytest.mark.parametrize("prop", ["R=?[F end]", "P=?(X fastmode)", "P[>0.5](F end)"])
    def test_built_once_on_first_read(self, wiper, calls, prop):
        result = check_family_parametric(wiper.system, prop)
        render_json(wiper.diagram.valid_products(), [result])
        assert calls == []
        first, second = result.function, result.function
        assert first is second and len(calls) == 1
        for p, o in result.outcomes.items():
            assert first.evaluate(p) == o.value

    @pytest.mark.parametrize("prop", ["end", "R=?[F !true]"])
    def test_none_without_a_build(self, wiper, calls, prop):
        assert check_family_parametric(wiper.system, prop).function is None
        assert calls == []

    #: sha256 of the emitted text, recorded while every check still built
    #: the closed form
    EMITTED = {
        ("failure", 8, "fail_value"): "ec5163f788c76cdf8b09ee491576b7b015caa2ca534335e3e681819489a204fb",
        ("service", 7, "fail_risk"): "a430d9f3b4cb3a28781f0b8ee7b348dbc0ec10b0e59300342f0f185109b6ba51",
    }

    @pytest.mark.parametrize("family, n, prop", sorted(EMITTED))
    def test_emitted_text_is_unchanged(self, family, n, prop):
        generate = {
            "failure": generators.gen_failure_recovery,
            "service": generators.gen_service_provider,
        }[family]
        built = dsl.parse_model(dsl.print_model_file(generate(n)))
        result = check_family_parametric(built.system, built.property_of(prop))
        text = rf_to_text(result.function).encode()
        assert hashlib.sha256(text).hexdigest() == self.EMITTED[family, n, prop]
