import random

import pytest

from featmc.engines.enumerative import check_family_enumerative
from featmc.engines.parametric import (
    MultilinearPolynomial,
    RationalFunction,
    ZeroDenominatorError,
    check_family_parametric,
    eliminate_expected_reward,
    eliminate_reachability,
    evaluate,
    indicator_polynomial,
    interpolate_family,
    poly_to_text,
    profile_to_polynomial,
    rf_to_text,
)
from featmc import dsl, generators
from featmc.engines.bounded import check_family_bounded
from featmc.errors import ModelError, UnsupportedPropertyError
from featmc.features import FeatureDiagram, Product, parse_feature_expression
from featmc.models import FDTMC
from featmc.profiles import DenseProfile, GuardedProfile, constant, eval_profile
from featmc.rational import INFINITY, ONE, ZERO, rational

from conftest import random_fdtmc


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
            encoded = profile_to_polynomial(profile, built.diagram)
            assert encoded == point_mask_sum(values, built.diagram)
            assert encoded == interpolate_family(values, built.diagram)


class TestProfileEncoding:
    def test_two_case_shortcut(self):
        d = FeatureDiagram(("f",))
        profile = GuardedProfile(
            d,
            [(parse_feature_expression("f"), rational("0.3"))],
            rational("0.9"),
        )
        f = MultilinearPolynomial.variable("f")
        expected = f.scale(rational("0.3")) + (
            MultilinearPolynomial.const(1) - f
        ).scale(rational("0.9"))
        assert profile_to_polynomial(profile, d) == expected

    def test_constant(self):
        d = FeatureDiagram(("f",))
        assert profile_to_polynomial(constant(rational("0.5"), d), d) == \
            MultilinearPolynomial.const(rational("0.5"))

    def test_wiper_alpha_closed_form(self):
        profile = GuardedProfile(
            WIPER,
            [
                (parse_feature_expression("!spd2"), rational("0.8")),
                (parse_feature_expression("spd2 & !very"), rational("0.5")),
                (parse_feature_expression("spd2 & very"), rational("0.2")),
            ],
        )
        expected = poly({(): "0.8", ("spd2",): "-0.3", ("spd2", "very"): "-0.3"})
        encoded = profile_to_polynomial(profile, WIPER)
        assert encoded == expected
        for p in WIPER.valid_products():
            assert encoded.evaluate(p) == eval_profile(profile, p)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_profiles_agree_everywhere(self, seed):
        rng = random.Random(seed)
        m = random_fdtmc(rng, max_states=4, max_features=4)
        for profile in m.transitions.values():
            encoded = profile_to_polynomial(profile, m.diagram)
            for p in m.diagram.valid_products():
                assert encoded.evaluate(p) == eval_profile(profile, p)

    def test_indicator_polynomial_matches_guard(self):
        d = FeatureDiagram(("a", "b", "c"))
        for text in ("a & !b", "a | b", "a ^ c", "a -> b", "!(a & (b | c))"):
            guard = parse_feature_expression(text)
            encoded = indicator_polynomial(guard)
            for p in d.valid_products():
                assert encoded.evaluate(p) == (
                    ONE if guard.evaluate(p.as_dict()) else ZERO
                )


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
        rf = eliminate_reachability(m, {"t"})
        for p in d.valid_products():
            assert evaluate(rf, p) == 1

    def test_minepump_methane_reached_almost_surely(self, minepump):
        methane = minepump.components["Methane"]
        rf = eliminate_reachability(methane, {"methane"})
        for p in methane.diagram.valid_products():
            assert evaluate(rf, p) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumerative_on_random_models(self, seed):
        rng = random.Random(seed)
        m = random_fdtmc(rng, max_states=8, max_features=4)
        enum = check_family_enumerative(m, "P=?(F a)")
        param = check_family_parametric(m, "P=?(F a)")
        for p in m.diagram.valid_products():
            assert enum.outcomes[p].value == param.outcomes[p].value

    def test_zero_denominator_falls_back(self):
        # state m is absorbing exactly when f is enabled, so the loop
        # complement vanishes at that product
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
        assert result.outcomes[on].fallback
        assert result.warnings


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
        rf = eliminate_expected_reward(wiper.system, {"end"})

        def closed_form(p):
            s, v, e = int(p["spd2"]), int(p["very"]), int(p["eco"])
            return rational(
                -15 * s * e * v - 15 * s * e + 45 * s * v + 45 * s - 40 * e + 120, 8
            )

        for p in wiper.diagram.valid_products():
            assert evaluate(rf, p) == closed_form(p)

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
        rf = eliminate_expected_reward(m, {"b"})
        for p in d.valid_products():
            assert evaluate(rf, p) == 0

    def test_error_lists_products_missing_the_target(self):
        with pytest.raises(ModelError, match=r"\{f\}"):
            eliminate_expected_reward(_diverging_reward_model(), {"goal"})


class TestFamilyParametric:
    def test_wiper_reward_family(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F end]")
        values = {str(p): o.value for p, o in result.outcomes.items()}
        assert values["{spd2,very}"] == rational("26.25")
        assert values["{spd2,very,eco}"] == rational("17.5")

    def test_emission_format_parses_visually(self, wiper):
        result = check_family_parametric(wiper.system, "R=?[F end]")
        text = rf_to_text(result.function)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("/ ")

    def test_nested_probability_unsupported(self, wiper):
        with pytest.raises(UnsupportedPropertyError):
            check_family_parametric(wiper.system, "P[<0.5](F P[<0.5](X end))")

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
