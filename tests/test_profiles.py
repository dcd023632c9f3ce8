import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from featmc.errors import DiagramMismatchError, InvalidProductError
from featmc.features import FeatureDiagram, Product, parse_feature_expression
from featmc.profiles import (
    DenseProfile,
    GuardedProfile,
    add,
    complement,
    constant,
    indicator,
    mul,
    probability_range_findings,
    sub,
    to_dense,
)
from featmc.rational import ONE, ZERO, rational

from conftest import equals_pointwise, random_fdtmc


WIPER = FeatureDiagram(("spd2", "very", "eco"))
MINEPUMP = FeatureDiagram(("W", "A", "V"))


def alpha_profile():
    return GuardedProfile(
        WIPER,
        [
            (parse_feature_expression("!spd2"), rational("0.8")),
            (parse_feature_expression("spd2 & !very"), rational("0.5")),
            (parse_feature_expression("spd2 & very"), rational("0.2")),
        ],
        ZERO,
    )


def wiper_product(spd2=0, very=0, eco=0):
    return Product(("spd2", "very", "eco"), (bool(spd2), bool(very), bool(eco)))


class TestEval:
    def test_alpha_profile_on_very_sensitive(self):
        assert alpha_profile().evaluate(wiper_product(1, 1, 0)) == rational("0.2")

    def test_constant(self):
        p = constant(rational("0.125"), MINEPUMP)
        for prod in MINEPUMP.valid_products():
            assert p.evaluate(prod) == rational("0.125")

    def test_reward_profile_eco(self):
        r = GuardedProfile(
            WIPER,
            [
                (parse_feature_expression("!eco"), rational(3)),
                (parse_feature_expression("eco"), rational(2)),
            ],
        )
        assert r.evaluate(wiper_product(eco=1)) == 2
        assert r.evaluate(wiper_product(eco=0)) == 3

    def test_invalid_product(self):
        d = FeatureDiagram(("f",), parse_feature_expression("f"))
        p = constant(ONE, d)
        with pytest.raises(InvalidProductError):
            p.evaluate(Product(("f",), (False,)))

    def test_first_match_wins(self):
        p = GuardedProfile(
            WIPER,
            [
                (parse_feature_expression("spd2"), ONE),
                (parse_feature_expression("spd2 & very"), ZERO),
            ],
        )
        assert p.evaluate(wiper_product(1, 1, 0)) == 1


class TestArithmetic:
    def test_constant_product(self):
        a = constant(rational("0.875"), MINEPUMP)
        b = constant(rational("0.125"), MINEPUMP)
        assert equals_pointwise(mul(a, b), constant(rational("0.109375"), MINEPUMP))

    def test_one_is_multiplicative_unit(self):
        p = alpha_profile()
        assert equals_pointwise(mul(p, constant(ONE, WIPER)), p)

    def test_guarded_times_constant_pointwise(self):
        d = MINEPUMP
        p = GuardedProfile(
            d,
            [(parse_feature_expression("V"), rational("0.9"))],
            rational("0.75"),
        )
        result = mul(p, constant(rational("0.125"), d))
        for prod in d.valid_products():
            assert result.evaluate(prod) == p.evaluate(prod) * rational("0.125")

    def test_zero_is_additive_unit(self):
        p = alpha_profile()
        assert equals_pointwise(add(p, constant(ZERO, WIPER)), p)

    def test_beta_as_difference(self):
        # the heavy-rain probability equals 0.8 minus the light-rain one
        beta = sub(constant(rational("0.8"), WIPER), alpha_profile())
        assert beta.evaluate(wiper_product(0, 0, 0)) == 0
        assert beta.evaluate(wiper_product(1, 0, 0)) == rational("0.3")
        assert beta.evaluate(wiper_product(1, 1, 0)) == rational("0.6")

    def test_complement_of_indicator(self):
        ind = indicator(parse_feature_expression("eco"), WIPER)
        comp = complement(ind)
        assert comp.evaluate(wiper_product(eco=1)) == 0
        assert comp.evaluate(wiper_product(eco=0)) == 1

    def test_diagram_mismatch(self):
        with pytest.raises(DiagramMismatchError):
            mul(constant(ONE, WIPER), constant(ONE, MINEPUMP))


class TestIndicator:
    def test_true_false(self):
        assert equals_pointwise(
            indicator(parse_feature_expression("true"), WIPER), constant(ONE, WIPER)
        )
        assert equals_pointwise(
            indicator(parse_feature_expression("false"), WIPER), constant(ZERO, WIPER)
        )

    def test_spd2_covers_half_the_products(self):
        ind = indicator(parse_feature_expression("spd2"), WIPER)
        assert sum(ind.dense_values()) == 4


class TestDense:
    def test_constant_is_flat(self):
        assert set(to_dense(constant(rational(2), WIPER)).values) == {rational(2)}

    def test_alpha_dense_entries(self):
        values = set(to_dense(alpha_profile()).values)
        assert values == {rational("0.8"), rational("0.5"), rational("0.2")}

    def test_operations_commute_with_to_dense(self):
        p = alpha_profile()
        q = indicator(parse_feature_expression("eco"), WIPER)
        dense_first = [a + b for a, b in zip(to_dense(p).values, to_dense(q).values)]
        assert list(to_dense(add(p, q)).values) == dense_first


def test_probability_range_validator():
    bad = GuardedProfile(
        WIPER, [(parse_feature_expression("eco"), rational("1.5"))], ZERO
    )
    findings = probability_range_findings(bad)
    assert len(findings) == 1 and "1.5" in findings[0] or "3/2" in findings[0]
    assert probability_range_findings(alpha_profile()) == []


class TestGroups:
    """Every profile answers groups(): distinct values, each with the
    bitset of the valid products carrying it."""

    @staticmethod
    def first_match(profile, product):
        """A guarded profile's value at ``product``, guard by guard."""
        assignment = product.as_dict()
        return next(
            (v for guard, v in profile.cases if guard.evaluate(assignment)), profile.default
        )

    def check_contract(self, profile, expected=None):
        """``expected`` (per product) defaults to first match per product."""
        products = profile.diagram.valid_products()
        if expected is None:
            expected = [self.first_match(profile, p) for p in products]
        groups = profile.groups()
        values = [v for v, _ in groups]
        assert all(a != b for i, a in enumerate(values) for b in values[i + 1 :])
        covered = 0
        for _, bits in groups:
            assert bits and not bits & covered  # nonempty and disjoint
            covered |= bits
        assert covered == profile.diagram.full
        expanded = [
            next(v for v, bits in groups if bits >> i & 1) for i in range(len(products))
        ]
        assert expanded == list(expected)
        assert list(profile.dense_values()) == expanded
        assert [profile.evaluate(p) for p in products] == expanded

    def test_random_model_profiles(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(20):
            m = random_fdtmc(rng, max_states=5, max_features=3, with_rewards=True)
            for profile in [*m.transitions.values(), *m.rewards.values()]:
                self.check_contract(profile)
                checked += 1
        assert checked > 100

    def test_overlapping_first_match_guards(self):
        profile = GuardedProfile(
            WIPER,
            [
                (parse_feature_expression("spd2"), rational("0.5")),
                (parse_feature_expression("spd2 | very"), rational("0.25")),
                (parse_feature_expression("eco"), rational("0.5")),
                (parse_feature_expression("spd2 & eco"), rational("0.75")),  # taken by case 1
            ],
            rational("0.25"),
        )
        self.check_contract(profile)
        # 1/2 from the first and third case, 1/4 from the second and the default
        assert len(profile.groups()) == 2

    def test_dense_profile_with_equal_values_as_distinct_objects(self):
        values = [rational(1, 2 + i % 2) for i in range(len(WIPER.valid_products()))]
        assert len(set(map(id, values))) == len(values)
        profile = DenseProfile(WIPER, values)
        self.check_contract(profile, values)
        assert len(profile.groups()) == 2

    def test_computed_profiles(self):
        a = alpha_profile()
        eco = indicator(parse_feature_expression("eco"), WIPER)
        tenths = [rational(i, 10) for i in range(8)]
        av = [self.first_match(a, p) for p in WIPER.valid_products()]
        ev = [self.first_match(eco, p) for p in WIPER.valid_products()]
        for profile, expected in (
            (a * eco, [x * y for x, y in zip(av, ev)]),
            (a + a, [x + x for x in av]),
            (complement(a), [1 - x for x in av]),
            (sub(a, DenseProfile(WIPER, tenths)), [x - y for x, y in zip(av, tenths)]),
            (to_dense(a), av),
        ):
            self.check_contract(profile, expected)


    def test_more_group_pairs_than_products(self):
        """Operands whose group pairs outnumber the products are combined
        product by product: the values of a per-product loop, one object
        per distinct result."""
        diagram = FeatureDiagram(tuple(f"f{i}" for i in range(10)))
        n = len(diagram.valid_products())
        distinct = DenseProfile(diagram, [rational(i + 1, 2048) for i in range(n)])
        other = DenseProfile(diagram, [rational(i + 3, 4096) for i in range(n)])
        few = DenseProfile(diagram, [rational(i % 3, 7) for i in range(n)])
        for a, b in ((distinct, other), (distinct, few), (few, distinct), (few, few)):
            for op in (operator.mul, operator.add, operator.sub):
                expected = [*map(op, a.dense_values(), b.dense_values())]
                profile = op(a, b)
                assert list(profile.dense_values()) == expected
                assert len(profile.groups()) == len(set(expected))
                assert len(set(map(id, profile.dense_values()))) == len(profile.groups())


# ---------------------------------------------------------------------------
# Algebraic laws on random profiles
# ---------------------------------------------------------------------------

_small_diagram = FeatureDiagram(("p", "q"))


@st.composite
def _profiles(draw):
    grain = 8
    cases = []
    for guard_text in draw(
        st.lists(st.sampled_from(["p", "!p", "p & q", "q"]), max_size=2)
    ):
        cases.append(
            (parse_feature_expression(guard_text), rational(draw(st.integers(0, grain)), grain))
        )
    default = rational(draw(st.integers(0, grain)), grain)
    if draw(st.booleans()):
        return GuardedProfile(_small_diagram, cases, default)
    values = [
        rational(draw(st.integers(0, grain)), grain)
        for _ in _small_diagram.valid_products()
    ]
    return DenseProfile(_small_diagram, values)


@settings(max_examples=60)
@given(_profiles(), _profiles(), _profiles())
def test_mul_add_laws(a, b, c):
    products = _small_diagram.valid_products()

    def values(p):
        return [p.evaluate(x) for x in products]

    assert values(mul(a, b)) == [x * y for x, y in zip(values(a), values(b))]
    assert values(add(a, b)) == [x + y for x, y in zip(values(a), values(b))]
    assert equals_pointwise(mul(a, b), mul(b, a))
    assert equals_pointwise(add(a, b), add(b, a))
    assert equals_pointwise(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert equals_pointwise(add(add(a, b), c), add(a, add(b, c)))
    assert equals_pointwise(mul(a, constant(ONE, _small_diagram)), a)
    assert equals_pointwise(add(a, constant(ZERO, _small_diagram)), a)
