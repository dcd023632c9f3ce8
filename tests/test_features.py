import itertools
import random

import pytest
from hypothesis import given, strategies as st

from featmc.errors import EnumerationLimitError, ParseError, UnboundFeatureError
from featmc.features import (
    FALSE,
    FAnd,
    FImplies,
    FNot,
    FOr,
    FVar,
    FXor,
    FeatureDiagram,
    Product,
    TRUE,
    conjoin,
    evaluate_expr,
    parse_feature_expression,
    print_expression,
    substitute,
)


def product(**kwargs):
    return Product(tuple(kwargs), tuple(kwargs.values()))


class TestEvaluate:
    def test_conjunction_with_negation(self):
        e = parse_feature_expression("W & !A")
        assert evaluate_expr(e, product(W=1, A=0, V=0)) is True
        assert evaluate_expr(e, product(W=1, A=1, V=0)) is False

    def test_constant_true(self):
        assert evaluate_expr(TRUE, product(W=0)) is True

    def test_wiper_guard(self):
        e = parse_feature_expression("spd2 & very")
        assert evaluate_expr(e, product(spd2=1, very=1, eco=0)) is True

    def test_unbound_variable_is_reported_by_name(self):
        e = parse_feature_expression("missing")
        with pytest.raises(UnboundFeatureError) as err:
            evaluate_expr(e, product(W=1))
        assert err.value.name == "missing"

    def test_implication_and_xor(self):
        e = parse_feature_expression("a -> b")
        assert evaluate_expr(e, product(a=0, b=0)) is True
        assert evaluate_expr(e, product(a=1, b=0)) is False
        x = parse_feature_expression("a ^ b")
        assert evaluate_expr(x, product(a=1, b=0)) is True
        assert evaluate_expr(x, product(a=1, b=1)) is False


class TestValidProducts:
    def test_unconstrained_three_features(self):
        d = FeatureDiagram(("W", "A", "V"))
        assert len(d.valid_products()) == 8

    def test_wiper_diagram(self):
        d = FeatureDiagram(("spd2", "very", "eco"))
        assert len(d.valid_products()) == 8

    def test_forced_negative(self):
        d = FeatureDiagram(("f",), parse_feature_expression("!f"))
        products = d.valid_products()
        assert len(products) == 1
        assert products[0]["f"] is False

    def test_canonical_order_counts_in_binary(self):
        d = FeatureDiagram(("a", "b"))
        values = [p.values for p in d.valid_products()]
        assert values == [(False, False), (False, True), (True, False), (True, True)]

    def test_every_product_satisfies_constraint_once(self):
        constraint = parse_feature_expression("a -> b")
        d = FeatureDiagram(("a", "b", "c"), constraint)
        products = d.valid_products()
        assert len(products) == len(set(products))
        for p in products:
            assert evaluate_expr(constraint, p)
        # brute-force the complement
        expected = sum(
            1
            for values in itertools.product((False, True), repeat=3)
            if constraint.evaluate(dict(zip("abc", values)))
        )
        assert len(products) == expected

    def test_enumeration_limit(self):
        d = FeatureDiagram(tuple(f"f{i}" for i in range(30)))
        with pytest.raises(EnumerationLimitError, match="raise the limit"):
            d.valid_products()


class TestRestrict:
    def test_projection(self):
        p = product(W=1, A=0, V=1)
        q = p.restrict(("W", "A"))
        assert q.as_dict() == {"W": True, "A": False}

    def test_full_signature_identity(self):
        p = product(W=1, A=0)
        assert p.restrict(("W", "A")) == p

    def test_empty(self):
        assert product(W=1).restrict(()).names == ()

    def test_idempotent(self):
        p = product(W=1, A=0, V=1)
        assert p.restrict(("W", "A")).restrict(("W", "A")) == p.restrict(("W", "A"))

    def test_unknown_name(self):
        with pytest.raises(UnboundFeatureError):
            product(W=1).restrict(("Z",))


class TestConjoin:
    def test_minepump_style(self):
        d1 = FeatureDiagram(("W", "A"))
        d2 = FeatureDiagram(("V",))
        d = conjoin(d1, d2)
        assert d.signature == ("W", "A", "V")
        assert len(d.valid_products()) == 8

    def test_idempotent(self):
        d = FeatureDiagram(("a", "b"), parse_feature_expression("a -> b"))
        assert set(conjoin(d, d).valid_products()) == set(d.valid_products())

    def test_contradiction(self):
        d1 = FeatureDiagram(("f",), parse_feature_expression("f"))
        d2 = FeatureDiagram(("f",), parse_feature_expression("!f"))
        assert len(conjoin(d1, d2).valid_products()) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_set_definition(self, seed):
        import random

        rng = random.Random(seed)
        names = ["a", "b", "c", "d", "e"]
        sig1 = tuple(rng.sample(names, rng.randint(1, 3)))
        sig2 = tuple(rng.sample(names, rng.randint(1, 3)))

        def random_constraint(sig):
            if rng.random() < 0.3:
                return TRUE
            left = FVar(rng.choice(sig))
            right = FVar(rng.choice(sig))
            return rng.choice([FAnd(left, right), FNot(left), left])

        d1 = FeatureDiagram(sig1, random_constraint(sig1))
        d2 = FeatureDiagram(sig2, random_constraint(sig2))
        combined = conjoin(d1, d2)
        expected = set()
        valid1 = set(d1.valid_products())
        valid2 = set(d2.valid_products())
        for values in itertools.product((False, True), repeat=len(combined.signature)):
            p = Product(combined.signature, values)
            if p.restrict(sig1) in valid1 and p.restrict(sig2) in valid2:
                expected.add(p)
        assert set(combined.valid_products()) == expected


class TestParsing:
    def test_or_parses(self):
        e = parse_feature_expression("!A | W")
        assert evaluate_expr(e, product(A=1, W=1)) is True
        assert evaluate_expr(e, product(A=1, W=0)) is False

    def test_guard_with_negation(self):
        e = parse_feature_expression("spd2 & !very")
        assert evaluate_expr(e, product(spd2=1, very=0)) is True

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_feature_expression("W &")
        assert err.value.column == 4
        assert str(err.value) == "unexpected end of expression at column 4"

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_feature_expression("a @ b")
        assert str(err.value) == "unexpected character '@' at column 3"


# a guard string reports the column of the offending token, and no line
@pytest.mark.parametrize(
    "text, message",
    [
        ("(a | b", "expected ')' at column 7"),
        ("a b", "trailing input 'b' at column 3"),
        ("", "unexpected end of expression at column 1"),
        ("a -> ", "unexpected end of expression at column 6"),
        ("!", "unexpected end of expression at column 2"),
        ("a | 1", "unexpected character '1' at column 5"),
        ("a )", "trailing input ')' at column 3"),
        ("a ^ ^ b", "unexpected token '^' at column 5"),
        ("  (a))", "trailing input ')' at column 6"),
    ],
)
def test_guard_syntax_error_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as err:
        parse_feature_expression(text)
    assert str(err.value) == message


_names = st.sampled_from(["a", "b", "c", "d"])


def _expressions(depth=3):
    leaf = st.one_of(_names.map(FVar), st.just(TRUE))
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            children.map(FNot),
            st.tuples(children, children).map(lambda t: FAnd(*t)),
            st.tuples(children, children).map(
                lambda t: parse_feature_expression(
                    f"({print_expression(t[0])}) | ({print_expression(t[1])})"
                )
            ),
        ),
        max_leaves=8,
    )


@given(_expressions())
def test_print_parse_round_trip(expr):
    assert parse_feature_expression(print_expression(expr)) == expr


@given(_expressions())
def test_substitute_agrees_with_evaluate(expr):
    binding = {"a": True, "b": False}
    reduced = substitute(expr, binding)
    for values in itertools.product((False, True), repeat=4):
        assignment = dict(zip("abcd", values))
        if all(assignment[k] == v for k, v in binding.items()):
            assert reduced.evaluate(assignment) == expr.evaluate(assignment)


class TestGuardBits:
    """A guard as the bitset of the valid products satisfying it."""

    DIAGRAM = FeatureDiagram(
        ("a", "b", "c", "d"), parse_feature_expression("(a -> b | c) & !(c & d)")
    )

    @staticmethod
    def random_expression(rng, depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice([FVar("a"), FVar("b"), FVar("c"), FVar("d"), TRUE, FALSE])
        kind = rng.choice(["!", "&", "|", "^", "->"])
        if kind == "!":
            return FNot(TestGuardBits.random_expression(rng, depth - 1))
        node = {"&": FAnd, "|": FOr, "^": FXor, "->": FImplies}[kind]
        return node(*(TestGuardBits.random_expression(rng, depth - 1) for _ in range(2)))

    def test_equals_per_product_evaluate(self):
        rng = random.Random(20)
        products = self.DIAGRAM.valid_products()
        assert 0 < len(products) < 16
        operators = set()
        for _ in range(300):
            expr = self.random_expression(rng, 4)
            operators.add(type(expr))
            expected = sum(
                1 << i for i, p in enumerate(products) if expr.evaluate(p.as_dict())
            )
            assert self.DIAGRAM.bits(expr) == expected, print_expression(expr)
        assert {FNot, FAnd, FOr, FXor, FImplies} <= operators

    @pytest.mark.parametrize(
        "text", ["missing", "false & missing", "a | !a | missing", "!(missing -> a) ^ b"]
    )
    def test_unbound_feature_is_reported_by_name(self, text):
        # both operands are evaluated, so short-circuiting hides no name
        with pytest.raises(UnboundFeatureError) as err:
            self.DIAGRAM.bits(parse_feature_expression(text))
        assert err.value.name == "missing"
