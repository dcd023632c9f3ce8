import itertools
import math

import pytest
from hypothesis import given, strategies as st

from featmc.errors import ParseError
from featmc.properties import (
    Atom,
    Interval,
    Next,
    PAnd,
    PNot,
    Prob,
    PTrue,
    RewardQuery,
    TRUE_F,
    Until,
    parse_property,
    parse_tree,
    print_property,
)
from featmc.rational import ONE, ZERO, rational
from featmc.result import SAT, VIOLATED


class TestParsing:
    def test_failure_reachability_threshold(self):
        prop = parse_property("P[<0.1](F failure)")
        assert prop == Prob(
            Interval(ZERO, rational("0.1"), upper_strict=True),
            Until(TRUE_F, Atom("failure"), None),
        )

    def test_trivial_lower_bound(self):
        prop = parse_property("P[>=0](X a)")
        assert prop.interval == Interval(ZERO, ONE)
        assert prop.interval.contains(ZERO) and prop.interval.contains(ONE)

    def test_reward_query(self):
        prop = parse_property("R=?[F end]")
        assert prop == RewardQuery(Atom("end"))

    def test_bounded_until(self):
        prop = parse_property("P=?(a U<=4 b)")
        assert prop.path == Until(Atom("a"), Atom("b"), 4)

    def test_bounded_eventually_is_bounded_until_true(self):
        assert parse_property("P[<0.5](F<=3 x)") == parse_property(
            "P[<0.5](true U<=3 x)"
        )

    def test_closed_interval(self):
        prop = parse_property("P[0.2,0.7](X a)")
        assert prop.interval.contains(rational("0.2"))
        assert prop.interval.contains(rational("0.7"))
        assert not prop.interval.contains(rational("0.71"))

    def test_disjunction_desugars(self):
        prop = parse_property("a | b")
        assert prop == PNot(PAnd(PNot(Atom("a")), PNot(Atom("b"))))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_property("P[<0.1](F ")
        assert err.value.column is not None

    def test_bound_outside_unit_interval(self):
        with pytest.raises(ParseError, match="outside"):
            parse_property("P[<1.5](F a)")

    def test_nested_quantitative_rejected(self):
        with pytest.raises(ParseError, match="outermost"):
            parse_property("P=?(X P=?(X a))")

    def test_empty_interval_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_property("P[0.7,0.2](X a)")


#: a property string reports the column of the offending token, and no line
PINNED_MESSAGES = [
    ("P[<0.1](F a", "expected ')' at column 12"),
    ("P[0.5](F a)", "expected ',' at column 6"),
    ("R=?[F a", "expected ']' at column 8"),
    ("P=?(F a) b", "trailing input after property at column 10"),
    ("P[<0.1](a b)", "expected 'U' in path formula at column 11"),
    ("P[<0.1](X P=?(F a))", "only the outermost operator may be quantitative at column 12"),
    ("P[<](F a)", "expected a number at column 4"),
    ("P=?(F<=1.5 a)", "expected an integer step bound at column 8"),
    ("R=?[a]", "reward queries have the form R=?[F target] at column 5"),
    ("P[<0.1](F $)", "unexpected character '$' at column 11"),
    ("P[<2](F a)", "probability bound outside [0, 1]"),
    ("P[0.5,0.2](F a)", "empty probability interval"),
    ("", "unexpected end of property at column 1"),
    ("a &", "unexpected end of property at column 4"),
    ("P=?(X 5)", "unexpected token '5' at column 7"),
    ("  P=?(F a))", "trailing input after property at column 11"),
    ("R=?[F a] b", "trailing input after reward query at column 10"),
]


@pytest.mark.parametrize("text, message", PINNED_MESSAGES)
def test_syntax_error_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as err:
        parse_property(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("P[<1/0](F a)", "malformed number '1/0' at column 4"),
        ("P[<0.5/2](F a)", "malformed number '0.5/2' at column 4"),
        ("P[0.1,2/0](F a)", "malformed number '2/0' at column 7"),
    ],
)
def test_malformed_number_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_property(text)
    assert str(err.value) == message


class TestParseTree:
    def test_atomic(self):
        assert parse_tree(Atom("a")) == [Atom("a")]

    def test_negated_conjunction(self):
        formula = parse_property("!a & b")
        nodes = parse_tree(formula)
        assert nodes == [Atom("a"), PNot(Atom("a")), Atom("b"), formula]

    def test_threshold_formula_lists_operands_first(self):
        formula = parse_property("P[<0.1](F failure)")
        nodes = parse_tree(formula)
        assert nodes[0] == TRUE_F
        assert nodes[1] == Atom("failure")
        assert nodes[-1] == formula

    def test_children_precede_parents(self):
        formula = parse_property("P[>0.5]((a & b) U (!a))")
        nodes = parse_tree(formula)
        index = {node: i for i, node in enumerate(nodes)}
        assert index[Atom("a")] < index[PAnd(Atom("a"), Atom("b"))]
        assert index[Atom("a")] < index[PNot(Atom("a"))]
        assert index[PAnd(Atom("a"), Atom("b"))] < index[formula]


# ---------------------------------------------------------------------------
# Round trips over random formulae
# ---------------------------------------------------------------------------

_atoms = st.sampled_from(["a", "b", "failure", "end"])
_bounds = st.sampled_from(["<0.1", "<=0.5", ">0.25", ">=1", "1/8,3/4"])


def _state_formulae():
    leaves = st.one_of(_atoms.map(Atom), st.just(TRUE_F))

    def extend(children):
        paths = st.one_of(
            children.map(Next),
            st.tuples(children, children, st.sampled_from([None, 0, 3])).map(
                lambda t: Until(*t)
            ),
        )
        return st.one_of(
            children.map(PNot),
            st.tuples(children, children).map(lambda t: PAnd(*t)),
            st.tuples(_bounds, paths).map(
                lambda t: Prob(_interval_of(t[0]), t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _interval_of(text):
    prop = parse_property(f"P[{text}](X a)")
    return prop.interval


@given(_state_formulae())
def test_print_parse_identity(formula):
    assert parse_property(print_property(formula)) == formula


@given(_state_formulae())
def test_reward_query_round_trip(formula):
    query = RewardQuery(formula)
    if isinstance(formula, Prob) and formula.interval is None:
        return  # P=? cannot nest inside R=?
    assert parse_property(print_property(query)) == query


HALF, TENTH = rational(1, 2), rational(1, 10)


def _shapes():
    """Every interval shape, at a dyadic bound (1/2) and a non-dyadic one
    (1/10): ``<``, ``<=``, ``>`` and ``>=`` of either, and ``[1/10, 1/2]``
    closed, open and half-open."""
    out = []
    for b in (HALF, TENTH):
        out += [
            Interval(ZERO, b, upper_strict=True),
            Interval(ZERO, b),
            Interval(b, ONE, lower_strict=True),
            Interval(b, ONE),
        ]
    return out + [Interval(TENTH, HALF, *strict) for strict in itertools.product((False, True), repeat=2)]


def _near_bounds():
    """Each bound exactly, and the floats one ulp below and above it; the
    float nearest 1/10 is not 1/10 but lies above it."""
    values = [ZERO, ONE]
    for b in (HALF, TENTH):
        values += [b, float(b), math.nextafter(float(b), 0), math.nextafter(float(b), 1)]
    return values


def _exact(value):
    """A value as the backend's rational, exactly; a float's too."""
    return rational(*value.as_integer_ratio()) if isinstance(value, float) else value


def _ratio(value) -> tuple[int, int]:
    return value.as_integer_ratio() if isinstance(value, float) else (value.numerator, value.denominator)


class TestIntegerDecision:
    """:meth:`Interval.admits` decides integer lanes as :meth:`Interval.decide`
    decides their exact rationals, on every interval shape and at values on
    and one ulp beside each bound: one lane at a time (one shared
    denominator, the scaled bounds) and all lanes at once (mixed
    denominators, cross-multiplication)."""

    @staticmethod
    def expected(interval, pairs):
        decisions = [interval.decide(_exact(a), _exact(b)) for a, b in pairs]
        return bytes(d == SAT for d in decisions), bytes(d != VIOLATED for d in decisions)

    @staticmethod
    def lanes(pairs):
        """Per pair, its low and high numerators over one denominator."""
        low, high, den = [], [], []
        for a, b in pairs:
            (an, ad), (bn, bd) = _ratio(a), _ratio(b)
            d = math.lcm(ad, bd)
            low.append(an * (d // ad))
            high.append(bn * (d // bd))
            den.append(d)
        return low, high, den

    @pytest.mark.parametrize("interval", _shapes(), ids=str)
    def test_exact_values(self, interval):
        values = _near_bounds()
        pairs = [(v, v) for v in values]
        want = self.expected(interval, pairs)
        assert set(want[0]) == {0, 1}
        low, _, den = self.lanes(pairs)
        assert interval.admits(low, low, den) == want
        assert interval.admits(low, list(low), den) == want  # equal, not one object
        for k, v in enumerate(values):
            assert interval.admits(low[k : k + 1], low[k : k + 1], den[k : k + 1]) == (
                want[0][k : k + 1],
                want[1][k : k + 1],
            ), (interval, v)

    @pytest.mark.parametrize("interval", _shapes(), ids=str)
    def test_value_intervals(self, interval):
        values = sorted(_near_bounds(), key=_exact)
        pairs = list(itertools.combinations_with_replacement(values, 2))
        want = self.expected(interval, pairs)
        assert set(want[0]) == {0, 1}
        assert any(p and not s for s, p in zip(*want))  # some straddle a bound: unknown
        low, high, den = self.lanes(pairs)
        assert interval.admits(low, high, den) == want
        # every lane over one denominator: the scaled bounds decide them
        shared = math.lcm(*den)
        scale = [shared // d for d in den]
        low = [*map(int.__mul__, low, scale)]
        high = [*map(int.__mul__, high, scale)]
        assert interval.admits(low, high, [shared] * len(den)) == want

    def test_no_lanes(self):
        assert Interval(ZERO, HALF).admits([], [], []) == (b"", b"")
