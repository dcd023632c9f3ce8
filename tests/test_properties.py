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
    quantitative_mode,
)
from featmc.rational import ONE, ZERO, rational


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


class TestQuantitative:
    def test_value_queries(self):
        assert quantitative_mode(parse_property("P=?(F failure)"))
        assert quantitative_mode(parse_property("R=?[F end]"))

    def test_threshold_is_not_quantitative(self):
        assert not quantitative_mode(parse_property("P[<0.1](F failure)"))


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
    if quantitative_mode(formula):
        return  # P=? cannot nest inside R=?
    assert parse_property(print_property(query)) == query
