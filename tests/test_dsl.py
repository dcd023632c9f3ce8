import pytest

from featmc.dsl import (
    load_model,
    parse_model,
    parse_model_file,
    print_model_file,
)
from featmc.errors import ModelError, ParseError
from featmc.features import Product
from featmc.models import validate_fdtmc
from featmc.profiles import to_dense
from featmc.rational import ONE, ZERO, rational
from featmc import bundled_model_path


MINIMAL = """
features f;

fdtmc M {
  states a b;
  init a;
  label b: goal;
  a -> b : [f] 0.5, 0.25;
  b -> b : 1;
}

system = M;
property reach = "P=?(F goal)";
"""


class TestParsing:
    def test_minimal_model(self):
        built = parse_model(MINIMAL)
        assert built.system.states == ("a", "b")
        assert len(built.diagram.valid_products()) == 2

    def test_implicit_selfloop_carries_missing_mass(self):
        built = parse_model(MINIMAL)
        profile = built.system.transitions[("a", "a")]
        with_f = Product(("f",), (True,))
        without = Product(("f",), (False,))
        assert profile.evaluate(with_f) == rational("0.5")
        assert profile.evaluate(without) == rational("0.75")

    def test_bare_state_gets_a_self_loop(self):
        text = """
fdtmc M {
  states a b;
  init a;
  label b: goal;
  a -> b : 0.5;
}

system = M;
"""
        transitions = parse_model(text).system.transitions
        assert set(transitions) == {("a", "b"), ("a", "a"), ("b", "b")}
        assert to_dense(transitions[("a", "a")]).values == (rational("0.5"),)
        assert to_dense(transitions[("b", "b")]).values == (ONE,)

    def test_block_without_transitions_loops_every_state(self):
        text = "fdtmc M {\n  states a b;\n  init a;\n}\n"
        transitions = parse_model(text).system.transitions
        assert list(transitions) == [("a", "a"), ("b", "b")]
        assert all(to_dense(p).values == (ONE,) for p in transitions.values())

    def test_fmdp_row_over_one_names_its_observation_class(self):
        text = """
features f;

fmdp M {
  states a b;
  init a;
  a -(t | obs: p)-> b : [f] 0.75, 0.5;
  a -(t)-> a : 0.5;
}
"""
        with pytest.raises(
            ModelError,
            match=r"^component M, state a, action t, observation \{'p': True\}: "
            r"outgoing probability exceeds 1 for products \{f\}$",
        ):
            parse_model(text)

    def test_completion_leaves_exact_rows_alone(self):
        text = MINIMAL.replace("a -> b : [f] 0.5, 0.25;", "a -> b : 1;")
        built = parse_model(text)
        assert ("a", "a") not in built.system.transitions

    def test_overfull_row_is_rejected_with_products(self):
        text = MINIMAL.replace(
            "a -> b : [f] 0.5, 0.25;",
            "a -> b : [f] 0.9, 0.25;\n  a -> a : 0.2;",
        )
        with pytest.raises(ModelError, match=r"exceeds 1 for products \{f\}"):
            parse_model(text)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_model("features f;\nfdtmc M {")
        assert err.value.line == 2

    def test_decimals_parse_exactly(self):
        built = parse_model(MINIMAL)
        profile = built.system.transitions[("a", "b")]
        assert profile.evaluate(Product(("f",), (False,))) == rational(1, 4)

    def test_fraction_syntax(self):
        text = MINIMAL.replace("[f] 0.5, 0.25", "[f] 1/2, 1/4")
        built = parse_model(text)
        profile = built.system.transitions[("a", "b")]
        assert profile.evaluate(Product(("f",), (True,))) == rational(1, 2)

    def test_axiom_violation_reported(self):
        # explicit self-loop plus auto-completion cannot rescue a row that
        # exceeds one
        text = MINIMAL.replace("b -> b : 1;", "b -> b : 1; b -> a : 0.25;")
        with pytest.raises(ModelError, match="exceeds 1"):
            parse_model(text)

    def test_init_distribution(self):
        text = MINIMAL.replace("init a;", "init a [0.5], b [0.5];")
        built = parse_model(text)
        assert built.system.init == {"a": rational("0.5"), "b": rational("0.5")}
        assert validate_fdtmc(built.system).ok


MALFORMED = """features f g;
constraint {constraint};

fmdp M {{
  states a b;
  init {init};
  a -(t | obs: {obs})-> b : [{guard}] {value};
}}
"""


def malformed(**slots) -> str:
    fields = dict(constraint="f | g", init="a", obs="f", guard="g", value="0.5")
    fields.update(slots)
    return MALFORMED.format(**fields)


class TestSyntaxErrors:
    def test_template_parses(self):
        assert len(parse_model_file(malformed()).components) == 1

    def test_guard_ending_in_a_parenthesis_before_an_arrow(self):
        """``)`` and ``->`` are separate tokens, so an implication whose
        premise ends in ``)`` needs no space before its arrow, and a
        labelled arrow still reads ``)`` and ``->`` in turn."""
        tight = parse_model_file(malformed(guard="(f)->g"))
        spaced = parse_model_file(malformed(guard="(f) -> g"))
        assert tight == spaced
        assert str(tight.components[0].transitions[0].cases[0].guard) == "f -> g"
        for obs in ("g", "(g)"):
            labelled = parse_model_file(malformed(obs=obs)).components[0].transitions[0]
            assert (labelled.action, str(labelled.obs), labelled.target) == ("t", "g", "b")

    @pytest.mark.parametrize(
        "slot, text, message, line, column",
        [
            ("init", "a [x]", "expected a number", 6, 11),
            ("init", "a [1/0]", "malformed number '1/0'", 6, 11),
            ("init", "a [0.5/2]", "malformed number '0.5/2'", 6, 11),
            ("init", "a [1/2], b [1/0]", "malformed number '1/0'", 6, 20),
            ("value", "1/0", "malformed number '1/0'", 7, 29),
            ("value", "0.5/2", "malformed number '0.5/2'", 7, 29),
        ],
    )
    def test_malformed_number_is_a_parse_error_at_its_token(
        self, slot, text, message, line, column
    ):
        with pytest.raises(ParseError) as err:
            parse_model_file(malformed(**{slot: text}))
        assert str(err.value) == f"{message} at line {line}, column {column}"
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "slot, text, message, line, column",
        [
            # [guard]: the guard starts at line 7, column 26
            ("guard", "f & & g", "unexpected token '&'", 7, 30),
            ("guard", "f g", "expected ']'", 7, 28),
            ("guard", "f | 1", "unexpected token '1'", 7, 30),
            ("guard", "(f", "expected ')'", 7, 28),
            ("guard", "", "unexpected token ']'", 7, 26),
            # obs: guard, read up to ")" and "->"; it starts at line 7, column 16
            ("obs", "f &", "unexpected token ')'", 7, 19),
            # "(f)-> b" reads as an implication, so the ")" is missing at ":"
            ("obs", "(f", "expected ')'", 7, 24),
            ("obs", "f || g", "expected ')'", 7, 18),
            # constraint guard;, which starts at line 2, column 12
            ("constraint", "f -> -> g", "unexpected token '->'", 2, 17),
            ("constraint", "f g", "expected ';'", 2, 14),
            ("constraint", "(f", "expected ')'", 2, 14),
        ],
    )
    def test_guard_error_names_the_offending_token_once(
        self, slot, text, message, line, column
    ):
        with pytest.raises(ParseError) as err:
            parse_model_file(malformed(**{slot: text}))
        assert str(err.value) == f"{message} at line {line}, column {column}"
        assert (err.value.line, err.value.column) == (line, column)


class TestBundledFixtures:
    def test_wiper_structure(self, wiper):
        assert wiper.system.states == ("off", "on", "fast", "end")
        assert len(wiper.diagram.valid_products()) == 8
        assert validate_fdtmc(wiper.system).ok
        assert wiper.system.rewards is not None

    def test_minepump_structure(self, minepump):
        assert len(minepump.system.states) == 24
        assert len(minepump.diagram.valid_products()) == 8
        assert validate_fdtmc(minepump.system).ok

    def test_minepump_products_differ_in_reachable_behaviour(self, minepump):
        # a product without the water sensor never runs the pump
        from featmc.models import project

        no_sensor = Product(("W", "A", "V"), (False, False, False))
        dtmc = project(minepump.system, no_sensor)
        running = {
            s for s in dtmc.states if "pumpOn" in dtmc.labels[s]
        }
        reachable = set()
        frontier = [s for s, w in dtmc.init.items() if w != 0]
        while frontier:
            s = frontier.pop()
            if s in reachable:
                continue
            reachable.add(s)
            frontier.extend(t for t, p in dtmc.out_edges(s) if p != 0)
        assert not (running & reachable)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["wiper", "minepump"])
    def test_bundled_fixture_round_trip(self, name):
        text = bundled_model_path(name).read_text(encoding="utf-8")
        first = parse_model_file(text)
        printed = print_model_file(first)
        second = parse_model_file(printed)
        assert first == second
        assert print_model_file(second) == printed

    def test_minimal_round_trip(self):
        first = parse_model_file(MINIMAL)
        assert parse_model_file(print_model_file(first)) == first

    def test_composed_round_trip_preserves_system_expr(self):
        text = bundled_model_path("minepump").read_text(encoding="utf-8")
        tree = parse_model_file(text)
        assert "complete(Controller) |> (Methane || Water)" in print_model_file(tree)
