import csv
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from featmc import bundled_model_path, cli
from featmc.cli import main
from featmc.dsl import print_model_file
from featmc.generators import gen_service_provider
from featmc.report import product_label


@pytest.fixture()
def wiper_path():
    return str(bundled_model_path("wiper"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_all_engines_agree_on_wiper_energy(self, capsys, wiper_path):
        code, out, err = run_cli(
            capsys, "check", wiper_path, "--prop", "energy", "--engine", "all",
            "--format", "table",
        )
        assert code == 0
        assert "26.25" in out.replace("105/4", "26.25")
        assert "DISAGREE" not in out

    def test_float_values_agree_within_rounding(self, capsys, wiper_path):
        # float elimination gives e.g. 15.000000000000004 where the exact
        # value is 15; that is agreement, not a disagreement
        code, out, _ = run_cli(
            capsys, "check", wiper_path, "--prop", "energy", "--engine", "all",
            "--float", "--format", "csv", "--no-timings",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert [row[-1] for row in rows[1:]] == ["yes"] * 8

    @pytest.mark.parametrize("prop", ["end", "P=?(F !true)", "R=?[F !true]"])
    def test_every_engine_answers_plain_and_empty_target_queries(
        self, capsys, wiper_path, prop
    ):
        code, out, _ = run_cli(
            capsys, "check", wiper_path, "--prop", prop, "--engine", "all",
            "--format", "csv", "--no-timings",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert [row[-1] for row in rows[1:]] == ["yes"] * 8

    def test_float_agreement_is_relative_and_exact_stays_exact(self):
        from featmc.rational import INFINITY, rational
        from featmc.report import FLOAT_RTOL, _agree
        from featmc.result import ProductOutcome

        def agree(*values):
            return _agree([ProductOutcome(None, value=v) for v in values])

        exact = rational(15)
        assert agree(15.000000000000004, exact)
        assert agree(exact, 15 * (1 + FLOAT_RTOL / 2))
        assert not agree(exact, 15 * (1 + 2 * FLOAT_RTOL))
        assert not agree(exact, rational(15) + rational(1, 10**12))
        assert not agree(INFINITY, 1e300)
        assert agree(INFINITY, INFINITY)

    def test_json_schema_versioned(self, capsys, wiper_path):
        code, out, _ = run_cli(
            capsys, "check", wiper_path, "--prop", "energy", "--engine", "enum",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert len(payload["results"][0]["products"]) == 8

    def test_csv_parses_with_header(self, capsys, wiper_path):
        code, out, _ = run_cli(
            capsys, "check", wiper_path, "--prop", "energy", "--engine", "param",
            "--format", "csv", "--no-timings",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "product"
        assert len(rows) == 9

    def test_property_literal_string(self, capsys, wiper_path):
        code, out, _ = run_cli(
            capsys, "check", wiper_path, "--prop", "P[>=1](F end)",
            "--engine", "enum",
        )
        assert code == 0
        assert "violated" not in out

    def test_bad_property_exits_2(self, capsys, wiper_path):
        code, _, err = run_cli(
            capsys, "check", wiper_path, "--prop", "P[<0.1](F ", "--engine", "enum"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "option",
        [
            ("--epsilon", "0"),
            ("--epsilon", "abc"),
            ("--bound", "-1"),
            ("--max-depth", "0"),
        ],
    )
    def test_invalid_engine_limit_is_a_usage_error(self, capsys, wiper_path, option):
        code, out, err = run_cli(
            capsys, "check", wiper_path, "--prop", "finishes", "--engine", "bounded", *option
        )
        assert code == 2
        assert out == ""
        assert f"argument {option[0]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bad, position",
        [
            ("init a [1/0];", "line 4, column 11"),
            ("init a [0.5/2];", "line 4, column 11"),
            ("init a [x];", "line 4, column 11"),
            ("init a; a -> b : [(f] 0.5;", "line 4, column 23"),
        ],
    )
    def test_malformed_model_exits_2_with_a_position(self, capsys, tmp_path, bad, position):
        target = tmp_path / "bad.fdl"
        target.write_text(
            "features f;\nfdtmc M {\n  states a b;\n  " + bad + "\n}\n"
        )
        code, out, err = run_cli(capsys, "check", str(target), "--prop", "P=?(F a)")
        assert code == 2
        assert out == ""
        assert f"at {position}" in err
        assert "Traceback" not in err

    def test_malformed_number_in_a_property_exits_2(self, capsys, wiper_path):
        code, _, err = run_cli(
            capsys, "check", wiper_path, "--prop", "P[<1/0](F end)", "--engine", "enum"
        )
        assert code == 2
        assert "malformed number '1/0' at column 4" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent.fdl", "--prop", "x")
        assert code == 2

    def test_emit_expression(self, capsys, wiper_path, tmp_path):
        target = tmp_path / "expr.txt"
        code, _, _ = run_cli(
            capsys, "check", wiper_path, "--prop", "energy", "--engine", "param",
            "--emit-expression", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert "/" in text and "spd2" in text

    def test_diverging_reward_exits_0_with_all_engines(self, capsys, tmp_path):
        model = tmp_path / "diverge.fdl"
        model.write_text(
            "features f;\n"
            "fdtmc M {\n"
            "  states a trap goal;\n"
            "  init a;\n"
            "  label goal: goal;\n"
            "  a -> goal : [f] 0.5, 1;\n"
            "  a -> trap : [f] 0.5, 0;\n"
            "  trap -> trap : 1;\n"
            "  goal -> goal : 1;\n"
            "  reward a : 1;\n"
            "}\n"
            "system = M;\n"
        )
        code, out, err = run_cli(
            capsys, "check", str(model), "--prop", "R=?[F goal]", "--engine", "all",
            "--format", "csv", "--no-timings",
        )
        assert code == 0
        assert "DISAGREE" not in out
        assert "inf" in out
        assert "{f}" in err

    def test_deterministic_output(self, capsys, wiper_path):
        args = (
            "check", wiper_path, "--prop", "energy", "--engine", "all",
            "--format", "csv", "--no-timings",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestGen:
    def test_gen_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "service", "--n", "2")
        assert code == 0
        assert "fdtmc Provider" in out

    def test_gen_to_file_checks(self, capsys, tmp_path):
        target = tmp_path / "svc.fdl"
        run_cli(capsys, "gen", "--family", "service", "--n", "2", "-o", str(target))
        code, out, _ = run_cli(
            capsys, "check", str(target), "--prop", "fail_risk", "--engine", "all"
        )
        assert code == 0
        assert "DISAGREE" not in out

    @pytest.mark.parametrize("n", ["-1", "x"])
    def test_invalid_feature_count_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "gen", "--family", "service", "--n", n)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "argument --n" in err
        assert "Traceback" not in err


class TestBench:
    def test_bench_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "service", "--sizes", "2",
            "--engines", "enum,param,bounded",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "engine", "seconds"]
        assert [r[2] for r in rows[1:]] == ["enum", "param", "bounded"]
        for row in rows[1:]:
            float(row[3])

    @pytest.mark.parametrize("sizes", ["2,x", "2,-1"])
    def test_invalid_sizes_are_a_usage_error(self, capsys, sizes):
        code, out, err = run_cli(
            capsys, "bench", "--family", "service", "--sizes", sizes, "--engines", "bounded"
        )
        assert code == 2
        assert out == ""
        assert "usage:" in err and "argument --sizes" in err
        assert "Traceback" not in err


class TestUnknownExitCode:
    def test_threshold_pinned_at_exact_value_stays_unknown(self, capsys, tmp_path):
        from featmc.dsl import build_model, print_model_file
        from featmc.engines.parametric import check_family_parametric
        from featmc.generators import gen_service_provider
        from featmc.rational import rat_str

        source = gen_service_provider(1)
        built = build_model(source)
        exact = check_family_parametric(built.system, "P=?(F failure)")
        enabled = next(
            o.value for p, o in exact.outcomes.items() if p["f1"]
        )
        target = tmp_path / "svc.fdl"
        target.write_text(print_model_file(source))
        code, out, err = run_cli(
            capsys,
            "check", str(target),
            "--prop", f"P[<{rat_str(enabled)}](F failure)",
            "--engine", "bounded",
        )
        assert code == 1
        assert "unknown" in out


def _exact(text: str) -> Fraction:
    """A printed ``n`` or ``n/d`` read back exactly (``int`` of a string
    refuses more than 4300 digits, ``Decimal`` does not)."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def _recorded_results(monkeypatch) -> list:
    """The results of every engine run the CLI makes from now on."""
    results = []
    run = cli._run_engine

    def recording(*args):
        results.append(run(*args))
        return results[-1]

    monkeypatch.setattr(cli, "_run_engine", recording)
    return results


def _polynomial_terms(text: str) -> list[tuple[int, list[str]]]:
    """The ``(coefficient, features)`` terms of a printed polynomial with
    integer coefficients, such as ``3*a*b - c + 5``."""
    terms, sign = [], 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        factors = token.split("*")
        coeff = int(Decimal(factors.pop(0))) if factors[0].isdigit() else 1
        terms.append((sign * coeff, factors))
    return terms


class TestExactNumbersInFull:
    """Values, error bounds and the emitted expression print every digit,
    past the 4300 digits ``str`` of an int stops at."""

    def test_step_bounded_value_with_thousands_of_digits(self, capsys, monkeypatch, wiper_path):
        results = _recorded_results(monkeypatch)
        code, out, err = run_cli(
            capsys, "check", wiper_path, "--prop", "P=?(true U<=8000 end)", "--engine", "enum"
        )
        assert code == 0, err
        rows = [line.split() for line in out.splitlines()[2:-1]]
        (result,) = results
        assert len(rows) == len(result.outcomes)
        for (label, value, _), (product, outcome) in zip(rows, result.outcomes.items()):
            assert label == product_label(product)
            assert _exact(value) == outcome.value
        assert max(len(row[1]) for row in rows) > 8000

    def test_emitted_expression_with_thousands_of_digits(self, capsys, monkeypatch, tmp_path):
        model, expression = tmp_path / "f9.fdl", tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "gen", "--family", "failure", "--n", "9")
        model.write_text(out)
        results = _recorded_results(monkeypatch)
        code, out, err = run_cli(
            capsys, "check", str(model), "--prop", "fail_value", "--engine", "param",
            "--emit-expression", str(expression),
        )
        assert code == 0, err
        numerator, denominator = expression.read_text().splitlines()
        assert numerator.startswith("(") and numerator.endswith(")")
        assert denominator.startswith("/ ")
        den = int(Decimal(denominator[2:]))
        assert len(denominator) - 2 > 4300
        terms = _polynomial_terms(numerator[1:-1])
        (result,) = results
        rows = [line.split() for line in out.splitlines()[2:-1]]
        assert len(rows) == len(result.outcomes)
        for (_, value, _), (product, outcome) in zip(rows, result.outcomes.items()):
            assert _exact(value) == outcome.value
            at_product = sum(c for c, names in terms if all(product[n] for n in names))
            assert Fraction(at_product, den) == outcome.value
