"""Command-line interface.

    featmc check MODEL --prop NAME_OR_STRING [--engine enum|param|bounded|all]
    featmc bench --family service --sizes 2,4,6 [--engines ...]
    featmc gen --family failure --n 4 [-o FILE]

Exit codes: 0 on success, 1 when a threshold query left some products
unknown, 2 on usage, parse or model errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

# cli does not call bundled_model_path; perfbench/workloads.py imports it from here
from .dsl import bundled_model_path, load_model, parse_model, print_model_file
from .engines.bounded import check_family_bounded
from .engines.enumerative import check_family_enumerative
from .engines.parametric import ENGINE_NAME, check_family_parametric, rf_to_text
from .errors import FeatmcError
from .generators import gen_failure_recovery, gen_service_provider
from .properties import Prob, RewardQuery
from .rational import rational
from .report import render_csv, render_json, render_table

ENGINE_CHOICES = ("enum", "param", "bounded", "all")

_FAMILIES = {
    "failure": gen_failure_recovery,
    "service": gen_service_provider,
}


def _run_engine(engine: str, model, prop, args):
    if engine == "enum":
        return check_family_enumerative(model, prop, float_mode=args.float_values)
    if engine == "param":
        return check_family_parametric(model, prop)
    if engine == "bounded":
        return check_family_bounded(
            model,
            prop,
            epsilon=args.epsilon,
            bound=args.bound,
            max_depth=args.max_depth,
        )
    raise ValueError(engine)


def _emit_expression(path: str, results: list, prop) -> None:
    """Write the parametric closed form to ``path``, or warn why there is
    none: no parametric engine ran, the query is a plain state formula, or
    some product's value is infinite (the engine has warned which)."""
    param = next((r for r in results if r.engine == ENGINE_NAME), None)
    if param is not None and param.function is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rf_to_text(param.function))
        return
    if param is None:
        reason = "needs the parametric engine (--engine param or all)"
    elif not isinstance(prop, (Prob, RewardQuery)):
        reason = "has no closed form for a plain state formula"
    else:
        reason = "has no closed form: the value is infinite on some product"
    print(f"warning: --emit-expression {reason}; no file written", file=sys.stderr)


def cmd_check(args) -> int:
    built = load_model(args.model)
    prop = built.property_of(args.prop)
    engines = ["enum", "param", "bounded"] if args.engine == "all" else [args.engine]
    results = []
    for engine in engines:
        results.append(_run_engine(engine, built.system, prop, args))
    products = built.diagram.valid_products()
    renderer = {"table": render_table, "csv": render_csv, "json": render_json}[args.format]
    sys.stdout.write(renderer(products, results, timings=not args.no_timings))
    for result in results:
        for warning in result.warnings:
            print(f"warning [{result.engine}]: {warning}", file=sys.stderr)
    if args.emit_expression:
        _emit_expression(args.emit_expression, results, prop)
    unknowns = any(result.unknown_products for result in results)
    return 1 if unknowns else 0


def cmd_bench(args) -> int:
    engines = (
        ["enum", "param", "bounded"]
        if args.engines == "all"
        else args.engines.split(",")
    )
    for engine in engines:
        if engine not in ("enum", "param", "bounded"):
            print(f"error: unknown engine {engine!r}", file=sys.stderr)
            return 2
    generate = _FAMILIES[args.family]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family", "n", "engine", "seconds"])
    for n in args.sizes:
        built = parse_model(print_model_file(generate(n)))
        prop = built.property_of(args.prop)
        for engine in engines:
            started = time.perf_counter()
            _run_engine(engine, built.system, prop, args)
            elapsed = time.perf_counter() - started
            writer.writerow([args.family, n, engine, f"{elapsed:.4f}"])
            sys.stdout.flush()
    return 0


def cmd_gen(args) -> int:
    text = print_model_file(_FAMILIES[args.family](args.n))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_rational(text: str):
    try:
        value = rational(text)
    except (ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)  # a ValueError becomes argparse's usage error
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _sizes(text: str) -> list[int]:
    """Comma-separated feature counts, each at least 0."""
    parse = _int_at_least(0)
    try:
        return [parse(size) for size in text.split(",") if size]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _add_engine_options(parser):
    parser.add_argument(
        "--epsilon", type=_positive_rational, default="1e-3", help="bounded-engine precision"
    )
    parser.add_argument(
        "--bound",
        type=_int_at_least(0),
        default=None,
        help=(
            "fixed number of bounded-engine sweeps for a top-level unbounded until "
            "or reward, instead of --epsilon; nested operators still run to --epsilon"
        ),
    )
    parser.add_argument(
        "--max-depth",
        type=_int_at_least(1),
        default=100_000,
        help="bounded-engine depth ceiling",
    )
    parser.add_argument(
        "--float",
        dest="float_values",
        action="store_true",
        help="float64 state elimination in the enumerative engine",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featmc",
        description="Family-based probabilistic model checking for product lines",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="verify a property on a model file")
    check.add_argument("model", help="path to a .fdl model file")
    check.add_argument("--prop", required=True, help="property name or literal string")
    check.add_argument("--engine", choices=ENGINE_CHOICES, default="all")
    check.add_argument("--format", choices=("table", "csv", "json"), default="table")
    check.add_argument("--emit-expression", default=None, metavar="PATH")
    check.add_argument("--no-timings", action="store_true", help="omit timing rows")
    _add_engine_options(check)
    check.set_defaults(func=cmd_check)

    bench = commands.add_parser("bench", help="time the engines on generated models")
    bench.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    bench.add_argument(
        "--sizes", type=_sizes, default="2,4,6", help="comma-separated feature counts"
    )
    bench.add_argument("--engines", default="all", help="comma-separated engine list")
    bench.add_argument("--prop", default="fail_risk")
    _add_engine_options(bench)
    bench.set_defaults(func=cmd_bench)

    gen = commands.add_parser("gen", help="emit a generated model file")
    gen.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    gen.add_argument("--n", type=_int_at_least(0), required=True, help="feature count")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FeatmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
