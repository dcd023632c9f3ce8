"""The JSON report against ``json.dumps(payload, indent=2)`` of its payload.

``render_json`` lays out the report itself and encodes each result's records
in one C encoder pass; the oracle here builds the payload and lets the
standard library lay it out.
"""

import json

import pytest

from featmc import bundled_model_path, load_model
from featmc.dsl import parse_model, print_model_file
from featmc.engines.bounded import check_family_bounded
from featmc.engines.enumerative import check_family_enumerative
from featmc.engines.parametric import check_family_parametric
from featmc.features import Product
from featmc.generators import gen_failure_recovery, gen_service_provider
from featmc.rational import INFINITY, ZERO, rat_str, rational
from featmc.report import JSON_SCHEMA_VERSION, product_label, render_json
from featmc.result import SAT, UNKNOWN, VIOLATED, FamilyResult, ProductOutcome


def oracle(products, results, timings=True) -> str:
    payload = {"schema": JSON_SCHEMA_VERSION, "results": []}
    for result in results:
        entry = {
            "engine": result.engine,
            "property": result.property_text,
            "warnings": list(result.warnings),
            "products": [],
        }
        if timings:
            entry["elapsed_seconds"] = round(result.elapsed, 6)
        for product in products:
            outcome = result.outcomes[product]
            value = outcome.value
            entry["products"].append(
                {
                    "product": product_label(product),
                    "value": None if value is None else outcome.value_str(),
                    "value_float": None if value is None or value == INFINITY else float(value),
                    "verdict": outcome.decision,
                }
            )
            if outcome.error_bound not in (None, 0):
                entry["products"][-1]["error_bound"] = rat_str(outcome.error_bound)
        payload["results"].append(entry)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _reject(constant):
    raise ValueError(f"not strict JSON: {constant}")


def _model(name):
    if name == "failure8":
        return parse_model(print_model_file(gen_failure_recovery(8)))
    if name == "service7":
        return parse_model(print_model_file(gen_service_provider(7)))
    return load_model(bundled_model_path(name))


CASES = [
    ("failure8", "fail_risk"),
    ("failure8", "fail_value"),
    ("service7", "fail_value"),
    ("wiper", "energy"),
    ("wiper", "R=?[F !true]"),
    ("wiper", "fast_next"),
    ("minepump", "risk_value"),
    ("minepump", "pump_risk"),
]


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("name,prop", CASES)
def test_every_engine_matches_the_oracle(name, prop, float_mode):
    built = _model(name)
    prop = built.property_of(prop)
    results = [
        check_family_enumerative(built.system, prop, float_mode=float_mode),
        check_family_parametric(built.system, prop),
        check_family_bounded(built.system, prop),
    ]
    products = built.diagram.valid_products()
    for timings in (True, False):
        text = render_json(products, results, timings)
        assert text == oracle(products, results, timings)
        json.loads(text, parse_constant=_reject)


def _products():
    names = ("a", "b")
    return [Product(names, (i >> 1, i & 1)) for i in range(4)]


def test_no_results_and_no_products():
    assert render_json(_products(), []) == oracle(_products(), [])
    empty = FamilyResult("enumerative", "P=?(F done)", elapsed=0.25)
    for timings in (True, False):
        assert render_json([], [empty], timings) == oracle([], [empty], timings)
        assert render_json([], [empty, empty], timings) == oracle([], [empty, empty], timings)


def test_awkward_values_and_texts():
    products = _products()
    weird = 'P=?(F "é\\\n\tend") ✓'
    outcomes = [
        ProductOutcome(products[0], None, None),
        ProductOutcome(products[1], INFINITY, None),
        ProductOutcome(products[2], rational(1, 3), UNKNOWN, rational(1, 10**6)),
        ProductOutcome(products[3], rational(2), SAT, ZERO),
    ]
    floats = [
        ProductOutcome(products[0], 0.1, VIOLATED),
        ProductOutcome(products[1], INFINITY, None),
        ProductOutcome(products[2], 1e-300, SAT, 1e-12),
        ProductOutcome(products[3], 15.000000000000004, None),
    ]
    results = [
        FamilyResult(
            "bounded",
            weird,
            {o.product: o for o in outcomes},
            elapsed=1.23456789,
            warnings=['a "quoted" \\ warning\non two lines', "ünïcode ∞"],
        ),
        FamilyResult("enumerative", weird, {o.product: o for o in floats}, elapsed=1e-7),
    ]
    for timings in (True, False):
        text = render_json(products, results, timings)
        assert text == oracle(products, results, timings)
        payload = json.loads(text, parse_constant=_reject)
        records = payload["results"][0]["products"]
        assert payload["results"][0]["property"] == weird
        assert [r["value"] for r in records] == [None, "inf", "1/3", "2"]
        assert [r["value_float"] for r in records] == [None, None, 1 / 3, 2.0]
        assert [r.get("error_bound") for r in records] == [None, None, "1/1000000", None]


def test_nan_is_refused():
    product = _products()[0]
    outcomes = {product: ProductOutcome(product, float("nan"))}
    result = FamilyResult("enumerative", "P=?(F x)", outcomes)
    with pytest.raises(ValueError):
        render_json([product], [result])
