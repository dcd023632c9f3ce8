"""Result rendering: aligned tables, CSV and versioned JSON.

Output is deterministic for identical inputs apart from the timing columns,
which callers may suppress.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .features import Product
from .rational import INFINITY, as_float, rat_str
from .result import FamilyResult, UNKNOWN

JSON_SCHEMA_VERSION = 1

#: Relative distance within which a float value agrees with an exact one.
FLOAT_RTOL = 1e-9


def product_label(product: Product) -> str:
    on = [name for name in product.names if product[name]]
    return "{" + ",".join(on) + "}"


def _decision_text(decision: str | None) -> str:
    return decision if decision is not None else "-"


def _rows(products: Sequence[Product], results: Sequence[FamilyResult], timings: bool):
    header = ["product"]
    for result in results:
        header.append(f"{result.engine}:value")
        header.append(f"{result.engine}:verdict")
    if len(results) > 1:
        header.append("agreement")
    rows = [header]
    for product in products:
        row = [product_label(product)]
        values = []
        for result in results:
            outcome = result.outcomes[product]
            if outcome.error_bound not in (None, 0):
                # approximations print as decimals; exact values stay exact
                text = f"{as_float(outcome.value):.9g} ±{as_float(outcome.error_bound):.2g}"
            else:
                text = outcome.value_str()
            row.append(text)
            row.append(_decision_text(outcome.decision))
            values.append(outcome)
        if len(results) > 1:
            row.append("yes" if _agree(values) else "DISAGREE")
        rows.append(row)
    if timings:
        timing_row = ["(seconds)"]
        for result in results:
            timing_row.append(f"{result.elapsed:.3f}")
            timing_row.append("")
        if len(results) > 1:
            timing_row.append("")
        rows.append(timing_row)
    return rows


def _is_float_mode(value) -> bool:
    """A float-mode value: a float other than the INFINITY sentinel."""
    return isinstance(value, float) and value != INFINITY


def _agree(outcomes) -> bool:
    """Engines agree when decisions match up to unknowns and the numeric
    values fit inside every reported error bound.  A float value (float
    mode) only has to match the exact reference to :data:`FLOAT_RTOL`."""
    decisions = {o.decision for o in outcomes if o.decision not in (None, UNKNOWN)}
    if len(decisions) > 1:
        return False
    exact = [o for o in outcomes if o.value is not None and o.error_bound in (None, 0)]
    if exact:
        reference = next(
            (o.value for o in exact if not _is_float_mode(o.value)), exact[0].value
        )
        for o in exact:
            if o.value == reference:
                continue
            if not _is_float_mode(o.value) or reference == INFINITY:
                return False
            if abs(o.value - reference) > FLOAT_RTOL * abs(reference):
                return False
        for o in outcomes:
            if o.value is None or o.error_bound in (None, 0):
                continue
            if reference == INFINITY or o.value == INFINITY:
                if reference != o.value:
                    return False
                continue
            if abs(o.value - reference) > o.error_bound:
                return False
    return True


def render_table(products, results, timings: bool = True) -> str:
    rows = _rows(products, results, timings)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(row))).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(products, results, timings: bool = True) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in _rows(products, results, timings):
        writer.writerow(row)
    return buffer.getvalue()


def render_json(products, results, timings: bool = True) -> str:
    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "results": [],
    }
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
            record = {
                "product": product_label(product),
                "value": None if outcome.value is None else outcome.value_str(),
                "value_float": (
                    None if outcome.value is None else as_float(outcome.value)
                ),
                "verdict": outcome.decision,
            }
            if outcome.error_bound not in (None, 0):
                record["error_bound"] = rat_str(outcome.error_bound)
            if outcome.fallback:
                record["fallback"] = True
            entry["products"].append(record)
        payload["results"].append(entry)
    return json.dumps(payload, indent=2) + "\n"
