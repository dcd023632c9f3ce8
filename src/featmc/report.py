"""Result rendering: aligned tables, CSV and versioned JSON.

Output is deterministic for identical inputs apart from the timing columns,
which callers may suppress.

The JSON report is, byte for byte, ``json.dumps(payload, indent=2,
allow_nan=False) + "\n"`` of a payload ``{"schema", "results"}`` with one
entry per result (engine, property, warnings, one record per product and,
with timings, the elapsed seconds): the standard two-space layout, and
strict JSON, so ``value_float`` is null where ``value`` is ``inf``.  It is
not written by ``json.dumps``, whose ``indent`` makes CPython encode every
token in Python.  Each result's records, flat dicts of scalars, go through
the C encoder in one call whose item separator carries the newline and the
indent of a record field; :func:`_json_records` then breaks the lines at the
record boundaries, and the few outer levels are laid out here.  That is
sound because the encoder escapes every newline inside a string, so every
newline in its output is structural.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import compress
from typing import Sequence

from .features import Product
from .rational import INFINITY, rat_str
from .result import FamilyResult, UNKNOWN

JSON_SCHEMA_VERSION = 1

#: Relative distance within which a float value agrees with an exact one.
FLOAT_RTOL = 1e-9


def product_label(product: Product) -> str:
    return "{" + ",".join(compress(product.names, product.values)) + "}"


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
            if outcome.error_bound:
                # approximations print as decimals; exact values stay exact
                text = f"{float(outcome.value):.9g} ±{float(outcome.error_bound):.2g}"
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
    exact = [o for o in outcomes if o.value is not None and not o.error_bound]
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
            if o.value is None or not o.error_bound:
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


#: Indents of the JSON layout: a result entry's fields, a product record
#: and a record's fields.
_ENTRY_PAD, _RECORD_PAD, _FIELD_PAD = " " * 6, " " * 8, " " * 10

_encode = json.JSONEncoder(allow_nan=False).encode
_encode_records = json.JSONEncoder(separators=(",\n" + _FIELD_PAD, ": "), allow_nan=False).encode


def _json_list(items: list[str], pad: str) -> str:
    """The array of the encoded ``items`` as ``indent=2`` lays it out when
    it opens on a line indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _json_records(products, labels: list[str], result: FamilyResult) -> str:
    """A result's ``products`` array: one record per product, encoded in one
    C encoder call and then broken into lines at the record boundaries, the
    only ``},`` followed by a newline the encoder writes."""
    records = []
    for product, label in zip(products, labels):
        outcome = result.outcomes[product]
        value = outcome.value
        number = INFINITY if value is None else value
        if not isinstance(number, float):
            # float(value): int true division is correctly rounded
            number = int(value.numerator) / int(value.denominator)
        record = {
            "product": label,
            "value": None if value is None else rat_str(value),
            # strict JSON has no Infinity: an infinite value has no float
            "value_float": None if number == INFINITY else number,
            "verdict": outcome.decision,
        }
        if outcome.error_bound:
            record["error_bound"] = rat_str(outcome.error_bound)
        records.append(record)
    if not records:
        return "[]"
    body = _encode_records(records)[2:-2].replace(
        "},\n" + _FIELD_PAD + "{",
        f"\n{_RECORD_PAD}}},\n{_RECORD_PAD}{{\n{_FIELD_PAD}",
    )
    return f"[\n{_RECORD_PAD}{{\n{_FIELD_PAD}{body}\n{_RECORD_PAD}}}\n{_ENTRY_PAD}]"


def render_json(products, results, timings: bool = True) -> str:
    labels = [product_label(product) for product in products]
    entries = []
    for result in results:
        fields = {
            "engine": _encode(result.engine),
            "property": _encode(result.property_text),
            "warnings": _json_list([_encode(w) for w in result.warnings], _ENTRY_PAD),
            "products": _json_records(products, labels, result),
        }
        if timings:
            fields["elapsed_seconds"] = _encode(round(result.elapsed, 6))
        lines = ",\n".join(f'{_ENTRY_PAD}"{key}": {text}' for key, text in fields.items())
        entries.append(f"{{\n{lines}\n    }}")
    results_text = _json_list(entries, "  ")
    return f'{{\n  "schema": {JSON_SCHEMA_VERSION},\n  "results": {results_text}\n}}\n'
