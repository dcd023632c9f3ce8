"""Record the exact reference values the benchmark checks every verdict against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs the enumerative and the parametric engine on every (model, property) of
every workload, quick ones included, and writes expected.json.  A product is
recorded only where both engines agree exactly; any other is reported here
and left out, so the benchmark counts its verdicts as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    from featmc import dsl, report

    pairs = {}
    for table in (workloads.WORKLOADS, workloads.QUICK_WORKLOADS):
        for models in table.values():
            for spec in models:
                for prop in spec.properties:
                    pairs[(spec.key, prop)] = spec
    expected: dict = {}
    disagreements = 0
    for (key, prop), spec in sorted(pairs.items()):
        model = dsl.build_model(dsl.parse_model_file(workloads.model_text(spec)))
        text = model.properties[prop]
        enum = workloads.run_engine("enum", model.system, text)
        param = workloads.run_engine("param", model.system, text)
        values = {}
        for product in model.system.diagram.valid_products():
            a, b = enum.outcomes[product], param.outcomes[product]
            label = report.product_label(product)
            if a.value != b.value or a.decision != b.decision:
                disagreements += 1
                print(f"{key} {prop} {label}: enum {a.value_str()} != param {b.value_str()}")
                continue
            values[label] = {"value": a.value_str(), "decision": a.decision}
        expected.setdefault(key, {})[prop] = values
        print(f"{key} {prop}: {len(values)} products recorded", file=sys.stderr)
    OUT.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
