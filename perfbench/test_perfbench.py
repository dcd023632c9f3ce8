"""Quick-mode checks of the benchmark runner: tiny inputs, a second or two a run."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import child
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_quick(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0", "--seconds", "0", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, result = run_quick("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for key in ("rational_backend", "python", "nproc", "hash_seed", "git_commit"):
        assert key in record


def test_corrupted_expected_value_is_a_failed_verdict():
    models = workloads.workload_models("service", quick=True)
    texts = {spec.key: workloads.model_text(spec) for spec in models}
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    entry = expected["service2"]["fail_value"]["{}"]
    entry["value"] = str(Fraction(entry["value"]) + Fraction(1, 1000))
    state = child.new_state()
    reference, fresh = child.build_models(texts), child.builder(texts)
    child.run_round(models, reference, fresh, expected, 0.0, {}, state, child.Clock())
    # every engine misses by 1/1000: beyond the float tolerance and beyond
    # the bounded engine's error bound at epsilon 1/1000
    assert state["failed"] == {
        f"{engine}:service2:fail_value:{{}}" for engine in workloads.ENGINES
    }
    assert not state["errors"]


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    targets = dict(tracing.TARGETS)
    targets["bounded.reward"] = [("featmc.engines.bounded", "no_such_function")]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    with tracing.Tracer() as tracer:
        pass
    values, absent = tracer.metrics()
    assert absent == ["bounded.reward_s"]
    assert "bounded.reward_s" not in values
    # present but never called
    assert values["bounded.dense_s"]["value"] == 0
    assert values["enum.solve_calls"]["value"] == 0


def test_calls_from_outside_featmc_are_not_traced():
    models = workloads.workload_models("bundled", quick=True)
    texts = {spec.key: workloads.model_text(spec) for spec in models}

    def valid_products_calls(extra_call: bool):
        with tracing.Tracer() as tracer:
            built = child.build_models(texts)
            if extra_call:
                built["wiper"].system.diagram.valid_products()
        return tracer.metrics()[0]["features.valid_products_calls"]["value"]

    assert valid_products_calls(True) == valid_products_calls(False) > 0
