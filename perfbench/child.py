"""One benchmark child: a fresh interpreter that sets up and measures featmc.

Started by run.py with a JSON argument; prints one JSON object as its last
line.  Mode ``setup`` only times import, parse and build.  Mode ``measure``
also runs the workload's checks, untraced or, with ``trace``, once untraced
and once traced for the per-layer metrics.

Every timed check gets a system built from the model text just for it,
outside the timed window, so no call sees state an earlier call filled in
(featmc fills some lazily): each time is that of a cold check.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

#: Each round runs every check for at least this long, repeating fast ones;
#: a check's time is the median of all its calls over all rounds.  Rounds
#: repeat for the whole run, so every check is sampled across the run and a
#: slow phase of the machine does not land on one check alone.
MIN_SLICE_S = 0.1
#: Rounds repeat until the run's seconds are up, but at least this often, so
#: that every slow check has three calls to take the median of.
MIN_ROUNDS = 3
#: A check whose calls take less than this is cheap: it also runs once after
#: every slow check, so its samples spread over the whole run and not only
#: over the few moments its own slices take.
CHEAP_S = 0.3

#: Median seconds of calibration_loop() on the machine the benchmark was
#: defined on (2-core Xeon virtual machine, Python 3.11).
CALIBRATION_REF_S = 0.016
#: Calibration loops run after every slice of calls.
CALIBRATION_CALLS = 3
_CALIBRATION_SIZE = 14


def calibration_loop():
    """Fixed pure-Python work of the kind featmc does: Gauss-Jordan
    elimination over Fractions on a diagonally dominant 14 x 14 system.  It
    is the benchmark's own code, so no change to featmc moves it."""
    n = _CALIBRATION_SIZE
    rows = [
        [Fraction(1) if i == j else Fraction(-((7 * i + 3 * j) % 10 + 1), 11 * n) for j in range(n)]
        + [Fraction(1, i + 2)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


class Clock:
    """Scales call times to the machine the benchmark was defined on.

    A shared machine's speed changes within seconds, so every slice of calls
    is scaled by CALIBRATION_REF_S over the mean time of the calibration
    loops run right before it (after the previous slice) and right after
    it.  A speed is CALIBRATION_REF_S over the loops' median time: above 1
    when the machine runs faster than when the benchmark was defined."""

    def __init__(self):
        self.loops: list[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> list[float]:
        times = []
        for _ in range(CALIBRATION_CALLS):
            t0 = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t0)
        self.loops.extend(times)
        return times

    def factor(self) -> float:
        """The scale of the calls since the last calibration, which this
        runs again."""
        before, self.last = self.last, self.calibrate()
        return CALIBRATION_REF_S / statistics.mean(before + self.last)

    def speed(self, since: int = 0) -> float:
        """The speed over the loops from index ``since`` of ``loops`` on."""
        return CALIBRATION_REF_S / statistics.median(self.loops[since:])


def build_models(texts: dict) -> dict:
    from featmc import dsl

    return {key: dsl.build_model(dsl.parse_model_file(text)) for key, text in texts.items()}


def builder(texts: dict):
    """``fresh(key)``: a newly parsed and built system of model ``key``."""
    from featmc import dsl

    return lambda key: dsl.build_model(dsl.parse_model_file(texts[key])).system


def pool(models, texts: dict):
    """``fresh(key)`` handing out systems built now, one per check of one
    pass, so a pass can be traced without tracing their builds."""
    fresh = builder(texts)
    systems: dict[str, list] = {}
    for _, spec, _ in workloads.checks(models):
        systems.setdefault(spec.key, []).append(fresh(spec.key))
    return lambda key: systems[key].pop()


def new_state() -> dict:
    return {"failed": set(), "unknown": set(), "errors": [], "cheap": {}}


def time_slice(name: str, fn, min_slice: float, samples: dict, clock: Clock, prepare=tuple):
    """Call ``fn(*prepare())`` once, or repeatedly until ``min_slice``
    seconds have gone by, appending each call's raw and scaled seconds to
    ``samples[name]``.  ``prepare`` runs before every call and is not timed,
    but counts towards the slice.  Returns the last call's result."""
    calls = []
    slice_end = time.perf_counter() + min_slice
    while True:
        args = prepare()
        t0 = time.perf_counter()
        result = fn(*args)
        calls.append(time.perf_counter() - t0)
        if time.perf_counter() >= slice_end:
            break
    factor = clock.factor()
    samples.setdefault(name, []).extend((t, t * factor) for t in calls)
    return result


def run_round(models, reference, fresh, expected, min_slice, samples, state, clock):
    """Run every check on systems from ``fresh(key)``, then render each
    model's report, recording every call in ``samples``.  ``reference`` holds
    built models that give the property texts and product lists and are not
    checked.  Failed verdicts accumulate in ``state``."""
    from featmc import report

    def call(engine, key, prop):
        text = reference[key].properties[prop]
        return lambda system: workloads.run_engine(engine, system, text)

    results: dict[str, list] = {}
    cheap = state["cheap"]
    for engine, spec, prop in workloads.checks(models):
        key = spec.key
        check_id = f"{engine}:{key}:{prop}"
        products = reference[key].system.diagram.valid_products()
        prepare = lambda key=key: (fresh(key),)
        try:
            result = time_slice(
                check_id, call(engine, key, prop), min_slice, samples, clock, prepare
            )
        except Exception:  # a crashing engine fails its verdicts, the run goes on
            state["errors"].append(f"{check_id}: {traceback.format_exc(limit=3)}")
            traceback.print_exc(file=sys.stderr)
            for product in products:
                state["failed"].add(f"{check_id}:{report.product_label(product)}")
            continue
        results.setdefault(key, []).append(result)
        exact = expected.get(key, {}).get(prop, {})
        for product in products:
            label = report.product_label(product)
            outcome = result.outcomes.get(product)
            if outcome is not None and outcome.decision == "unknown":
                state["unknown"].add(f"{check_id}:{label}")
            if outcome is None or not workloads.verdict_ok(engine, outcome, exact.get(label)):
                state["failed"].add(f"{check_id}:{label}")
        if samples[check_id][-1][0] < CHEAP_S:
            cheap[check_id] = (call(engine, key, prop), prepare)
        elif min_slice:
            for name, (fn, cheap_prepare) in cheap.items():
                time_slice(name, fn, 0.0, samples, clock, cheap_prepare)
    for key, family in results.items():
        products = reference[key].system.diagram.valid_products()
        time_slice(
            f"render:{key}", lambda: report.render_json(products, family), min_slice, samples, clock
        )


def single_pass(models, texts, reference, fresh, expected, state, clock) -> tuple[float, float]:
    """Build every model and run every check once: the total scaled
    seconds, and the machine speed meanwhile."""
    since = len(clock.loops)
    samples: dict[str, list] = {}
    time_slice("build", lambda: build_models(texts), 0.0, samples, clock)
    run_round(models, reference, fresh, expected, 0.0, samples, state, clock)
    total = sum(scaled for calls in samples.values() for _, scaled in calls)
    return total, clock.speed(since)


def verdict_count(models, built) -> int:
    return sum(
        len(built[spec.key].system.diagram.valid_products())
        for _, spec, _ in workloads.checks(models)
    )


def main() -> int:
    args = json.loads(sys.argv[1])
    started = time.perf_counter()
    import featmc
    from featmc import rational

    import_s = time.perf_counter() - started
    src = Path(args["src"]).resolve()
    if src not in Path(featmc.__file__).resolve().parents:
        print(f"featmc imported from {featmc.__file__}, not from {src}", file=sys.stderr)
        return 3
    models = workloads.workload_models(args["workload"], args["quick"])
    texts = {spec.key: workloads.model_text(spec) for spec in models}
    t0 = time.perf_counter()
    built = build_models(texts)
    setup_raw_s = import_s + time.perf_counter() - t0
    clock = Clock()
    clock.calibrate()  # twice the loops for the one set-up sample a child gives
    out = {
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s * clock.speed(),
        "meta": {
            "rational_backend": rational._BACKEND,
            "python": sys.version.split()[0],
            "featmc": featmc.__version__,
        },
    }
    if args["mode"] == "setup":
        print(json.dumps(out))
        return 0

    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    state = new_state()
    if args["trace"]:
        from tracing import Tracer

        # untraced, traced, untraced: comparing the traced pass with the mean
        # of the two around it cancels a steady drift of the machine's speed
        passes = [pool(models, texts) for _ in range(3)]
        before_s, _ = single_pass(models, texts, built, passes[0], expected, state, clock)
        with Tracer() as tracer:
            traced_s, speed = single_pass(models, texts, built, passes[1], expected, state, clock)
        after_s, _ = single_pass(models, texts, built, passes[2], expected, state, clock)
        metrics, absent = tracer.metrics(scale=speed)
        overhead_s = traced_s - (before_s + after_s) / 2
        metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        out.update(metrics=metrics, absent_metrics=absent, rounds=1, speed=[speed])
    else:
        min_slice, min_rounds = (0.0, 1) if args["quick"] else (MIN_SLICE_S, MIN_ROUNDS)
        samples: dict[str, list] = {}
        speeds = []
        fresh = builder(texts)
        deadline = time.perf_counter() + args["seconds"]
        while len(speeds) < min_rounds or time.perf_counter() < deadline:
            since = len(clock.loops)
            run_round(models, built, fresh, expected, min_slice, samples, state, clock)
            speeds.append(clock.speed(since))
        raw = {name: statistics.median(t for t, _ in calls) for name, calls in samples.items()}
        medians = {name: statistics.median(s for _, s in calls) for name, calls in samples.items()}
        metrics = {}
        for engine in workloads.ENGINES:
            value = sum(t for name, t in medians.items() if name.startswith(engine + ":"))
            metrics[f"{engine}_s"] = {"value": value, "unit": "s"}
        metrics["total_s"] = {"value": sum(medians.values()), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }
        out.update(
            metrics=metrics, rounds=len(speeds), speed=speeds, median_s=medians, raw_median_s=raw
        )
    out.update(
        verdicts=verdict_count(models, built),
        failed=sorted(state["failed"]),
        unknown=len(state["unknown"]),
        errors=state["errors"],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
