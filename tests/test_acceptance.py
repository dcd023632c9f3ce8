"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import gc
import random
import time

import pytest

from featmc import bundled_model_path, load_model
from featmc.dsl import build_model, parse_model, parse_model_file, print_model_file
from featmc.engines.bounded import (
    DenseModel,
    _family_until_run,
    check_family_bounded,
    sat_states,
)
from featmc.engines.dense import until_sets
from featmc.engines.enumerative import (
    check_family_enumerative,
    check_product,
    until_values,
)
from featmc.engines.parametric import check_family_parametric
from featmc.features import Product, parse_feature_expression
from featmc.generators import gen_service_provider
from featmc.models import (
    FDTMC,
    is_complete,
    observer_product,
    project,
    project_fmdp,
    sync_product,
    validate_fdtmc,
)
from featmc.profiles import GuardedProfile, to_dense
from featmc.properties import Atom, TRUE_F, parse_property
from featmc.rational import ONE, ZERO, rational
from featmc.report import render_csv, render_json, render_table
from featmc.result import UNKNOWN

from conftest import random_complete_fmdp, random_fdtmc


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


EPS = rational("1e-3")


def test_criterion_1_wiper_golden():
    """All three engines reproduce the published wiper energy values."""
    started = time.perf_counter()
    built = load_model(bundled_model_path("wiper"))
    prop = "R=?[F end]"
    enum = check_family_enumerative(built.system, prop)
    param = check_family_parametric(built.system, prop)
    bounded = check_family_bounded(built.system, prop, epsilon=EPS)

    def closed_form(p):
        s, v, e = int(p["spd2"]), int(p["very"]), int(p["eco"])
        return rational(
            -15 * s * e * v - 15 * s * e + 45 * s * v + 45 * s - 40 * e + 120, 8
        )

    products = built.diagram.valid_products()
    for p in products:
        assert param.outcomes[p].value == closed_form(p), p
        assert enum.outcomes[p].value == param.outcomes[p].value, p
        delta = bounded.outcomes[p].value - enum.outcomes[p].value
        assert (delta if delta >= 0 else -delta) <= EPS, p
    by_label = {str(p): param.outcomes[p].value for p in products}
    assert by_label["{spd2,very}"] == rational("26.25")
    assert by_label["{spd2,very,eco}"] == rational("17.5")
    assert by_label["{}"] == 15
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 1.0, f"exact match at 8 products in {elapsed:.2f}s")


def test_criterion_2_minepump_structure():
    """Composed mine pump: 24 states, 8 products, one-step methane 0.125."""
    built = load_model(bundled_model_path("minepump"))
    ok_states = len(built.system.states) == 24
    ok_products = len(built.diagram.valid_products()) == 8
    ok_valid = validate_fdtmc(built.system).ok
    ok_next = True
    for engine in (check_family_enumerative, check_family_parametric):
        result = engine(built.system, "P=?(X methane)")
        ok_next &= all(
            o.value == rational("0.125") for o in result.outcomes.values()
        )
    bounded = check_family_bounded(built.system, "P=?(X methane)", epsilon=EPS)
    ok_next &= all(
        o.value == rational("0.125") and (o.error_bound or 0) == 0
        for o in bounded.outcomes.values()
    )
    _report(
        2,
        ok_states and ok_products and ok_valid and ok_next,
        f"states={len(built.system.states)} products={len(built.diagram.valid_products())}",
    )


_PROPS = [
    "P=?(X a)",
    "P=?(X (a & !b))",
    "P=?(a U<=4 b)",
    "P=?((a | b) U<=3 (a & b))",
    "P=?(b U a)",
    "P=?(F a)",
    "P[<0.5](F a)",
    "P[>=0.25](b U a)",
]


def _corpus(count=200):
    for seed in range(count):
        rng = random.Random(seed)
        model = random_fdtmc(rng, max_states=8, max_features=4)
        yield seed, model, rng.choice(_PROPS)


def test_criterion_3_cross_engine_equivalence():
    """Enumerative equals parametric exactly; bounded stays in its interval
    and within 1e-3 of exact on 200 random featured chains."""
    started = time.perf_counter()
    checked = 0
    for seed, model, prop_text in _corpus(200):
        prop = parse_property(prop_text)
        enum = check_family_enumerative(model, prop)
        param = check_family_parametric(model, prop)
        bounded = check_family_bounded(model, prop, epsilon=EPS)
        for p in model.diagram.valid_products():
            exact = enum.outcomes[p].value
            assert param.outcomes[p].value == exact, (seed, prop_text, p)
            assert param.outcomes[p].decision == enum.outcomes[p].decision
            o = bounded.outcomes[p]
            err = o.error_bound or ZERO
            assert o.value - err <= exact <= o.value + err, (seed, prop_text, p)
            delta = o.value - exact
            assert (delta if delta >= 0 else -delta) <= EPS, (seed, prop_text, p)
            if o.decision not in (None, UNKNOWN):
                assert o.decision == enum.outcomes[p].decision, (seed, prop_text, p)
            checked += 1
    elapsed = time.perf_counter() - started
    _report(3, elapsed < 60.0, f"{checked} product checks in {elapsed:.1f}s")


def _composed_text(rng, system):
    """A model file of three components, an fdtmc, an fmdp and an fts,
    composed by ``system``; the probabilities are random twentieths whose
    rows leave mass to the implicit self-loops."""

    def q():
        return f"{rng.randint(1, 8)}/20"

    return f"""
features f g h;

fdtmc Env {{
  states calm storm;
  init calm;
  label storm: storm;
  calm  -> storm : [f] {q()}, {q()};
  storm -> calm  : [g] {q()}, {q()};
}}

fmdp Plant {{
  states ok worn dead retired;
  init ok;
  label worn: worn;
  label dead: dead;
  label retired: retired;
  ok   -(tick | obs: !on)-> worn    : [h] {q()}, {q()};
  ok   -(tick | obs: on)->  worn    : {q()};
  ok   -(tick | obs: on)->  retired : [g] {q()}, 0;
  worn -(tick | obs: !on)-> dead    : {q()};
  worn -(tick | obs: !on)-> retired : [f] {q()}, {q()};
  worn -(tick | obs: on)->  ok      : [f & g] {q()}, {q()};
  worn -(tick | obs: on)->  dead    : {q()};
  dead -(tick)-> dead : 1;
  retired -(tick)-> retired : 1;
}}

fts Ctl {{
  states idle run;
  init idle;
  label run: on;
  idle -(ctl | obs: worn)-> run : [f | h];
  run  -(ctl | obs: !worn)-> idle : [g];
}}

system = {system};
"""


def test_criterion_3_composed_models():
    """Every engine agrees on models built with ``||``, ``|>`` and
    ``complete()``, whose implicit self-loops the interval kernel folds, on
    unbounded, nested, next and step-bounded queries: enumerative equals
    parametric exactly, and the bounded interval holds the exact value."""
    started = time.perf_counter()
    rng = random.Random(3)
    props = (
        "P=?(F dead)",
        "P[<0.5](F dead)",
        "R=?[F (dead | retired)]",
        "P=?(F P[>0.3](F dead))",
        "P=?(X worn)",
        "P[>=0.1](!dead U<=4 retired)",
    )
    checked = looping = 0
    for k in range(16):
        system = ("complete(Ctl) |> (Env || Plant)", "complete(Ctl) |> Plant")[k % 2]
        m = parse_model(_composed_text(rng, system)).system
        d = m.diagram
        # composition carries no rewards: 1 per step, 3 in worn states with f
        extra = [(parse_feature_expression("f"), rational(3))]
        rewards = {
            s: GuardedProfile(d, extra if "worn" in m.labels[s] else [], ONE) for s in m.states
        }
        m = FDTMC(m.states, m.init, d, m.transitions, m.ap, m.labels, rewards)
        dense = DenseModel(m)
        looping += any(
            0 < v < 1 for s in m.states for t, groups in dense.groups[s] if t == s for v, _ in groups
        )
        for text in props:
            enum = check_family_enumerative(m, text)
            param = check_family_parametric(m, text)
            bounded = check_family_bounded(m, text, epsilon=EPS)
            for p in d.valid_products():
                exact = enum.outcomes[p].value
                assert param.outcomes[p].value == exact, (k, text, p)
                assert param.outcomes[p].decision == enum.outcomes[p].decision
                o = bounded.outcomes[p]
                err = o.error_bound or ZERO
                assert o.value - err <= exact <= o.value + err, (k, text, p)
                if o.decision not in (None, UNKNOWN):
                    assert o.decision == enum.outcomes[p].decision, (k, text, p)
                checked += 1
    assert looping == 16
    elapsed = time.perf_counter() - started
    _report(3, elapsed < 60.0, f"{checked} composed product checks in {elapsed:.1f}s")


def test_criterion_4_composition_theorems():
    """Completeness closure and projection distributivity on 100 random
    complete FMDP pairs."""
    failures = 0
    pairs = 0
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        m1 = random_complete_fmdp(rng, "x", ("a1", "a2"))
        m2 = random_complete_fmdp(
            rng, "y", ("b1",), foreign_propositions=("a1", "a2"),
            single_action=bool(seed % 2),
        )
        pairs += 1
        sync = sync_product(m1, m2, prune=False)
        if not is_complete(sync):
            failures += 1
            continue
        obs = None
        if len(m2.action_names) == 1:
            obs = observer_product(m1, m2, prune=False)
            if not is_complete(obs):
                failures += 1
                continue
        for p in sync.diagram.valid_products():
            p1 = p.restrict(m1.diagram.signature)
            p2 = p.restrict(m2.diagram.signature)
            left = _values(project_fmdp(sync, p))
            right = _values(
                sync_product(project_fmdp(m1, p1), project_fmdp(m2, p2), prune=False)
            )
            if left != right:
                failures += 1
                break
            if obs is not None:
                left = _values(project_fmdp(obs, p))
                right = _values(
                    observer_product(
                        project_fmdp(m1, p1), project_fmdp(m2, p2), prune=False
                    )
                )
                if left != right:
                    failures += 1
                    break
    _report(4, failures == 0, f"{pairs} pairs, {failures} failures")


def _values(m):
    empty = Product((), ())
    out = {}
    for (s, label, t), profile in m.transitions.items():
        v = profile.evaluate(empty)
        if v != 0:
            key = (s, label.name, label.obs, t)
            out[key] = out.get(key, ZERO) + v
    return out


def test_criterion_5_bounded_search_soundness():
    """On the criterion-3 corpus: the exact value stays inside [lo, hi] after
    every sweep, lo never decreases and hi never increases."""
    violations = 0
    models = 0
    sweeps = 0
    for seed, model, prop_text in _corpus(200):
        if "U" not in prop_text and "F" not in prop_text:
            continue
        if "<=" in prop_text:
            continue  # bounded untils are exact, nothing to sandwich
        models += 1
        dense = DenseModel(model)
        path = parse_property(prop_text).path
        sat1 = sat_states(dense, path.left)[path.left].lo
        sat2 = sat_states(dense, path.right)[path.right].lo
        exact = {}
        for idx, p in enumerate(model.diagram.valid_products()):
            dtmc = project(model, p)
            s1 = {s for s in model.states if sat1[s] >> idx & 1}
            s2 = {s for s in model.states if sat2[s] >> idx & 1}
            exact[idx] = until_values(dtmc, s1, s2)
        snapshots = []

        def record(sweep, lo, hi):
            snapshots.append(
                (
                    {s: list(r) for s, r in lo.items()},
                    {s: list(r) for s, r in hi.items()},
                )
            )

        _family_until_run(dense, *until_sets(dense, sat1, sat2), epsilon=EPS, observer=record)
        sweeps += len(snapshots)
        previous = None
        for lo, hi in snapshots:
            for s in model.states:
                for idx in exact:
                    value = exact[idx][s]
                    if not (lo[s][idx] <= value <= hi[s][idx]):
                        violations += 1
                    if previous is not None and (
                        previous[0][s][idx] > lo[s][idx]
                        or previous[1][s][idx] < hi[s][idx]
                    ):
                        violations += 1
            previous = (lo, hi)
    _report(
        5,
        violations == 0,
        f"{models} until runs, {sweeps} sweeps, {violations} violations",
    )


def _timed(call) -> float:
    """Seconds the fastest of three calls takes with the cyclic collector
    paused, as timeit does: in a full test run one collection of other
    tests' garbage takes tens of milliseconds, more than a whole check at
    n=2 or n=4, and one scheduler stall can slow a single call several
    times over."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return min(times)
    finally:
        gc.enable()


def test_criterion_6_scaling_trend():
    """The paper's enumerative route, one projected chain checked per valid
    product (:func:`check_product`), grows with the family size and loses
    to both family-wide engines at n=10.  The enumerative engine itself
    solves the whole family once over its union structure ("all-in-one"
    analysis, not one exploration per product); its time at n=10 is
    reported alongside."""
    started = time.perf_counter()
    text = "P[<0.1](F failure)"
    prop = parse_property(text)
    enum_times = []
    param_time = bounded_time = family_time = None
    for n in (2, 4, 6, 8, 10):
        system = build_model(gen_service_provider(n)).system

        def per_product():
            for product in system.diagram.valid_products():
                check_product(project(system, product), prop)

        enum_times.append(_timed(per_product))
        if n == 10:
            param_time = _timed(lambda: check_family_parametric(system, text))
            bounded_time = _timed(lambda: check_family_bounded(system, text, epsilon=EPS))
            family_time = _timed(lambda: check_family_enumerative(system, text))
    increasing = all(a < b for a, b in zip(enum_times, enum_times[1:]))
    dominated = enum_times[-1] > param_time and enum_times[-1] > bounded_time
    elapsed = time.perf_counter() - started
    _report(
        6,
        increasing and dominated and elapsed < 300,
        "per-product enum="
        + "/".join(f"{t:.3f}" for t in enum_times)
        + f"s param={param_time:.3f}s bounded={bounded_time:.3f}s"
        + f" family enum={family_time:.3f}s total={elapsed:.0f}s",
    )


def test_criterion_7_validator_sensitivity():
    """Fifty single-value mutations: each is either rejected with the exact
    offending (state, product) pairs or provably still consistent."""
    rng = random.Random(777)
    tested = 0
    caught = 0
    benign = 0
    while tested < 50:
        model = random_fdtmc(rng, max_states=6, max_features=3)
        keys = sorted(model.transitions, key=str)
        key = keys[rng.randrange(len(keys))]
        profile = model.transitions[key]
        if not isinstance(profile, GuardedProfile):
            continue
        delta = rational(rng.choice([1, -1]), 10)
        if profile.cases and rng.random() < 0.7:
            pos = rng.randrange(len(profile.cases))
            cases = list(profile.cases)
            guard, value = cases[pos]
            cases[pos] = (guard, value + delta)
            mutated = GuardedProfile(model.diagram, cases, profile.default)
        else:
            mutated = GuardedProfile(
                model.diagram, profile.cases, profile.default + delta
            )
        transitions = dict(model.transitions)
        transitions[key] = mutated
        from featmc.models import FDTMC

        candidate = FDTMC(
            model.states,
            model.init,
            model.diagram,
            transitions,
            model.ap,
            model.labels,
        )
        tested += 1
        report = validate_fdtmc(candidate)
        # brute-force row sums, independently of the validator
        expected_bad = set()
        for s in candidate.states:
            for p in candidate.diagram.valid_products():
                total = sum(
                    (pr.evaluate(p) for t, pr in candidate.out_edges(s)), ZERO
                )
                if total != 1:
                    expected_bad.add((s, p))
        reported = {(s, p) for s, p, _ in report.violations}
        assert reported == expected_bad, (tested, key)
        if expected_bad:
            caught += 1
        else:
            benign += 1
    _report(7, True, f"{caught} rejected with exact locations, {benign} benign")


def test_criterion_8_round_trip_determinism():
    """Model files round-trip through the printer; reports are byte-stable."""
    for name in ("wiper", "minepump"):
        text = bundled_model_path(name).read_text(encoding="utf-8")
        tree = parse_model_file(text)
        printed = print_model_file(tree)
        assert parse_model_file(printed) == tree, name
        assert print_model_file(parse_model_file(printed)) == printed, name
    built = load_model(bundled_model_path("wiper"))
    products = built.diagram.valid_products()
    runs = []
    for _ in range(2):
        results = [
            check_family_enumerative(built.system, "R=?[F end]"),
            check_family_parametric(built.system, "R=?[F end]"),
            check_family_bounded(built.system, "R=?[F end]", epsilon=EPS),
        ]
        runs.append(
            (
                render_table(products, results, timings=False),
                render_csv(products, results, timings=False),
                render_json(products, results, timings=False),
            )
        )
    _report(8, runs[0] == runs[1], "table/csv/json byte-identical across runs")
