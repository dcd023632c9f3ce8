"""Benchmark model generators.

Two scalable families, each parameterized by a feature count n (so 2^n
products).  The probability schedules below are fixed, documented choices;
the reproducible claim about these families is cross-engine agreement and
the relative engine cost trend, not any particular absolute value.

Failure-recovery: a chain of n degradation states between a start state and
an absorbing worn-out state; every degradation state can also break
outright into an absorbing failure state or partially recover one step
back.  Feature f_i hardens stage i: less breaking, more recovery.

Service provider: a hub launches one of n three-step service executions,
each gated by its own feature; every service step can fail into an
absorbing failure state, and finished services return to the hub or
terminate successfully.  Features act independently of each other.
"""

from __future__ import annotations

from .dsl import ModelFile, parse_model_file

_FAILURE_HEADER = """\
// Failure-recovery chain, n = {n} degradation stages ({products} products).
// Stage i moves forward with 0.55 (hardened, f{{i}}) or 0.7, breaks with
// 0.02 or 0.08, recovers one step with 0.13 or 0.02; the rest self-loops.
// Only the outright-break state counts as a failure; wearing out at the
// end of the chain is ordinary end of life.
"""

_SERVICE_HEADER = """\
// Service provider, n = {n} independent services ({products} products).
// The hub starts service i with probability {share} when feature f{{i}} is
// enabled, terminates with 0.2, and idles otherwise.  Each of the three
// service steps fails with 0.02; a finished service returns to the hub
// with 0.9, fails with 0.02 and terminates with 0.08.
"""


def gen_failure_recovery(n_stages: int) -> ModelFile:
    """Chain model with feature-controlled degradation dynamics."""
    if n_stages < 0:
        raise ValueError("n_stages must be nonnegative")
    features = [f"f{i}" for i in range(1, n_stages + 1)]
    lines = [_FAILURE_HEADER.format(n=n_stages, products=2 ** n_stages)]
    if features:
        lines.append("features " + " ".join(features) + ";")
    lines.append("")
    lines.append("fdtmc Chain {")
    stages = [f"deg{i}" for i in range(1, n_stages + 1)]
    names = ["start"] + stages + ["worn", "broken"]
    lines.append("  states " + " ".join(names) + ";")
    lines.append("  init start;")
    lines.append("  label broken: failure;")
    lines.append("  label worn: worn;")
    if n_stages == 0:
        lines.append("  start -> worn : 0.95;")
        lines.append("  start -> broken : 0.05;")
    else:
        lines.append("  start -> deg1 : 1;")
        for i in range(1, n_stages + 1):
            state = f"deg{i}"
            forward = "worn" if i == n_stages else f"deg{i + 1}"
            backward = "start" if i == 1 else f"deg{i - 1}"
            f = f"f{i}"
            lines.append(f"  {state} -> {forward} : [{f}] 0.55, 0.7;")
            lines.append(f"  {state} -> broken : [{f}] 0.02, 0.08;")
            lines.append(f"  {state} -> {backward} : [{f}] 0.13, 0.02;")
    lines.append("  worn -> worn : 1;")
    lines.append("  broken -> broken : 1;")
    lines.append("}")
    lines.append("")
    lines.append("system = Chain;")
    lines.append('property fail_risk = "P[<0.1](F failure)";')
    lines.append('property fail_value = "P=?(F failure)";')
    return parse_model_file("\n".join(lines) + "\n", header=lines[0])


def gen_service_provider(n_services: int) -> ModelFile:
    """Hub-and-services model with one feature per service."""
    if n_services < 0:
        raise ValueError("n_services must be nonnegative")
    share = f"3/{5 * max(n_services, 1)}"  # hub mass split evenly, 0.6 total
    lines = [
        _SERVICE_HEADER.format(n=n_services, products=2 ** n_services, share=share)
    ]
    features = [f"f{i}" for i in range(1, n_services + 1)]
    if features:
        lines.append("features " + " ".join(features) + ";")
    lines.append("")
    lines.append("fdtmc Provider {")
    names = ["hub"]
    for i in range(1, n_services + 1):
        names += [f"s{i}_1", f"s{i}_2", f"s{i}_3"]
    names += ["done", "fail"]
    lines.append("  states " + " ".join(names) + ";")
    lines.append("  init hub;")
    lines.append("  label fail: failure;")
    lines.append("  label done: success;")
    for i in range(1, n_services + 1):
        lines.append(f"  hub -> s{i}_1 : [f{i}] {share}, 0;")
    lines.append("  hub -> done : 0.2;")
    # the hub's remaining mass (disabled services and the idle share)
    # becomes the implicit self-loop
    for i in range(1, n_services + 1):
        lines.append(f"  s{i}_1 -> s{i}_2 : 0.98;")
        lines.append(f"  s{i}_1 -> fail : 0.02;")
        lines.append(f"  s{i}_2 -> s{i}_3 : 0.98;")
        lines.append(f"  s{i}_2 -> fail : 0.02;")
        lines.append(f"  s{i}_3 -> hub : 0.9;")
        lines.append(f"  s{i}_3 -> fail : 0.02;")
        lines.append(f"  s{i}_3 -> done : 0.08;")
    lines.append("  done -> done : 1;")
    lines.append("  fail -> fail : 1;")
    lines.append("}")
    lines.append("")
    lines.append("system = Provider;")
    lines.append('property fail_risk = "P[<0.1](F failure)";')
    lines.append('property fail_value = "P=?(F failure)";')
    return parse_model_file("\n".join(lines) + "\n", header=lines[0])
