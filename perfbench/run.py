"""featmc benchmark runner.

    python3 perfbench/run.py --workload service --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) in fresh child
interpreters whose PYTHONHASHSEED is the seed: one measuring child between
set-up-only children, all one after another with one worker and no
threads.  Every verdict is checked against the exact values in
expected.json.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The line before it is
the full record, with the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed in this many children before, and as many after, the
#: measuring one.
SETUP_CHILDREN = 3
#: Every child must end before this many seconds into the run.
RUN_LIMIT_S = 170


def git_commit(root: Path) -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_child(payload: dict, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("run time limit reached before all children ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(payload)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"child ({payload['mode']}) exceeded the run time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"child ({payload['mode']}) failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny inputs, no repetition, no set-up-only children (benchmark tests)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "featmc" / "__init__.py").is_file():
        print(f"featmc sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    hash_seed = args.seed % 2**32
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    payload = {
        "workload": args.workload,
        "quick": args.quick,
        "seconds": args.seconds,
        "trace": args.trace,
        "src": str(SRC),
    }
    setup_children = 0 if args.quick else SETUP_CHILDREN

    def time_setup():
        for _ in range(setup_children):
            sample = run_child(dict(payload, mode="setup"), env, deadline)
            setup_samples.append(sample["setup_s"])
            setup_raw.append(sample["setup_raw_s"])

    setup_samples: list[float] = []
    setup_raw: list[float] = []
    time_setup()
    result = run_child(dict(payload, mode="measure"), env, deadline)
    setup_samples.append(result["setup_s"])
    setup_raw.append(result["setup_raw_s"])
    time_setup()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        metrics["verdicts"] = {"value": result["verdicts"], "unit": "count"}
    failed = len(result["failed"])
    record = {
        "workload": args.workload,
        "quick": args.quick,
        "trace": args.trace,
        "seed": args.seed,
        "hash_seed": hash_seed,
        **result["meta"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "rounds": result["rounds"],
        "machine_speed": result["speed"],
        "setup_samples_s": setup_samples,
        "setup_raw_samples_s": setup_raw,
        "verdicts": result["verdicts"],
        "failed_verdicts": failed,
        "unknown_verdicts": result["unknown"],
        "failed": result["failed"],
        "errors": result["errors"],
        "absent_metrics": result.get("absent_metrics", []),
        "median_s": result.get("median_s", {}),
        "raw_median_s": result.get("raw_median_s", {}),
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not result["errors"],
                "attempted": result["verdicts"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
