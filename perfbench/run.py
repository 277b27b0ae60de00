"""The repository benchmark: one workload, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Workloads: ``mc-adaptive``, ``mc-oblivious``, ``kv-update``, ``kv-scan``
and ``kv-net`` (see ``perfbench/README.md``). The workload runs in a
child process (``perfbench.worker``). With ``--trace 0`` the child is
started :data:`SETUP_SAMPLES` times; all but the last stop after
set-up, so ``setup_s`` is a median. The last line printed is one JSON
object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``). A failed output check prints ``correct:
false`` with no metrics and exits 1. The full result — environment,
checks, latency sample counts — is written to
``.perfbench/results/``; ``perfbench/compare.py`` diffs two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import monotonic, sleep
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import (  # noqa: E402
    DEFAULT_SEED,
    OUT_DIR,
    SRC,
    environment,
)
from perfbench.metrics import (  # noqa: E402
    WORKLOADS,
    end_to_end,
    per_layer,
)

#: Every child must have finished this many seconds after the start.
DEADLINE_S = 170
#: Worker processes behind ``setup_s`` (untraced runs): its median.
SETUP_SAMPLES = 4


def stop_group(child: subprocess.Popen) -> None:
    """Kill a worker's process group and wait until every member ended."""
    os.killpg(child.pid, signal.SIGKILL)
    child.communicate()
    deadline = monotonic() + 10
    while monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        sleep(0.05)


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def run_child(args: argparse.Namespace, deadline: float, setup_only: bool,
              trace_out: str = "") -> Dict[str, Any]:
    """Start one worker process; return its report with ``setup_s``."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    started = monotonic()
    # A session of its own, so a timeout can stop the worker together
    # with anything it started.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        output, _ = child.communicate(
            timeout=max(1.0, deadline - monotonic())
        )
    except subprocess.TimeoutExpired:
        stop_group(child)
        raise SystemExit(f"{args.workload}: worker timed out")
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM through ``main``): the worker
        # runs in a session of its own, so stop it here.
        stop_group(child)
        raise
    if child.returncode != 0:
        raise SystemExit(
            f"{args.workload}: worker exited with {child.returncode}"
        )
    report = json.loads(output.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - started
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    deadline = monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        trace_out = os.path.join(OUT_DIR, "traces", name + ".jsonl")
    setups = [] if args.trace else [
        run_child(args, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    report = run_child(args, deadline, setup_only=False, trace_out=trace_out)
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    correct = all(check["passed"] for check in report["checks"])
    if not correct:
        metrics: Dict[str, Any] = {}
    elif args.trace:
        metrics = per_layer(report)
    else:
        metrics = end_to_end(args.workload, report, statistics.median(setups))
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    with open(os.path.join(OUT_DIR, "results", name + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "environment": env,
                   "report": report, "result": result}, handle, indent=1)
    for check in report["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        print(f"# {status} {check['name']}: {check['detail']}",
              file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
