"""One workload in one process: set up, time the window, check, report.

``run.py`` starts this module once per set-up sample and once for the
measured run::

    python3 -m perfbench.worker --workload kv-update --seed 1 \\
        --seconds 10 --trace 0 [--setup-only] [--trace-out PATH]

It prints one JSON line: when set-up ended (``time.monotonic()``,
which on Linux is one clock for every process, so the parent can
subtract its own start time), and for a measured run the window's
counts, latency summary, checks and, when traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import monotonic
from typing import Any, Dict, List

from perfbench.common import ROOT, use_source_tree
from perfbench.tracing import Tracer, calibrate_call_overhead_ns

#: Largest share of the window that may pass outside every program
#: span (``workloads.loop_self_s``): the benchmark's own loop, the
#: workload driver's ``execute_op`` dispatch and anything no wrapped
#: layer accounts for. Measured: under 0.01 on ``mc-*`` and ``kv-net``,
#: about 0.05 on ``kv-update`` and 0.10 on ``kv-scan``.
LOOP_SELF_TOLERANCE = 0.2

EXPECTED_PATH = os.path.join(ROOT, "perfbench", "expected.json")


def make_workload(name: str, seed: int, tracer):
    """The workload object for ``name`` (imports the program lazily)."""
    use_source_tree()
    if name.startswith("mc-"):
        from perfbench.mc import MCWorkload

        return MCWorkload(name, seed, tracer)
    from perfbench.kv import KVWorkload

    return KVWorkload(name, seed, tracer)


def expected_for(name: str, seed: int):
    """Committed check values for ``(workload, seed)``, if any."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    return committed.get(name, {}).get(str(seed))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, tracer)
    report: Dict[str, Any] = {}
    try:
        workload.setup()
        if args.setup_only:
            report["setup_end"] = monotonic()
        else:
            window = workload.run(args.seconds)
            report["setup_end"] = workload.window_started
            report.update(window)
            if tracer is not None:
                layers = workload.layer_metrics()
                overhead = calibrate_call_overhead_ns()
                layers["trace.overhead_frac"] = (
                    workload.timed_calls() * overhead / 1e9
                    / window["elapsed_s"]
                )
                report["layers"] = layers
            report["committed_values"] = workload.committed_values()
            expected = expected_for(args.workload, args.seed)
            checks = workload.verify(expected)
            if tracer is not None:
                outside = (report["layers"]["workloads.loop_self_s"]
                           / window["elapsed_s"])
                checks.append((
                    "window time outside every layer stays small",
                    outside <= LOOP_SELF_TOLERANCE,
                    f"{outside:.4f} of the window "
                    f"(tolerance {LOOP_SELF_TOLERANCE})",
                ))
            report["checks"] = [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in checks
            ]
            report["committed_seed"] = expected is not None
            if tracer is not None and args.trace_out:
                workload.write_trace(args.trace_out,
                                     {"workload": args.workload,
                                      "seed": args.seed})
    finally:
        workload.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
