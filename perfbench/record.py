"""Regenerate ``perfbench/expected.json``: the committed check values.

Usage, from the repository root::

    python3 perfbench/record.py

Runs every workload briefly on the default and the held-out seed and
stores what the program produced: the first measured cycle's
fingerprint for ``kv-*`` (the run has already required it to equal the
dict model's and, for ``kv-net``, the in-process run's) and the check
rounds' ``(collisions, trials)`` per cell for ``mc-*`` (the run has
already required them to equal the public ``estimate_*`` results).
Only re-record when a change is meant to alter these outputs, and say
so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import DEFAULT_SEED, HELDOUT_SEED, OUT_DIR  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402
from perfbench.worker import EXPECTED_PATH  # noqa: E402

#: The check that compares against the file being regenerated.
_COMMITTED_CHECKS = ("fingerprint matches the committed value",
                     "check rounds match the committed values")


def record(workload: str, seed: int) -> object:
    """Run ``workload`` once and return its committed values."""
    path = os.path.join(OUT_DIR, "results",
                        f"{workload}-seed{seed}-trace0.json")
    if os.path.exists(path):
        os.remove(path)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, check=False, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)["report"]
    failed = [check["name"] for check in report["checks"]
              if not check["passed"] and check["name"] not in _COMMITTED_CHECKS]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {failed}")
    return report["committed_values"]


def main() -> int:
    committed = {
        workload: {str(seed): record(workload, seed)
                   for seed in (DEFAULT_SEED, HELDOUT_SEED)}
        for workload in WORKLOADS
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(committed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
