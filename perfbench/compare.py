"""Compare two benchmark result sets.

Usage::

    python3 perfbench/compare.py A B

``A`` and ``B`` are result files written by ``perfbench/run.py`` (under
``.perfbench/results/``) or directories of them. Results pair up by
file name (workload, seed and trace flag). For each pair the script
names every environment field that differs — Python or NumPy version,
the ``MemTable`` branch, ``nproc``, seed, source digest — and prints
each metric side by side with its relative change.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """Result files under ``path`` (a file or a directory), by name."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        paths = [os.path.join(path, name) for name in names]
    else:
        paths = [path]
    results = {}
    for item in paths:
        with open(item, encoding="utf-8") as handle:
            results[os.path.basename(item)] = json.load(handle)
    return results


def environment_diff(left: Dict[str, Any], right: Dict[str, Any]) -> List[str]:
    """``field: left -> right`` for every environment field that differs."""
    fields = sorted(set(left) | set(right))
    return [f"{field}: {left.get(field)!r} -> {right.get(field)!r}"
            for field in fields if left.get(field) != right.get(field)]


def metric_rows(left: Dict[str, Any], right: Dict[str, Any]) -> List[str]:
    """One line per metric: both values and the relative change."""
    rows = []
    for name in sorted(set(left) | set(right)):
        a = left.get(name, {}).get("value")
        b = right.get(name, {}).get("value")
        unit = (left.get(name) or right.get(name))["unit"]
        change = ""
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) and a:
            change = f"{(b - a) / abs(a):+.2%}"
        rows.append(f"  {name:34s} {a!s:>22} {b!s:>22} {unit:8s} {change}")
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    left, right = load(argv[0]), load(argv[1])
    only = sorted(set(left) ^ set(right))
    for name in only:
        side = "first" if name in left else "second"
        print(f"{name}: only in the {side} set")
    for name in sorted(set(left) & set(right)):
        a, b = left[name], right[name]
        print(name)
        differences = environment_diff(a["environment"], b["environment"])
        for line in differences or ["environment identical"]:
            print(f"  env {line}")
        for key in ("correct", "attempted", "failed"):
            if a["result"][key] != b["result"][key]:
                print(f"  {key}: {a['result'][key]} -> {b['result'][key]}")
        print("\n".join(metric_rows(a["result"]["metrics"],
                                    b["result"]["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
