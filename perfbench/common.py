"""Shared helpers: seeds, percentiles, memory and the environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The benchmark's default workload seed (the repository's default
#: experiment seed).
DEFAULT_SEED = 20230414
#: A second committed seed, kept out of tuning, so a later claim can be
#: re-checked on inputs nobody optimised against.
HELDOUT_SEED = 7919

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where results and traces are written (inside the checkout, ignored
#: by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Length of one slice of a timed window.
SLICE_NS = 1_000_000_000
#: Latency percentiles every result reports, by name.
QUANTILES = {"p50_us": 0.50, "p99_us": 0.99, "p999_us": 0.999}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def mix_seed(*parts: int) -> int:
    """A 64-bit seed from integer parts (stable across processes)."""
    digest = hashlib.blake2b(
        b"/".join(str(part).encode() for part in parts), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _rank(count: int, q: float) -> int:
    """1-based nearest-rank position of the ``q``-quantile."""
    return min(count, max(1, math.ceil(q * count - 1e-9)))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def beyond(count: int, q: float) -> int:
    """Samples that lie beyond the ``q``-quantile of ``count`` samples."""
    return count - _rank(count, q) if count else 0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_digest() -> str:
    """Short hash of every ``.py`` file under ``src/``: names the code."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _module_version(name: str) -> Optional[str]:
    try:
        module = __import__(name)
    except ImportError:
        return None
    return str(getattr(module, "__version__", "unknown"))


def environment(seed: int) -> Dict[str, object]:
    """What a result depends on besides the code under ``src/``."""
    use_source_tree()
    from repro.kvstore import memtable

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _module_version("numpy"),
        "sortedcontainers": _module_version("sortedcontainers"),
        "memtable_branch": (
            "sorteddict" if memtable.SortedDict is not None else "dict-sort"
        ),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "source": _source_digest(),
    }


def summarize_window(latencies: List[float], marks: List[Tuple[int, int]],
                     start: int, end: int) -> Dict[str, Any]:
    """Throughput and latency percentiles of a timed window.

    ``latencies`` are per-unit times in ns (``inf`` for a failed unit);
    ``marks`` are ``(samples so far, perf_counter_ns)`` at each slice
    end. Throughput is completed units per second over the whole
    window, so stalls count. For percentiles the window is cut into
    slices of about :data:`SLICE_NS` (the last, partial slice is
    dropped unless it is the only one): a percentile is the median over
    slices of each slice's percentile when every slice holds at least
    ten samples beyond it, and the whole window's percentile otherwise;
    ``*_basis`` says which.
    """
    bounds = [(0, start)] + list(marks)
    slices = [(latencies[low:high], t_high - t_low)
              for (low, t_low), (high, t_high) in zip(bounds, bounds[1:])]
    if not slices:
        slices = [(latencies, end - start)]
    summary: Dict[str, Any] = {
        "samples": len(latencies),
        "slices": len(slices),
        "throughput": (sum(1 for value in latencies if math.isfinite(value))
                       / ((end - start) / 1e9)),
        "slice_throughputs": [
            sum(1 for value in part if math.isfinite(value)) / (span / 1e9)
            for part, span in slices
        ],
    }
    smallest = min(len(part) for part, _ in slices)
    ordered = sorted(latencies)
    for name, q in QUANTILES.items():
        if beyond(smallest, q) >= 10:
            value = statistics.median(
                percentile(sorted(part), q) for part, _ in slices
            )
            basis = "slice-median"
        else:
            value = percentile(ordered, q)
            basis = "window"
        summary[name] = value / 1e3
        summary[name + "_basis"] = basis
        summary[name + "_beyond"] = beyond(len(ordered), q)
    return summary
