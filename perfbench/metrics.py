"""Metric names, units and how each is read off a worker report.

Every workload reports every metric, so a metric whose natural unit of
work differs between the two stacks is defined per stack: the unit of
work is a logical op on ``kv-*`` and a game trial on ``mc-*``.
"""

from __future__ import annotations

from typing import Any, Dict

WORKLOADS = ("mc-adaptive", "mc-oblivious", "kv-update", "kv-scan", "kv-net")

#: (name, unit, better) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_fraction", "fraction", "higher"),
    ("throughput", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_tail_us", "us", "lower"),
)

#: The tail percentile each workload reports as ``latency_tail_us``.
#: ``kv-update`` reports p99.9 because compaction stalls land above
#: p99. Elsewhere p99.9 either has fewer than ten samples beyond it
#: (a trial costs 100-1000 ops) or measures scheduler stalls whose
#: run-to-run spread is wider than any allowed bound, so p99 it is.
#: Every result file keeps all three percentiles with sample counts.
TAIL_QUANTILE = {
    "mc-adaptive": "p99_us",
    "mc-oblivious": "p99_us",
    "kv-update": "p999_us",
    "kv-scan": "p99_us",
    "kv-net": "p99_us",
}

#: (name, unit, better) of the per-layer metrics, printed with
#: --trace 1. Counts taken over the window are "higher" when they are
#: work served and "lower" when they are cost. A layer a workload never
#: calls reports 0.
PER_LAYER = (
    ("adversary.decisions", "count", "higher"),
    ("adversary.busy_s", "s", "lower"),
    ("simulation.trials", "count", "higher"),
    ("simulation.collisions", "count", "higher"),
    ("simulation.busy_s", "s", "lower"),
    ("simulation.self_s", "s", "lower"),
    ("core.instances", "count", "higher"),
    ("core.ids", "count", "higher"),
    ("core.busy_s", "s", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("workloads.load_s", "s", "lower"),
    ("workloads.loop_self_s", "s", "lower"),
    ("kvstore.put.calls", "count", "higher"),
    ("kvstore.put.busy_s", "s", "lower"),
    ("kvstore.put.max_us", "us", "lower"),
    ("kvstore.flushes", "count", "lower"),
    ("kvstore.compactions", "count", "lower"),
    ("kvstore.wal.fsyncs", "count", "lower"),
    ("kvstore.wal.bytes", "B", "lower"),
    ("kvstore.storage.bytes_written", "B", "lower"),
    ("kvstore.storage.bytes_stored", "B", "lower"),
    ("kvstore.write_amp", "ratio", "lower"),
    ("kvstore.space_amp", "ratio", "lower"),
    ("kvstore.get.calls", "count", "higher"),
    ("kvstore.get.busy_s", "s", "lower"),
    ("kvstore.sst_reads_per_get", "ratio", "lower"),
    ("kvstore.bloom_negative_per_get", "ratio", "higher"),
    ("kvstore.cache.hit_rate", "fraction", "higher"),
    ("kvstore.cache.evictions", "count", "lower"),
    ("kvstore.scan.calls", "count", "higher"),
    ("kvstore.scan.busy_s", "s", "lower"),
    ("kvstore.scan.rows", "count", "higher"),
    ("rpc.calls", "count", "higher"),
    ("rpc.client_busy_s", "s", "lower"),
    ("rpc.wire_s", "s", "lower"),
    ("rpc.frames_served", "count", "higher"),
    ("rpc.connections_opened", "count", "lower"),
    ("rpc.peak_write_buffer", "B", "lower"),
    ("cluster.calls", "count", "higher"),
    ("cluster.busy_s", "s", "lower"),
    ("cluster.read_repairs", "count", "lower"),
    ("cluster.read_escalations", "count", "lower"),
    ("cluster.cache.hit_rate", "fraction", "higher"),
    ("cluster.id_collisions", "count", "lower"),
    ("cluster.corrupt_block_reads", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, report: Dict[str, Any],
               setup_s: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of an untraced worker report."""
    summary = report["summary"]
    attempted = report["attempted"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_fraction": (attempted - report["failed"]) / attempted,
        "throughput": summary["throughput"],
        "latency_p50_us": summary["p50_us"],
        "latency_tail_us": summary[TAIL_QUANTILE[workload]],
    }
    return {name: _metric(values[name], unit)
            for name, unit, _ in END_TO_END}


def per_layer(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of a traced worker report."""
    layers = report["layers"]
    return {name: _metric(layers.get(name, 0), unit)
            for name, unit, _ in PER_LAYER}
