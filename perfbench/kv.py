"""Serving workloads: ``kv-update``, ``kv-scan`` and ``kv-net``.

Each is a closed loop — one client thread, at most one connection —
that replays a YCSB stream through
:func:`repro.workloads.driver.execute_op`, the executor ``uuidp kv``
and ``uuidp serve`` share. The stream is generated from the workload
seed during set-up (``load_phase`` + ``run_phase``), so the timed
window covers the serving stack and not the generator. The window
replays the stream cyclically until the time is up and at least one
full cycle has run; replaying writes the same values in the same
order, so every cycle leaves the same logical state. ``kv-net`` serves
its fleet from an ``RPCServer`` on a ``ServerThread`` in this process
and reaches it through one ``NetworkTarget`` connection over loopback.

Checks (all outside the timed window):

* the CRC fingerprint over ``(op, key, outcome)`` of the first
  measured cycle equals a plain-dict model's, and the committed value
  for the default and held-out seeds (for ``kv-net`` the committed value
  is the one the same stream gives in-process);
* file-ID collisions, cross-file block reads and cross-file cache hits
  are all zero;
* ``kv-update`` only: after ``crash()``, ``restart()`` and
  ``MiniRocks.open``, every write with seqno at or below the
  ``durable_seqno`` taken before the crash reads back its value or a
  newer one.
"""

from __future__ import annotations

import bisect
import os
import random
import zlib
from array import array
from dataclasses import dataclass
from time import monotonic, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.common import (
    SLICE_NS,
    mix_seed,
    peak_rss_mb,
    summarize_window,
    use_source_tree,
)
from perfbench.tracing import Tracer, traced_target

use_source_tree()

from repro.errors import ClusterUnavailableError  # noqa: E402
from repro.kvstore.blockcache import BlockCache  # noqa: E402
from repro.kvstore.db import MiniRocks  # noqa: E402
from repro.kvstore.options import Options  # noqa: E402
from repro.kvstore.storage import SimulatedStorage  # noqa: E402
from repro.kvstore.wal import WriteMode  # noqa: E402
from repro.workloads.driver import (  # noqa: E402
    FAILED_OP_OUTCOME,
    cluster_target_factory,
    execute_op,
)
from repro.workloads.ycsb import (  # noqa: E402
    WorkloadSpec,
    load_phase,
    run_phase,
)

Operation = Tuple[str, bytes, bytes]

#: Failed ops are slower than any latency limit.
FAILED_LATENCY = float("inf")


@dataclass(frozen=True)
class KVConfig:
    """One serving workload's shape."""

    ycsb: str
    records: int
    cycle_ops: int
    warmup_ops: int
    #: ``durable-store``, ``store`` or ``network``.
    target: str
    max_scan_length: int = 100


CONFIGS = {
    # 20,000 records against a 256-block (4,096-entry) cache: the
    # dataset is about 5x the cache, and flush + compaction run for
    # many cycles (YCSB A is half updates).
    "kv-update": KVConfig("a", 20_000, 40_000, 2_000, "durable-store"),
    # Scans of 1-50 rows through the memtable, SST blocks and merge
    # iterator; scans bypass the bloom filter and the block cache.
    "kv-scan": KVConfig("e", 20_000, 20_000, 1_000, "store",
                        max_scan_length=50),
    # 2,000 records fit the served cluster's shared 8,192-block cache.
    "kv-net": KVConfig("b", 2_000, 5_000, 500, "network"),
}

#: Node counters summed over the served fleet on ``kv-net``.
NODE_COUNTERS = ("puts", "gets", "scans", "flushes", "compactions",
                 "sst_reads", "bloom_negative", "fsync_count", "wal_bytes")

#: The network workload's fleet: 4 nodes, RF=3, majority quorums.
NET_NODES = 4
NET_REPLICATION = 3
NET_SHARD = 0


def store_options() -> Options:
    """Options of the in-process stores (flush policy stated here)."""
    return Options(
        memtable_entries=128,
        block_entries=16,
        write_mode=WriteMode.BATCH,
    )


def served_options() -> Options:
    """Options of each served node: what ``uuidp serve`` builds."""
    return Options(id_algorithm="cluster", id_universe=1 << 64)


def served_cluster_factory():
    """The server's target factory: what ``uuidp serve --target cluster
    --nodes 4 --replication 3`` builds (also used for the in-process
    reference run of ``kv-net``)."""
    return cluster_target_factory(
        NET_NODES, served_options, replication_factor=NET_REPLICATION
    )


def outcome_of(state: Dict[bytes, bytes], keys: List[bytes],
               op: str, key: bytes, value: bytes) -> bytes:
    """Model one op on a plain dict (``keys`` kept sorted); return the
    outcome digest :func:`execute_op` would return."""
    if op == "get":
        found = state.get(key)
        return b"\x00" if found is None else b"\x01" + found
    if op == "put":
        if key not in state:
            bisect.insort(keys, key)
        state[key] = value
        return b"\x02"
    if op == "scan":
        first = bisect.bisect_left(keys, key)
        digest = 0
        rows = keys[first:first + int(value)]
        for row_key in rows:
            digest = zlib.crc32(state[row_key], zlib.crc32(row_key, digest))
        return len(rows).to_bytes(4, "little") + digest.to_bytes(4, "little")
    raise ValueError(f"the model does not cover op {op!r}")


def fingerprint(ops: List[Operation], outcomes: List[bytes],
                first: int) -> int:
    """CRC over ``(op, key, outcome)`` of ``outcomes`` (which start at
    stream index ``first``), as the workload driver computes it."""
    crc = 0
    count = len(ops)
    for offset, outcome in enumerate(outcomes):
        op, key, _ = ops[(first + offset) % count]
        crc = zlib.crc32(op.encode() + key + outcome, crc)
    return crc


class KVWorkload:
    """Set-up, timed window and checks of one serving workload."""

    def __init__(self, name: str, seed: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.config = CONFIGS[name]
        self.seed = seed
        self.tracer = tracer
        #: ``kv-net``: spans of the server's loop thread, kept apart from
        #: the client's so neither borrows the other's parent span.
        self.server_tracer = Tracer() if tracer is not None else None
        self.layers: Dict[str, float] = {}
        self.store: Optional[MiniRocks] = None
        self.storage: Optional[SimulatedStorage] = None
        #: ``kv-net``: the ``ServerThread`` and the clusters it serves.
        self.server: Any = None
        self.clusters: List[Any] = []
        self.target: Any = None
        self.executed = 0

    # -- set-up -------------------------------------------------------------

    def generate(self) -> None:
        """Build the load and run streams from the workload seed."""
        config = self.config
        spec = WorkloadSpec(
            workload=config.ycsb,
            record_count=config.records,
            operation_count=config.cycle_ops,
            value_size=32,
            zipf_theta=0.99,
            max_scan_length=config.max_scan_length,
        )
        rng = random.Random(mix_seed(self.seed, 1))
        self.load_ops = list(load_phase(spec, rng))
        self.ops = list(run_phase(spec, rng))

    def setup(self) -> None:
        """Generate, build the target, bulk-load and warm up."""
        started = perf_counter_ns()
        self.generate()
        generated = perf_counter_ns()
        self.target = self._build_target()
        built = perf_counter_ns()
        for op, key, value in self.load_ops:
            execute_op(self.target, op, key, value)
        loaded = perf_counter_ns()
        for op, key, value in self.ops[:self.config.warmup_ops]:
            execute_op(self.target, op, key, value)
        self.layers["workloads.gen_s"] = (generated - started) / 1e9
        self.layers["workloads.load_s"] = (loaded - built) / 1e9
        if self.tracer is not None:
            self.tracer.reset()
            self.server_tracer.reset()
        self.before = self._counters()

    def _build_target(self) -> Any:
        kind = self.config.target
        if kind == "network":
            return self._serve()
        if kind == "durable-store":
            self.storage = SimulatedStorage(seed=mix_seed(self.seed, 2))
        self.store = MiniRocks(
            store_options(),
            cache=BlockCache(256),
            rng=random.Random(mix_seed(self.seed, 3)),
            storage=self.storage,
        )
        if self.tracer is None:
            return self.store
        return traced_target(self.store, self.tracer, "kvstore")

    def _serve(self) -> Any:
        """Stand ``uuidp serve``'s ``RPCServer`` up in this process (on
        a ``ServerThread``) and connect one ``NetworkTarget`` to it."""
        from repro.distributed.rpc import NetworkTarget, ServerThread

        # The client, its loop thread and the server's loop thread hand
        # every op to one another. Across the two vCPUs of a shared
        # virtual host each hand-off waits for the hypervisor to wake an
        # idle vCPU, which about halved throughput; pinned to one CPU
        # (threads started below inherit it) the hand-offs are plain
        # context switches.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        inner = served_cluster_factory()
        tracer = self.server_tracer

        def factory(shard: int, shard_seed: int) -> Any:
            cluster = inner(shard, shard_seed)
            self.clusters.append(cluster)
            if tracer is None:
                return cluster
            return traced_target(cluster, tracer, "cluster",
                                 own_requests=True)

        self.server = ServerThread(factory)
        host, port = self.server.address
        target = NetworkTarget(host, port, NET_SHARD, mix_seed(self.seed, 4))
        if self.tracer is None:
            return target
        return traced_target(target, self.tracer, "rpc")

    def _server_counters(self) -> Dict[str, Any]:
        """The server, fleet and cache counters ``kv-net`` reads."""
        nodes = dict.fromkeys(NODE_COUNTERS, 0)
        nodes.update(cache_hits=0, cache_misses=0, cache_evictions=0)
        summary = dict.fromkeys(("id_collisions", "corrupt_block_reads",
                                 "cache_cross_file_hits", "read_repairs",
                                 "read_escalations"), 0)
        for cluster in self.clusters:
            for node in cluster.nodes:
                for name in NODE_COUNTERS:
                    nodes[name] += getattr(node.db.stats, name)
            stats = cluster.cache.stats
            nodes["cache_hits"] += stats.hits
            nodes["cache_misses"] += stats.misses
            nodes["cache_evictions"] += stats.evictions
            report = cluster.report()
            summary["id_collisions"] += report.audit.collision_count
            summary["corrupt_block_reads"] += report.corrupt_block_reads
            summary["cache_cross_file_hits"] += report.cache_cross_file_hits
            summary["read_repairs"] += report.read_repairs
            summary["read_escalations"] += report.read_escalations
        server = self.server.server
        calls = total = 0
        if self.server_tracer is not None:
            for op in ("get", "put", "delete", "scan"):
                count, busy, _ = self.server_tracer.busy(f"cluster.{op}")
                calls += count
                total += busy
        return {
            "frames_served": server.frames_served,
            "connections_opened": server.connections_opened,
            "peak_write_buffer": server.peak_write_buffer,
            "nodes": nodes,
            "cluster": summary,
            "busy": {"calls": calls, "total_ns": total},
        }

    def _counters(self) -> Dict[str, Any]:
        """Snapshot of the program's public counters."""
        if self.server is not None:
            return self._server_counters()
        stats, cache = self.store.stats, self.store.cache.stats
        snapshot = {
            name: getattr(stats, name) for name in (
                "puts", "gets", "scans", "flushes", "compactions",
                "sst_reads", "bloom_negative", "fsync_count", "wal_bytes",
            )
        }
        snapshot.update(cache_hits=cache.hits, cache_misses=cache.misses,
                        cache_evictions=cache.evictions)
        if self.storage is not None:
            snapshot["bytes_written"] = self.storage.bytes_written
        return snapshot

    # -- the timed window ---------------------------------------------------

    def run(self, seconds: float) -> Dict[str, Any]:
        """Closed loop until ``seconds`` pass and one cycle completed."""
        ops = self.ops
        count = len(ops)
        target = self.target
        tracer = self.tracer
        latencies = array("d")
        outcomes: List[bytes] = []
        index = first = self.config.warmup_ops
        failed = 0
        window_id = 0
        if tracer is not None:
            window_id = tracer.new_id()
            tracer.parent = window_id
        marks: List[Tuple[int, int]] = []
        self.window_started = monotonic()
        start = ended = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        next_mark = start + SLICE_NS
        while True:
            op, key, value = ops[index % count]
            if tracer is not None:
                tracer.request = index
            began = perf_counter_ns()
            try:
                outcome = execute_op(target, op, key, value)
            except ClusterUnavailableError:
                ended = perf_counter_ns()
                outcome = FAILED_OP_OUTCOME
                failed += 1
                latencies.append(FAILED_LATENCY)
            else:
                ended = perf_counter_ns()
                latencies.append(ended - began)
            if ended >= next_mark:
                marks.append((len(latencies), ended))
                next_mark = ended + SLICE_NS
            if len(outcomes) < count:
                outcomes.append(outcome)
            index += 1
            if ended >= deadline and len(outcomes) == count:
                break
        if tracer is not None:
            tracer.span("window", start, ended, span_id=window_id, parent=0)
        self.executed = index
        self.outcomes = outcomes
        self.after = self._counters()
        return {
            "attempted": index - first,
            "failed": failed,
            "elapsed_s": (ended - start) / 1e9,
            "peak_rss_mb": peak_rss_mb(),
            "summary": summarize_window(latencies, marks, start, ended),
        }

    # -- checks -------------------------------------------------------------

    def _executed_writes(self):
        """Every write issued so far, in order: load, warm-up, window."""
        for op, key, value in self.load_ops:
            yield key, value
        ops, count = self.ops, len(self.ops)
        for index in range(self.executed):
            op, key, value = ops[index % count]
            if op == "put":
                yield key, value

    def _replayed_fingerprint(self, apply: Callable[..., bytes]) -> int:
        """Replay load, warm-up and the first measured cycle through
        ``apply(op, key, value) -> outcome``; fingerprint the cycle."""
        for operation in self.load_ops:
            apply(*operation)
        ops, count, first = self.ops, len(self.ops), self.config.warmup_ops
        for operation in ops[:first]:
            apply(*operation)
        outcomes = [apply(*ops[(first + i) % count]) for i in range(count)]
        return fingerprint(ops, outcomes, first)

    def model_fingerprint(self) -> int:
        """The first measured cycle's fingerprint on a plain-dict model."""
        state: Dict[bytes, bytes] = {}
        keys: List[bytes] = []
        return self._replayed_fingerprint(
            lambda op, key, value: outcome_of(state, keys, op, key, value)
        )

    def reference_fingerprint(self) -> int:
        """``kv-net``: the same stream run in-process on the same fleet."""
        target = served_cluster_factory()(NET_SHARD, mix_seed(self.seed, 4))
        return self._replayed_fingerprint(
            lambda op, key, value: execute_op(target, op, key, value)
        )

    def measured_fingerprint(self) -> int:
        """Fingerprint of the first measured cycle as the program ran it."""
        return fingerprint(self.ops, self.outcomes, self.config.warmup_ops)

    def committed_values(self) -> Dict[str, Any]:
        """What ``expected.json`` commits for this workload and seed."""
        return {"fingerprint": self.measured_fingerprint()}

    def verify(self, expected: Optional[Dict[str, Any]]) -> List[Tuple[str, bool, str]]:
        """Every output check; each is ``(name, passed, detail)``."""
        checks = []
        measured = self.measured_fingerprint()
        model = self.model_fingerprint()
        checks.append(("fingerprint matches the dict model",
                       measured == model, f"{measured:#010x} vs {model:#010x}"))
        if self.config.target == "network":
            reference = self.reference_fingerprint()
            checks.append(("network fingerprint matches in-process",
                           measured == reference,
                           f"{measured:#010x} vs {reference:#010x}"))
        if expected is not None:
            checks.append(("fingerprint matches the committed value",
                           measured == expected["fingerprint"],
                           f"{measured:#010x} vs "
                           f"{expected['fingerprint']:#010x}"))
        collisions, corrupt, cross = self._collision_counters()
        checks.append(("no file-ID collisions", collisions == 0,
                       str(collisions)))
        checks.append(("no corrupt block reads", corrupt == 0, str(corrupt)))
        checks.append(("no cross-file cache hits", cross == 0, str(cross)))
        if self.storage is not None:
            lost, detail = self.durability_violations()
            checks.append(("durable writes survive crash and reopen",
                           lost == 0, detail))
        return checks

    def _collision_counters(self) -> Tuple[int, int, int]:
        if self.server is not None:
            cluster = self.after["cluster"]
            return (cluster["id_collisions"], cluster["corrupt_block_reads"],
                    cluster["cache_cross_file_hits"])
        ids = self.store.assigned_file_ids()
        return (len(ids) - len(set(ids)),
                self.store.stats.corrupt_block_reads,
                self.store.cache.stats.cross_file_hits)

    def durability_violations(self) -> Tuple[int, str]:
        """Crash, restart, reopen; count writes at or below the durable
        seqno whose key reads back neither their value nor a newer one."""
        store, storage = self.store, self.storage
        durable = store.durable_seqno
        last = store.last_seqno
        baseline: Dict[bytes, bytes] = {}
        newer: Dict[bytes, set] = {}
        issued = 0
        for issued, (key, value) in enumerate(self._executed_writes(), 1):
            if issued <= durable:
                baseline[key] = value
            else:
                newer.setdefault(key, set()).add(value)
        if issued != last:
            return 1, f"{issued} writes issued but last_seqno is {last}"
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, store_options(), cache=BlockCache(256),
            rng=random.Random(mix_seed(self.seed, 5)),
        )
        lost = 0
        for key in baseline.keys() | newer.keys():
            found = reopened.get(key)
            if found in newer.get(key, ()):
                continue
            if found != baseline.get(key):
                lost += 1
        return lost, (f"durable_seqno={durable} of {last} writes; "
                      f"{len(newer)} keys had unacknowledged writes")

    # -- metrics ------------------------------------------------------------

    def live_user_bytes(self) -> int:
        """Key + value bytes of the live dataset after the window."""
        state = dict(self._executed_writes())
        return sum(len(key) + len(value) for key, value in state.items())

    def window_user_bytes(self) -> int:
        """Key + value bytes written during the timed window."""
        ops, count = self.ops, len(self.ops)
        total = 0
        for index in range(self.config.warmup_ops, self.executed):
            op, key, value = ops[index % count]
            if op == "put":
                total += len(key) + len(value)
        return total

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of a traced run."""
        tracer = self.tracer
        layers = dict(self.layers)
        before, after = self.before, self.after
        self_ns = tracer.self_times()
        layers["workloads.loop_self_s"] = self_ns.get("window", 0) / 1e9

        def delta(name: str) -> int:
            return after[name] - before[name]

        if self.server is None:
            counts = {name: delta(name) for name in before}
            for op in ("get", "put", "scan"):
                _, total, peak = tracer.busy(f"kvstore.{op}")
                layers[f"kvstore.{op}.busy_s"] = total / 1e9
                if op == "put":
                    layers["kvstore.put.max_us"] = peak / 1e3
            layers["kvstore.scan.rows"] = self.target.scan_rows
        else:
            counts = {name: after["nodes"][name] - before["nodes"][name]
                      for name in after["nodes"]}
            calls, total, _ = tracer.busy("rpc.execute")
            server_calls = after["busy"]["calls"] - before["busy"]["calls"]
            server_ns = after["busy"]["total_ns"] - before["busy"]["total_ns"]
            layers.update({
                "rpc.calls": calls,
                "rpc.client_busy_s": total / 1e9,
                "rpc.wire_s": (total - server_ns) / 1e9,
                "rpc.frames_served": delta("frames_served"),
                "rpc.connections_opened": after["connections_opened"],
                "rpc.peak_write_buffer": after["peak_write_buffer"],
                "cluster.calls": server_calls,
                "cluster.busy_s": server_ns / 1e9,
                "cluster.read_repairs": (after["cluster"]["read_repairs"]
                                         - before["cluster"]["read_repairs"]),
                "cluster.read_escalations": (
                    after["cluster"]["read_escalations"]
                    - before["cluster"]["read_escalations"]),
                "cluster.cache.hit_rate": _rate(
                    counts["cache_hits"], counts["cache_misses"]),
                "cluster.id_collisions": after["cluster"]["id_collisions"],
                "cluster.corrupt_block_reads":
                    after["cluster"]["corrupt_block_reads"],
            })
        gets = counts["gets"]
        layers.update({
            "kvstore.put.calls": counts["puts"],
            "kvstore.get.calls": gets,
            "kvstore.scan.calls": counts["scans"],
            "kvstore.flushes": counts["flushes"],
            "kvstore.compactions": counts["compactions"],
            "kvstore.wal.fsyncs": counts["fsync_count"],
            "kvstore.wal.bytes": counts["wal_bytes"],
            "kvstore.sst_reads_per_get": counts["sst_reads"] / gets if gets else 0.0,
            "kvstore.bloom_negative_per_get":
                counts["bloom_negative"] / gets if gets else 0.0,
            "kvstore.cache.hit_rate": _rate(counts["cache_hits"],
                                            counts["cache_misses"]),
            "kvstore.cache.evictions": counts["cache_evictions"],
        })
        if self.storage is not None:
            written = counts["bytes_written"]
            stored = sum(self.storage.size(name)
                         for name in self.storage.list())
            layers["kvstore.storage.bytes_written"] = written
            layers["kvstore.storage.bytes_stored"] = stored
            layers["kvstore.write_amp"] = written / self.window_user_bytes()
            layers["kvstore.space_amp"] = stored / self.live_user_bytes()
        return layers

    def timed_calls(self) -> int:
        """Wrapped calls timed in the window, client and server side."""
        return self.tracer.timed_calls + self.server_tracer.timed_calls

    def write_trace(self, path: str, header: Dict[str, Any]) -> None:
        """Write the spans; the server's go to ``path + ".server"``."""
        self.tracer.write(path, {**header, "thread": "client"})
        if self.clusters:
            self.server_tracer.write(path + ".server",
                                     {**header, "thread": "server"})

    def close(self) -> None:
        """Disconnect and stop the server (if any)."""
        if self.server is not None:
            if self.target is not None:
                self.target.close()
            self.server.stop()
            self.server = None


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
