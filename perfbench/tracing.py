"""Benchmark-side tracing: spans recorded from outside the program.

Every span is taken by a wrapper around a public object the benchmark
hands to a layer — a store, cluster or network target, a generator
factory, an adversary factory — so the program itself is unmodified.
Spans live in memory and are written out when the run ends.

Two record kinds:

* a **span** ``(id, parent, name, request, start_ns, end_ns)`` for
  coarse boundaries: the timed window, a game trial, a store/cluster
  op, a network op;
* an **aggregate** ``(parent, name, count, total_ns, max_ns)`` for
  calls too frequent to keep one by one (an adversary decision or an
  ``next_id`` happens once per game step): all calls of one name under
  one parent span fold into a single record.

A span's self time is its duration minus what its children (spans and
aggregates) cover. Children never overlap one another here: every
wrapped call is synchronous and the wrapped layers do not call one
another through a wrapper.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, int, int, int]
Aggregate = Tuple[int, str, int, int, int]


class Tracer:
    """In-memory span and aggregate store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.aggregates: List[Aggregate] = []
        #: Parent span of the next recorded span or aggregate.
        self.parent = 0
        #: Request id stamped on the next recorded span.
        self.request = 0
        self._next_id = 1
        self._open: Dict[str, List[int]] = {}
        #: Wrapped calls timed so far (drives the overhead estimate).
        self.timed_calls = 0

    def reset(self) -> None:
        """Drop everything recorded so far (set-up is not traced)."""
        self.spans = []
        self.aggregates = []
        self._open = {}
        self.timed_calls = 0

    def new_id(self) -> int:
        """Reserve a span id (children may cite it before it closes)."""
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def span(self, name: str, start: int, end: int,
             span_id: Optional[int] = None, parent: Optional[int] = None,
             request: Optional[int] = None) -> int:
        """Record a finished span; returns its id."""
        if span_id is None:
            span_id = self.new_id()
        self.spans.append((
            span_id,
            self.parent if parent is None else parent,
            name,
            self.request if request is None else request,
            start,
            end,
        ))
        return span_id

    def add(self, name: str, duration: int) -> None:
        """Fold one call of ``name`` into the current parent's aggregate."""
        entry = self._open.get(name)
        if entry is None:
            self._open[name] = [1, duration, duration]
            return
        entry[0] += 1
        entry[1] += duration
        if duration > entry[2]:
            entry[2] = duration

    def close_aggregates(self, parent: int) -> None:
        """Attach the open aggregates to ``parent`` and start afresh."""
        for name, (count, total, peak) in self._open.items():
            self.aggregates.append((parent, name, count, total, peak))
        self._open = {}

    # -- analysis -----------------------------------------------------------

    def busy(self, name: str) -> Tuple[int, int, int]:
        """``(count, total_ns, max_ns)`` over spans and aggregates of ``name``."""
        count = total = peak = 0
        for _, _, span_name, _, start, end in self.spans:
            if span_name == name:
                count += 1
                total += end - start
                peak = max(peak, end - start)
        for _, agg_name, agg_count, agg_total, agg_peak in self.aggregates:
            if agg_name == name:
                count += agg_count
                total += agg_total
                peak = max(peak, agg_peak)
        return count, total, peak

    def self_times(self) -> Dict[str, int]:
        """Self time in ns per span/aggregate name."""
        covered: Dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            covered[parent] = covered.get(parent, 0) + (end - start)
        for parent, _, _, total, _ in self.aggregates:
            covered[parent] = covered.get(parent, 0) + total
        result: Dict[str, int] = {}
        for span_id, _, name, _, start, end in self.spans:
            own = (end - start) - covered.get(span_id, 0)
            result[name] = result.get(name, 0) + own
        for _, name, _, total, _ in self.aggregates:
            result[name] = result.get(name, 0) + total
        return result

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write every record as one JSON line (header first)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", **header}) + "\n")
            for span_id, parent, name, request, start, end in self.spans:
                handle.write(
                    f'{{"kind":"span","id":{span_id},"parent":{parent},'
                    f'"name":"{name}","request":{request},'
                    f'"start_ns":{start},"end_ns":{end}}}\n'
                )
            for parent, name, count, total, peak in self.aggregates:
                handle.write(
                    f'{{"kind":"aggregate","parent":{parent},'
                    f'"name":"{name}","count":{count},'
                    f'"total_ns":{total},"max_ns":{peak}}}\n'
                )


# ---------------------------------------------------------------------------
# Wrappers around the serving stack
# ---------------------------------------------------------------------------


class TracedTarget:
    """Times ``get``/``put``/``delete``/``scan`` of a store or cluster.

    Other attributes pass through. ``execute`` is deliberately absent:
    :func:`repro.workloads.driver.execute_op` routes whole ops to a
    target's ``execute`` when it has one, so a wrapper must offer it
    only when the wrapped target does (:class:`TracedRemoteTarget`).
    """

    def __init__(self, target: Any, tracer: Tracer, layer: str,
                 own_requests: bool = False) -> None:
        self._target = target
        self._tracer = tracer
        #: Number each call as its own request (a server, which cannot
        #: see the client's request ids, sets this).
        self._own_requests = own_requests
        self._names = {op: f"{layer}.{op}"
                       for op in ("get", "put", "delete", "scan", "execute")}
        #: Rows returned by scans (the scan path's work count).
        self.scan_rows = 0

    def _timed(self, op: str, method: Callable, *args: Any) -> Any:
        start = perf_counter_ns()
        try:
            return method(*args)
        finally:
            tracer = self._tracer
            tracer.span(self._names[op], start, perf_counter_ns())
            tracer.timed_calls += 1
            if self._own_requests:
                tracer.request += 1

    def get(self, key: bytes) -> Optional[bytes]:
        return self._timed("get", self._target.get, key)

    def put(self, key: bytes, value: bytes) -> Any:
        return self._timed("put", self._target.put, key, value)

    def delete(self, key: bytes) -> Any:
        return self._timed("delete", self._target.delete, key)

    def scan(self, start: bytes, end: Optional[bytes] = None,
             limit: Optional[int] = None) -> Any:
        rows = self._timed("scan", self._target.scan, start, end, limit)
        self.scan_rows += len(rows)
        return rows

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class TracedRemoteTarget(TracedTarget):
    """A :class:`TracedTarget` for targets that ship whole ops."""

    def execute(self, op: str, key: bytes, value: bytes) -> bytes:
        return self._timed("execute", self._target.execute, op, key, value)


def traced_target(target: Any, tracer: Tracer, layer: str,
                  own_requests: bool = False) -> TracedTarget:
    """Wrap ``target``, exposing ``execute`` only if ``target`` has it."""
    cls = (TracedRemoteTarget if callable(getattr(target, "execute", None))
           else TracedTarget)
    return cls(target, tracer, layer, own_requests)


# ---------------------------------------------------------------------------
# Wrappers around the estimation stack
# ---------------------------------------------------------------------------


class CallCounts:
    """Call counters shared by the estimation wrappers."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.instances = 0
        self.ids = 0
        self.decisions = 0


class TracedGenerator:
    """Times ``next_id``/``generate_batch`` of one generator instance."""

    def __init__(self, inner: Any, tracer: Tracer, counts: CallCounts) -> None:
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def next_id(self) -> int:
        start = perf_counter_ns()
        try:
            return self._inner.next_id()
        finally:
            self._tracer.add("core.next_id", perf_counter_ns() - start)
            self._tracer.timed_calls += 1
            self._counts.ids += 1

    def generate_batch(self, count: int) -> List[int]:
        start = perf_counter_ns()
        ids = self._inner.generate_batch(count)
        self._tracer.add("core.generate_batch", perf_counter_ns() - start)
        self._tracer.timed_calls += 1
        self._counts.ids += len(ids)
        return ids

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedGeneratorFactory:
    """Wraps an instance factory ``(m, rng) -> IDGenerator``."""

    def __init__(self, inner: Callable, tracer: Tracer, counts: CallCounts):
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def __call__(self, m: int, rng: Any) -> TracedGenerator:
        start = perf_counter_ns()
        generator = self._inner(m, rng)
        self._tracer.add("core.new_instance", perf_counter_ns() - start)
        self._tracer.timed_calls += 1
        self._counts.instances += 1
        return TracedGenerator(generator, self._tracer, self._counts)


class TracedAdversary:
    """Times ``begin``/``next_request`` of one adversary."""

    def __init__(self, inner: Any, tracer: Tracer, counts: CallCounts) -> None:
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def begin(self, view: Any) -> None:
        start = perf_counter_ns()
        self._inner.begin(view)
        self._tracer.add("adversary.begin", perf_counter_ns() - start)
        self._tracer.timed_calls += 1

    def next_request(self, view: Any) -> Optional[int]:
        start = perf_counter_ns()
        choice = self._inner.next_request(view)
        self._tracer.add("adversary.next_request", perf_counter_ns() - start)
        self._tracer.timed_calls += 1
        self._counts.decisions += 1
        return choice

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedAdversaryFactory:
    """Wraps an adversary factory ``(rng) -> Adversary``.

    Used on adaptive workloads only: the batched oblivious fast path
    recognises :class:`~repro.simulation.batch.ObliviousFactory` by
    type, so wrapping that factory would switch the path off.
    """

    def __init__(self, inner: Callable, tracer: Tracer, counts: CallCounts):
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def __call__(self, rng: Any) -> TracedAdversary:
        start = perf_counter_ns()
        adversary = self._inner(rng)
        self._tracer.add("adversary.new", perf_counter_ns() - start)
        self._tracer.timed_calls += 1
        return TracedAdversary(adversary, self._tracer, self._counts)


# ---------------------------------------------------------------------------
# Overhead
# ---------------------------------------------------------------------------


class _Null:
    def get(self, key: bytes) -> None:
        return None


def calibrate_call_overhead_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra cost (ns) of one wrapped, span-recording call.

    Compares a trivial ``get`` through :class:`TracedTarget` with the
    same call made directly; the difference is what each timed call in
    a traced run adds.
    """
    direct_target = _Null()
    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = TracedTarget(direct_target, tracer, "calibration")
        start = perf_counter_ns()
        for _ in range(calls):
            direct_target.get(b"")
        middle = perf_counter_ns()
        for _ in range(calls):
            wrapped.get(b"")
        end = perf_counter_ns()
        samples.append(((end - middle) - (middle - start)) / calls)
    return max(0.0, statistics.median(samples))
