"""Network serving layer: ``uuidp serve`` and its blocking client.

This module promotes the in-process serving stack behind a real
network boundary so the ops/s and p99 numbers of the workload driver
include what production numbers include: syscalls, serialization, and
slow clients. A network op crosses two threads: the driver shard's own
thread, which blocks on its socket, and the server's event loop, which
runs the op inline.

:class:`RPCServer`
    An asyncio TCP server speaking the framed protocol of
    :mod:`repro.distributed.protocol`. Each connection ``ATTACH``-es as
    one driver shard; the server builds that shard's **private** target
    (a :class:`~repro.distributed.cluster.ClusterSimulator` fleet or a
    single MiniRocks) from its configured factory — the same
    ``TargetFactory`` contract the in-process driver uses, which is why
    a network run reproduces an in-process run bit-for-bit. Each
    connection's frames run inline on the event loop, strictly in
    order (the determinism contract needs ordered execution). Every
    target is in-memory pure Python, so a worker pool would only queue
    the same work behind the GIL. Responses are written under a
    bounded transport write-buffer high-water mark and ``drain()`` — a
    client that stops reading stalls *its own* connection via TCP
    backpressure instead of growing server memory.

:class:`NetworkTarget` / :func:`network_target_factory`
    The synchronous client :class:`~repro.workloads.driver.WorkloadDriver`
    shards drive: one blocking socket per shard, one request in flight.
    ``execute(op, key, value)`` ships whole logical ops (``rmw`` is one
    RPC), and ``kill``/``recover`` let chaos schedules fire through the
    RPC boundary. A per-op timeout surfaces as
    :class:`~repro.errors.RPCTimeoutError` (a
    ``ClusterUnavailableError``), and connects retry on a **jitterless,
    deterministic** doubling backoff so test runs are reproducible.

:class:`ServerThread`
    An :class:`RPCServer` on a private loop thread, for synchronous
    harnesses (tests, benchmarks, the example script).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.distributed.protocol import (
    CODE_TO_OP,
    DEFAULT_MAX_FRAME,
    OP_ATTACH,
    OP_KILL,
    OP_RECOVER,
    OP_REPORT,
    OP_TO_CODE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PROTOCOL,
    STATUS_UNAVAILABLE,
    decode_attach,
    decode_frame,
    decode_kv,
    decode_node,
    encode_attach,
    encode_frame,
    encode_kv,
    encode_node,
    pop_frame,
    read_frame,
)
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    ReproError,
    RPCConnectionError,
    RPCError,
    RPCProtocolError,
    RPCTimeoutError,
)

#: Default per-op client timeout (seconds). Generous: loopback ops are
#: microseconds; this exists so a hung server fails red, not black.
DEFAULT_OP_TIMEOUT = 30.0
#: Server-side transport write-buffer high-water mark (bytes): the
#: slow-client bound. ``drain()`` parks the connection handler until
#: the peer reads the buffer back under this.
DEFAULT_WRITE_BUFFER_HIGH = 64 * 1024
#: Deterministic connect-retry schedule: ``backoff * 2**attempt``
#: seconds, no jitter (reproducibility beats thundering-herd manners in
#: a test harness).
DEFAULT_CONNECT_RETRIES = 5
DEFAULT_CONNECT_BACKOFF = 0.05
#: Bytes asked of one ``recv`` into a client's receive buffer.
_RECV_BYTES = 64 * 1024

#: Seam for tests to observe/neutralize backoff sleeps.
_sleep = time.sleep


def _execute_op(target: Any, op: str, key: bytes, value: bytes) -> bytes:
    # Deferred import: workloads.driver imports distributed.cluster;
    # importing it at module top would still be acyclic today, but the
    # lazy import keeps protocol/server importable without dragging in
    # the whole workload stack (and mirrors cluster.run_workload).
    from repro.workloads.driver import execute_op

    return execute_op(target, op, key, value)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _Connection:
    """Per-connection server state: the attached shard target."""

    __slots__ = ("target", "shard")

    def __init__(self) -> None:
        self.target: Any = None
        self.shard: Optional[int] = None


class RPCServer:
    """Asyncio TCP server wrapping per-shard storage targets.

    Parameters
    ----------
    target_factory:
        ``(shard, shard_seed) -> target`` — the same contract as the
        driver's :data:`~repro.workloads.driver.TargetFactory`; called
        once per connection on ``ATTACH``.
    max_frame:
        Frame-size cap; a larger length prefix is a protocol error and
        closes the offending connection before any allocation.
    write_buffer_high:
        Transport write-buffer high-water mark — the per-connection
        bound on buffered response bytes for a slow client.
    """

    def __init__(
        self,
        target_factory: Callable[[int, int], Any],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        write_buffer_high: int = DEFAULT_WRITE_BUFFER_HIGH,
    ) -> None:
        self._target_factory = target_factory
        self.max_frame = max_frame
        self.write_buffer_high = write_buffer_high
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        # Observability counters (read by tests and ops alike).
        self.connections_opened = 0
        self.frames_served = 0
        self.protocol_errors = 0
        #: Largest transport write buffer observed right after a
        #: response write — the slow-client test asserts this stays
        #: under ``write_buffer_high`` + one frame.
        self.peak_write_buffer = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start listening (port 0 picks a free port)."""
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        if self._server is None or not self._server.sockets:
            raise RPCError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Serve until cancelled; requires :meth:`start` first."""
        if self._server is None:
            raise RPCError("call start() first")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening and close every open client connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()

    # -- connection handling ------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_opened += 1
        self._writers.add(writer)
        transport = writer.transport
        transport.set_write_buffer_limits(high=self.write_buffer_high)
        conn = _Connection()
        try:
            while True:
                frame = await read_frame(reader, self.max_frame)
                if frame is None:
                    break  # clean close
                msg_id, code, body = decode_frame(frame)
                status, payload = self._dispatch(conn, code, body)
                writer.write(encode_frame(msg_id, status, payload))
                buffered = transport.get_write_buffer_size()
                if buffered > self.peak_write_buffer:
                    self.peak_write_buffer = buffered
                await writer.drain()
                self.frames_served += 1
                if status == STATUS_PROTOCOL:
                    self.protocol_errors += 1
                    break  # the peer speaks garbage; cut it loose
        except RPCProtocolError as exc:
            # Truncated/oversized/mid-frame garbage: answer (best
            # effort, msg_id 0 — the frame it belongs to never fully
            # arrived) and close this connection only.
            self.protocol_errors += 1
            with contextlib.suppress(Exception):  # noqa: REPRO402 -- best-effort farewell on an already-counted protocol error; the peer may be gone
                writer.write(
                    encode_frame(0, STATUS_PROTOCOL, str(exc).encode())
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _dispatch(
        self, conn: _Connection, code: int, body: bytes
    ) -> Tuple[int, bytes]:
        """Execute one request inline; returns ``(status, payload)``.

        Protocol violations come back as ``STATUS_PROTOCOL`` (the
        caller closes the connection after answering); execution
        failures map to ``STATUS_UNAVAILABLE`` (quorum-class, the
        client re-raises ``ClusterUnavailableError``) or
        ``STATUS_ERROR`` (everything else).
        """
        try:
            if code == OP_ATTACH:
                if conn.target is not None:
                    return STATUS_PROTOCOL, b"connection already attached"
                shard, shard_seed = decode_attach(body)
                conn.target = self._target_factory(shard, shard_seed)
                conn.shard = shard
                return STATUS_OK, b""
            if conn.target is None:
                return STATUS_PROTOCOL, b"op before ATTACH"
            if code in CODE_TO_OP:
                key, value = decode_kv(body)
                return STATUS_OK, _execute_op(
                    conn.target, CODE_TO_OP[code], key, value
                )
            if code in (OP_KILL, OP_RECOVER):
                node = decode_node(body)
                method = getattr(
                    conn.target, "kill" if code == OP_KILL else "recover", None
                )
                if method is None:
                    return (
                        STATUS_ERROR,
                        b"target is not fault-injectable (no kill/recover)",
                    )
                method(node)
                return STATUS_OK, b""
            if code == OP_REPORT:
                payload = _report_payload(conn.target)
                return STATUS_OK, json.dumps(payload).encode()
            return STATUS_PROTOCOL, f"unknown op code {code:#04x}".encode()
        except RPCProtocolError as exc:
            return STATUS_PROTOCOL, str(exc).encode()
        except ClusterUnavailableError as exc:
            return STATUS_UNAVAILABLE, str(exc).encode()
        except Exception as exc:  # noqa: BLE001 — a shard must not down the server
            return STATUS_ERROR, f"{type(exc).__name__}: {exc}".encode()


def _report_payload(target: Any) -> Dict[str, Any]:
    """Flush + report a connection's target as a JSON-ready dict.

    The network collect counterpart of
    :func:`repro.workloads.driver.flush_and_report`.
    """
    if hasattr(target, "flush_all"):  # a ClusterSimulator
        target.flush_all()
        report = target.report()
        return {
            "kind": "cluster",
            "operations": report.operations,
            "migrations": report.migrations,
            "id_collisions": report.audit.collision_count,
            "corrupt_block_reads": report.corrupt_block_reads,
            "corrupt_results": report.corrupt_results,
            "cache_hit_rate": report.cache_hit_rate,
            "dead_nodes": report.dead_nodes,
            "hints_outstanding": report.hints_outstanding,
            "hints_replayed": report.hints_replayed,
            "read_repairs": report.read_repairs,
            "read_escalations": report.read_escalations,
        }
    target.flush()  # a bare MiniRocks store
    stats = target.stats
    return {
        "kind": "store",
        "puts": stats.puts,
        "gets": stats.gets,
        "deletes": stats.deletes,
        "scans": stats.scans,
        "flushes": stats.flushes,
        "compactions": stats.compactions,
    }


# ---------------------------------------------------------------------------
# Blocking client for the workload driver
# ---------------------------------------------------------------------------


def _check_timeout(timeout: Optional[float]) -> None:
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(
            f"op timeout must be > 0 seconds (or None for no timeout), "
            f"got {timeout}"
        )


def _connect(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    """Dial with bounded, jitterless deterministic backoff.

    Attempt ``k`` (0-based) sleeps ``DEFAULT_CONNECT_BACKOFF * 2**k``
    seconds after failing — the same schedule every run, so tests that
    race a server start are reproducible.
    """
    last: Optional[OSError] = None
    for attempt in range(DEFAULT_CONNECT_RETRIES + 1):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            last = exc
            if attempt < DEFAULT_CONNECT_RETRIES:
                _sleep(DEFAULT_CONNECT_BACKOFF * (2 ** attempt))
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    raise RPCConnectionError(
        f"cannot connect to {host}:{port} after "
        f"{DEFAULT_CONNECT_RETRIES + 1} attempt(s): {last}"
    )


class NetworkTarget:
    """One driver shard's connection to a remote ``uuidp serve`` instance.

    Synchronous, like the :class:`~repro.workloads.driver.WorkloadDriver`
    shard that calls it: each call sends one frame on a blocking socket
    and waits for its reply, so one request is in flight at a time.
    ``execute`` ships whole logical ops (``rmw`` included) and returns
    the server-computed outcome digest, so driver fingerprints over a
    network run match the in-process run byte for byte.

    Replies are read into a receive buffer and matched by ``msg_id``:
    a timeout part-way through a frame leaves the partial frame
    buffered, and the late reply to an op that timed out is dropped
    when it arrives, so the next op still gets its own outcome.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shard: int,
        shard_seed: int,
        *,
        timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
    ) -> None:
        _check_timeout(timeout)
        self.shard = shard
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._buffer = bytearray()
        self._dead: Optional[RPCConnectionError] = None
        self._sock = _connect(host, port, timeout)
        try:
            self._call(OP_ATTACH, encode_attach(shard, shard_seed))
        except BaseException:
            self.close()
            raise

    def _call(self, code: int, body: bytes = b"") -> bytes:
        """Send one request, block until its reply, return its payload."""
        if self._dead is not None:
            raise self._dead
        msg_id = next(self._ids)
        frame = encode_frame(msg_id, code, body)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        try:
            self._sock.settimeout(self.timeout)
            self._sock.sendall(frame)
            while True:
                reply = self._recv_frame(deadline)
                if reply is None:
                    raise RPCTimeoutError(
                        f"op {code:#04x} timed out after {self.timeout}s "
                        "(unacknowledged; treated as a failed op)"
                    )
                reply_id, status, payload = decode_frame(reply)
                if reply_id == msg_id:
                    break
                # Otherwise a late reply to an op that timed out.
        except RPCProtocolError as exc:
            # The reply stream broke the framing; it cannot be resynced.
            self._lose(exc)
            raise
        except OSError as exc:
            # Includes a send timeout: a half-sent frame desyncs the
            # stream, so the connection is done either way.
            raise self._lose(exc) from exc
        if status == STATUS_OK:
            return payload
        message = payload.decode("utf-8", "replace")
        if status == STATUS_UNAVAILABLE:
            raise ClusterUnavailableError(message)
        if status == STATUS_PROTOCOL:
            raise RPCProtocolError(f"server: {message}")
        raise RPCError(message)

    def _recv_frame(self, deadline: Optional[float]) -> Optional[bytes]:
        """The next reply frame, or ``None`` once ``deadline`` passes."""
        while True:
            frame = pop_frame(self._buffer)
            if frame is not None:
                return frame
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(_RECV_BYTES)
            except socket.timeout:
                return None
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk

    def _lose(self, exc: Exception) -> RPCConnectionError:
        """Close a connection that cannot carry another op."""
        self.close()
        self._dead = RPCConnectionError(f"connection lost: {exc}")
        return self._dead

    def execute(self, op: str, key: bytes, value: bytes) -> bytes:
        """One logical op over the wire; the driver's ``execute_op``
        dispatches here."""
        code = OP_TO_CODE.get(op)
        if code is None:
            raise ConfigurationError(f"unknown workload op {op!r}")
        return self._call(code, encode_kv(key, value))

    # Chaos injection through the RPC boundary (driver tick() hooks).
    def kill(self, node: int, mode: str = "outage") -> None:
        """Inject a remote node outage (the only network chaos mode)."""
        if mode != "outage":
            raise ConfigurationError(
                f"network targets only support kill(mode='outage'); "
                f"crash-restart chaos (mode={mode!r}) needs an "
                "in-process durable cluster target"
            )
        self._call(OP_KILL, encode_node(node))

    def recover(self, node: int) -> None:
        """Recover a remote node killed through this target."""
        self._call(OP_RECOVER, encode_node(node))

    def collect_report(self) -> Dict[str, Any]:
        """Flush the remote target and fetch its report dict."""
        return json.loads(self._call(OP_REPORT))

    def close(self) -> None:
        """Close the connection; later calls raise ``RPCConnectionError``."""
        self._sock.close()
        if self._dead is None:
            self._dead = RPCConnectionError("connection closed")


def network_target_factory(
    host: str,
    port: int,
    *,
    timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
):
    """A driver ``TargetFactory`` whose shards dial a remote server.

    The ``(shard, shard_seed)`` pair rides the ``ATTACH`` frame, so the
    server builds exactly the target the in-process driver would have
    built — the op streams are generated client-side from the same
    seeds, the outcomes are digested server-side by the same
    ``execute_op``, and the fingerprints match bit for bit.
    """
    _check_timeout(timeout)

    def factory(shard: int, shard_seed: int) -> NetworkTarget:
        return NetworkTarget(host, port, shard, shard_seed, timeout=timeout)

    return factory


def network_flush_and_report(target: NetworkTarget) -> Dict[str, Any]:
    """The network counterpart of
    :func:`~repro.workloads.driver.flush_and_report`: flush + report
    the remote target, then close the shard's connection (the collect
    callback is the driver's end-of-shard hook, so this is where the
    shard's socket is closed)."""
    try:
        return target.collect_report()
    finally:
        target.close()


# ---------------------------------------------------------------------------
# In-process background server (tests, benchmarks, examples)
# ---------------------------------------------------------------------------


class ServerThread:
    """An :class:`RPCServer` running on a private loop thread.

    The serving loop stays fully async; this wrapper only exists so
    synchronous harnesses (pytest, benchmarks, the example script) can
    stand a real TCP server up over loopback without managing asyncio
    themselves. Context-manager friendly::

        with ServerThread(store_target_factory(options)) as handle:
            host, port = handle.address
            ...
    """

    def __init__(
        self,
        target_factory: Callable[[int, int], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs: Any,
    ) -> None:
        self.server = RPCServer(target_factory, **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="uuidp-serve", daemon=True
        )
        self._thread.start()
        try:
            self._run(self.server.start(host, port))
        except (ReproError, OSError, RuntimeError):
            # Bind/listen failures (port in use, bad host) and loop
            # startup errors; stop the thread and re-raise.
            self._stop_loop()
            raise
        self.address: Tuple[str, int] = self.server.address

    def _run(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._loop.is_running():
            self._loop.close()

    def stop(self) -> None:
        """Shut the in-process server down and stop its event loop."""
        with contextlib.suppress(Exception):
            self._run(self.server.aclose())
        self._stop_loop()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
