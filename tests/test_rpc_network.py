"""Live-socket tests for the ``uuidp serve`` RPC layer.

Everything here stands up a real asyncio TCP server on loopback and
drives it — through the workload driver's blocking ``NetworkTarget``
client, through raw sockets speaking deliberately broken frames, and
through the CLI as a subprocess. Marked ``network``:
CI runs these in a dedicated lane under a hard pytest-timeout; the fast
lane skips them.
"""

import random
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed import rpc
from repro.distributed.protocol import (
    HEADER_SIZE,
    OP_GET,
    OP_PUT,
    STATUS_OK,
    STATUS_PROTOCOL,
    decode_frame,
    encode_attach,
    encode_frame,
    encode_kv,
)
from repro.distributed.protocol import DEFAULT_MAX_FRAME
from repro.distributed.rpc import (
    NetworkTarget,
    ServerThread,
    network_flush_and_report,
    network_target_factory,
)
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    RPCConnectionError,
    RPCError,
    RPCProtocolError,
    RPCTimeoutError,
)
from repro.kvstore.options import Options
from repro.simulation.seeds import derive_seed
from repro.workloads.driver import (
    FAILED_OP_OUTCOME,
    ChaosEvent,
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
    execute_op,
    store_target_factory,
)
from repro.workloads.ycsb import WorkloadSpec, load_phase, run_phase

pytestmark = pytest.mark.network


def small_options(**overrides):
    defaults = dict(
        memtable_entries=8,
        block_entries=4,
        level0_file_limit=2,
        id_universe=1 << 32,
        id_algorithm="cluster",
        bloom_bits_per_key=0,
    )
    defaults.update(overrides)
    return Options(**defaults)


def store_options():
    return Options(memtable_entries=32, block_entries=8, id_universe=1 << 32)


class RawConnection:
    """A blocking socket speaking raw frames — for protocol-abuse tests
    the cooperative :class:`NetworkTarget` refuses to produce."""

    def __init__(self, address, timeout=5.0, rcvbuf=None):
        self.sock = socket.socket()
        if rcvbuf is not None:
            # Before connect(), so it caps the negotiated window too.
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(timeout)
        self.sock.connect(address)

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def recv_frame(self):
        """Read one response frame; None if the peer closed first."""
        prefix = self._read_exact(4)
        if prefix is None:
            return None
        frame = self._read_exact(int.from_bytes(prefix, "big"))
        if frame is None:
            return None
        return decode_frame(frame)

    def _read_exact(self, size):
        buf = b""
        while len(buf) < size:
            chunk = self.sock.recv(size - len(buf))
            if not chunk:
                return None
            buf += chunk
        return buf

    def attach(self, shard=0, seed=0, msg_id=1):
        self.send(encode_frame(msg_id, 0x01, encode_attach(shard, seed)))
        response = self.recv_frame()
        assert response == (msg_id, STATUS_OK, b"")

    def close(self):
        self.sock.close()


def assert_server_still_serves(handle):
    """The neighbor-connection invariant: after whatever abuse a test
    inflicted, a fresh well-behaved connection still works."""
    neighbor = RawConnection(handle.address)
    try:
        neighbor.attach(shard=99, seed=99)
        neighbor.send(encode_frame(2, OP_PUT, encode_kv(b"k", b"v")))
        assert neighbor.recv_frame() == (2, STATUS_OK, b"\x02")
        neighbor.send(encode_frame(3, OP_GET, encode_kv(b"k", b"")))
        assert neighbor.recv_frame() == (3, STATUS_OK, b"\x01v")
    finally:
        neighbor.close()


class TestClientServerBasics:
    def test_ops_match_in_process_outcomes(self):
        """Every outcome digest over the wire equals the digest the
        same op stream produces against a local target."""
        local = store_target_factory(store_options)(0, 1234)
        with ServerThread(store_target_factory(store_options)) as handle:
            target = NetworkTarget(*handle.address, shard=0, shard_seed=1234)
            try:
                rng = random.Random(99)
                for index in range(200):
                    op = rng.choice(["put", "get", "delete", "rmw", "scan"])
                    key = b"key%04d" % rng.randrange(64)
                    value = (
                        b"5" if op == "scan" else b"v%d" % index
                    )
                    assert target.execute(op, key, value) == execute_op(
                        local, op, key, value
                    ), (index, op, key)
            finally:
                target.close()

    def test_report_and_close_lifecycle(self):
        with ServerThread(store_target_factory(store_options)) as handle:
            target = NetworkTarget(*handle.address, shard=0, shard_seed=7)
            target.execute("put", b"a", b"1")
            report = network_flush_and_report(target)
            assert report["kind"] == "store"
            assert report["puts"] == 1
            assert report["flushes"] >= 1
            # network_flush_and_report closed the shard's socket.
            assert target._sock.fileno() == -1

    def test_unknown_op_rejected_client_side(self):
        with ServerThread(store_target_factory(store_options)) as handle:
            target = NetworkTarget(*handle.address, shard=0, shard_seed=1)
            try:
                with pytest.raises(ConfigurationError):
                    target.execute("increment", b"k", b"")
            finally:
                target.close()


class TestDriverFingerprintParity:
    """The acceptance gate: a network run reproduces an in-process run
    bit for bit, at any ``workers=``."""

    def _spec(self, workload):
        return WorkloadSpec(
            workload=workload,
            record_count=80,
            operation_count=200,
            value_size=16,
            max_scan_length=10,
        )

    def _run(self, factory, workload, workers, collect):
        config = DriverConfig(
            spec=self._spec(workload),
            shards=2,
            workers=workers,
            warmup_operations=30,
            seed=20230414,
        )
        return WorkloadDriver(factory, config, collect=collect).run()

    @pytest.mark.parametrize("workload", list("abcdef"))
    def test_network_matches_in_process_cluster(self, workload):
        def fleet():
            return cluster_target_factory(3, small_options)

        local = self._run(fleet(), workload, workers=1, collect=None)
        with ServerThread(fleet()) as handle:
            host, port = handle.address
            net_serial = self._run(
                network_target_factory(host, port),
                workload,
                workers=1,
                collect=network_flush_and_report,
            )
            net_threaded = self._run(
                network_target_factory(host, port),
                workload,
                workers=4,
                collect=network_flush_and_report,
            )
        for net in (net_serial, net_threaded):
            assert net.fingerprint == local.fingerprint
            assert net.op_counts == local.op_counts
            assert [s.fingerprint for s in net.shard_results] == [
                s.fingerprint for s in local.shard_results
            ]
            assert not net.op_errors
        # The collect hook fetched each remote shard's report.
        assert all(
            s.collected["kind"] == "cluster"
            for s in net_serial.shard_results
        )


class TestThreadHandOffs:
    def test_network_op_crosses_only_client_and_server_loop_threads(self):
        """Ops execute on the server's loop thread, and the client side
        starts no thread of its own."""
        server_threads = set()
        live_threads = set()

        class RecordingTarget:
            def __init__(self, inner):
                self.inner = inner

            def execute(self, op, key, value):
                server_threads.add(threading.current_thread().name)
                return execute_op(self.inner, op, key, value)

        inner = store_target_factory(store_options)

        def collect(target):
            # Runs on the shard's thread, mid-run, socket still open.
            live_threads.update(t.name for t in threading.enumerate())
            target.close()

        spec = WorkloadSpec(
            workload="a", record_count=40, operation_count=100, value_size=8
        )
        with ServerThread(
            lambda shard, seed: RecordingTarget(inner(shard, seed))
        ) as handle:
            result = WorkloadDriver(
                network_target_factory(*handle.address),
                DriverConfig(spec=spec, shards=2, workers=2, seed=1),
                collect=collect,
            ).run()
        assert result.operations == 2 * spec.operation_count
        assert server_threads == {"uuidp-serve"}
        assert "uuidp-serve" in live_threads
        assert not [
            name for name in live_threads
            if name.startswith(("uuidp-client-shard", "uuidp-rpc"))
        ]


class TestChaosOverRPC:
    """Fault injection through the network boundary."""

    NODES = 5
    RF = 3

    def test_node_kill_behind_rpc_loses_no_acked_writes(self):
        spec = WorkloadSpec(
            workload="a",
            record_count=150,
            operation_count=400,
            value_size=16,
            max_scan_length=25,
        )
        config = DriverConfig(
            spec=spec,
            shards=1,
            workers=1,
            seed=20230414,
            chaos=(ChaosEvent(at_op=300, action="kill", node=1),),
        )
        factory = cluster_target_factory(
            self.NODES, small_options, replication_factor=self.RF
        )
        with ServerThread(factory) as handle:
            host, port = handle.address
            result = WorkloadDriver(
                network_target_factory(host, port),
                config,
                collect=lambda target: target,  # keep the socket open
            ).run()
            target = result.shard_results[0].collected
            try:
                assert result.operations == spec.operation_count
                assert not result.op_errors  # RF=3 absorbed the kill
                # Zero lost acknowledged writes, verified THROUGH the
                # RPC boundary: every key's last acked value is still
                # readable over the wire from the surviving quorum.
                shard_seed = derive_seed(config.seed, 0xD21E, 0)
                rng = random.Random(derive_seed(shard_seed, 0x0B5))
                expected = {}
                for op, key, value in load_phase(spec, rng):
                    expected[key] = value
                for op, key, value in run_phase(spec, rng):
                    if op in ("put", "rmw"):
                        expected[key] = value
                assert expected
                for key, value in expected.items():
                    assert target.execute("get", key, b"") == b"\x01" + value, (
                        f"acknowledged write to {key!r} lost behind RPC"
                    )
                report = target.collect_report()
                assert report["kind"] == "cluster"
                assert report["dead_nodes"] == 1
                assert report["id_collisions"] == 0
            finally:
                target.close()

    def test_kill_and_recover_replay_hints_over_rpc(self):
        spec = WorkloadSpec(
            workload="a", record_count=150, operation_count=500, value_size=16
        )
        config = DriverConfig(
            spec=spec,
            shards=1,
            seed=3,
            chaos=(
                ChaosEvent(at_op=200, action="kill", node=0),
                ChaosEvent(at_op=400, action="recover", node=0),
            ),
        )
        factory = cluster_target_factory(
            self.NODES, small_options, replication_factor=self.RF
        )
        with ServerThread(factory) as handle:
            host, port = handle.address
            result = WorkloadDriver(
                network_target_factory(host, port),
                config,
                collect=network_flush_and_report,
            ).run()
        report = result.shard_results[0].collected
        assert report["dead_nodes"] == 0
        assert report["hints_replayed"] > 0
        assert report["hints_outstanding"] == 0

    def test_kill_against_store_target_is_an_error_not_a_crash(self):
        with ServerThread(store_target_factory(store_options)) as handle:
            target = NetworkTarget(*handle.address, shard=0, shard_seed=1)
            try:
                with pytest.raises(RPCError, match="not fault-injectable"):
                    target.kill(0)
                # The connection survives an execution error.
                assert target.execute("put", b"k", b"v") == b"\x02"
            finally:
                target.close()


class _SlowGetTarget:
    """Server-side target whose reads outlast the client timeout."""

    def __init__(self, delay):
        self.delay = delay
        self.state = {}

    def execute(self, op, key, value):
        if op == "get":
            time.sleep(self.delay)
            return b"\x01" + self.state[key] if key in self.state else b"\x00"
        if op == "put":
            self.state[key] = value
            return b"\x02"
        raise AssertionError(f"unexpected op {op}")


class TestTimeoutsAndRetries:
    def test_op_timeout_surfaces_as_unavailability(self):
        factory = lambda shard, seed: _SlowGetTarget(delay=1.0)  # noqa: E731
        with ServerThread(factory) as handle:
            target = NetworkTarget(
                *handle.address, shard=0, shard_seed=0, timeout=0.05
            )
            try:
                with pytest.raises(RPCTimeoutError) as excinfo:
                    target.execute("get", b"k", b"")
                assert isinstance(excinfo.value, ClusterUnavailableError)
            finally:
                target.close()

    def test_driver_counts_timeouts_as_failed_ops(self):
        """A timed-out op is an outcome, not a crash: the run completes,
        per-op error counters fill in, and the fingerprint is
        deterministic (the failure marker is fixed)."""
        spec = WorkloadSpec(
            workload="c", record_count=10, operation_count=6, value_size=8
        )

        def run():
            factory = lambda shard, seed: _SlowGetTarget(0.2)  # noqa: E731
            with ServerThread(factory) as handle:
                host, port = handle.address
                return WorkloadDriver(
                    network_target_factory(host, port, timeout=0.05),
                    DriverConfig(spec=spec, shards=1, seed=5),
                    collect=lambda target: target.close(),
                ).run()

        result = run()
        assert result.operations == 6
        assert result.op_errors == {"get": 6}  # workload C is all reads
        assert result.timeouts == 6
        payload = result.to_dict()
        assert payload["op_errors"] == {"get": 6}
        assert payload["timeouts"] == 6
        # Deterministic failures -> deterministic fingerprint.
        assert result.fingerprint == run().fingerprint

    def test_failed_op_outcome_is_a_fixed_marker(self):
        assert FAILED_OP_OUTCOME == b"\xfe"

    def test_connect_backoff_is_deterministic_and_bounded(self, monkeypatch):
        # A port with no listener: bind, learn the number, close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        delays = []
        monkeypatch.setattr(
            rpc, "_sleep", lambda seconds: delays.append(round(seconds, 6))
        )
        with pytest.raises(RPCConnectionError) as excinfo:
            NetworkTarget("127.0.0.1", port, shard=0, shard_seed=0)
        # Jitterless doubling schedule, one sleep per failed attempt
        # except the last; the error is unavailability-class.
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert "6 attempt(s)" in str(excinfo.value)
        assert isinstance(excinfo.value, ClusterUnavailableError)


    def test_non_positive_timeouts_are_rejected(self):
        # Validated before connecting, so no server is needed.
        for timeout in (0, 0.0, -1.0):
            with pytest.raises(ConfigurationError, match="timeout"):
                NetworkTarget("127.0.0.1", 1, shard=0, shard_seed=0,
                              timeout=timeout)
            with pytest.raises(ConfigurationError, match="timeout"):
                network_target_factory("127.0.0.1", 1, timeout=timeout)

    def test_late_reply_after_a_timeout_is_dropped(self):
        """The reply to a timed-out op arrives later on the same socket;
        the next op must get its own outcome, not that stale reply."""
        factory = lambda shard, seed: _SlowGetTarget(delay=0.3)  # noqa: E731
        with ServerThread(factory) as handle:
            target = NetworkTarget(
                *handle.address, shard=0, shard_seed=0, timeout=0.1
            )
            try:
                with pytest.raises(RPCTimeoutError):
                    target.execute("get", b"k", b"")
                time.sleep(0.4)  # the stale b"\x00" miss is now in flight
                assert target.execute("put", b"k", b"v") == b"\x02"
                assert target.execute("put", b"j", b"w") == b"\x02"
            finally:
                target.close()

    def test_failed_attach_closes_the_connection(self):
        def refusing_factory(shard, seed):
            raise ValueError("factory refused")

        with ServerThread(refusing_factory) as handle:
            with pytest.raises(RPCError, match="factory refused") as excinfo:
                NetworkTarget(*handle.address, shard=0, shard_seed=0)
            # excinfo's traceback keeps the half-built target alive, so
            # garbage collection cannot close the socket for it: only
            # the constructor's own close lets the server see EOF.
            deadline = time.time() + 5
            while handle.server._writers:
                assert time.time() < deadline, "connection leaked"
                time.sleep(0.01)
            assert excinfo.value is not None


class TestProtocolAbuse:
    """Malformed frames against a live server: the offending connection
    dies with a protocol error; the server and its other connections
    never notice."""

    def _server(self):
        return ServerThread(
            store_target_factory(store_options), max_frame=4096
        )

    def test_oversized_length_prefix(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.send((4097).to_bytes(4, "big"))
            response = conn.recv_frame()
            assert response is not None
            msg_id, status, payload = response
            assert (msg_id, status) == (0, STATUS_PROTOCOL)
            assert b"max frame" in payload
            assert conn.recv_frame() is None  # connection closed
            conn.close()
            assert handle.server.protocol_errors == 1
            assert_server_still_serves(handle)

    def test_undersized_length_prefix(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.send((3).to_bytes(4, "big"))
            response = conn.recv_frame()
            assert response is not None and response[1] == STATUS_PROTOCOL
            assert conn.recv_frame() is None
            conn.close()
            assert_server_still_serves(handle)

    def test_mid_frame_disconnect(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            # Claim 100 bytes, deliver 10, vanish.
            conn.send((100).to_bytes(4, "big") + b"x" * 10)
            conn.close()
            deadline = time.time() + 5
            while handle.server.protocol_errors == 0:
                assert time.time() < deadline, "protocol error never counted"
                time.sleep(0.01)
            assert_server_still_serves(handle)

    def test_garbage_op_code(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.attach()
            conn.send(encode_frame(2, 0x7F, b""))
            response = conn.recv_frame()
            assert response is not None
            msg_id, status, payload = response
            assert (msg_id, status) == (2, STATUS_PROTOCOL)
            assert b"unknown op code" in payload
            assert conn.recv_frame() is None
            conn.close()
            assert_server_still_serves(handle)

    def test_data_op_before_attach(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.send(encode_frame(1, OP_GET, encode_kv(b"k", b"")))
            response = conn.recv_frame()
            assert response is not None
            assert response[1] == STATUS_PROTOCOL
            assert b"ATTACH" in response[2]
            assert conn.recv_frame() is None
            conn.close()
            assert_server_still_serves(handle)

    def test_double_attach(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.attach()
            conn.send(encode_frame(2, 0x01, encode_attach(1, 1)))
            response = conn.recv_frame()
            assert response is not None
            assert response[1] == STATUS_PROTOCOL
            assert conn.recv_frame() is None
            conn.close()
            assert_server_still_serves(handle)

    def test_truncated_body_for_known_op(self):
        with self._server() as handle:
            conn = RawConnection(handle.address)
            conn.attach()
            conn.send(encode_frame(2, OP_PUT, b"\x00\x00"))  # cut kv body
            response = conn.recv_frame()
            assert response is not None
            assert response[1] == STATUS_PROTOCOL
            conn.close()
            assert_server_still_serves(handle)

    def test_client_refuses_to_send_oversized_frames(self):
        with self._server() as handle:
            target = NetworkTarget(*handle.address, shard=0, shard_seed=0)
            try:
                with pytest.raises(RPCProtocolError):
                    target.execute("put", b"k", b"x" * (1 << 21))
            finally:
                target.close()


    def test_client_rejects_oversized_reply_prefix(self):
        """A hostile server answers with a length prefix past the
        client's frame cap: the op fails with a protocol error at once,
        without waiting for a body that never comes."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        release = threading.Event()

        def read_request_id(stream):
            length = int.from_bytes(stream.read(4), "big")
            return decode_frame(stream.read(length))[0]

        def hostile():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                attach_id = read_request_id(stream)
                conn.sendall(encode_frame(attach_id, STATUS_OK))
                read_request_id(stream)  # the data op
                conn.sendall((DEFAULT_MAX_FRAME + 1).to_bytes(4, "big"))
                release.wait(10)  # hold the socket open; send no body

        server = threading.Thread(target=hostile, daemon=True)
        server.start()
        try:
            target = NetworkTarget(
                *listener.getsockname(), shard=0, shard_seed=0, timeout=5.0
            )
            try:
                with pytest.raises(RPCProtocolError, match="max frame"):
                    target.execute("get", b"k", b"")
                # The stream cannot be trusted after that.
                with pytest.raises(RPCConnectionError):
                    target.execute("get", b"k", b"")
            finally:
                target.close()
        finally:
            release.set()
            server.join(timeout=5)
            listener.close()
        assert not server.is_alive()


class TestSlowClientBackpressure:
    def test_write_buffer_stays_bounded(self):
        """A client that stops reading parks the server handler on
        ``drain()``: buffered response bytes stay under the high-water
        mark plus one frame, instead of growing with the backlog."""
        high = 4096
        value = b"v" * 8192
        with ServerThread(
            store_target_factory(store_options),
            write_buffer_high=high,
        ) as handle:
            # Shrink both kernel buffers so the OS cannot absorb the
            # backlog for us — the transport itself has to buffer, and
            # the high-water mark is what bounds it.
            conn = RawConnection(handle.address, timeout=30.0, rcvbuf=4096)
            conn.attach()
            for writer in handle.server._writers:
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
            conn.send(encode_frame(2, OP_PUT, encode_kv(b"big", value)))
            assert conn.recv_frame() == (2, STATUS_OK, b"\x02")
            # Pipeline many fat reads WITHOUT reading responses.
            requests = 100
            for index in range(requests):
                conn.send(
                    encode_frame(10 + index, OP_GET, encode_kv(b"big", b""))
                )
            time.sleep(0.5)  # let the server run into the limit
            # Now drain everything; the server finishes the backlog.
            for index in range(requests):
                response = conn.recv_frame()
                assert response == (
                    10 + index, STATUS_OK, b"\x01" + value,
                )
            conn.close()
            peak = handle.server.peak_write_buffer
            frame_size = 4 + HEADER_SIZE + 1 + len(value)
            assert 0 < peak <= high + frame_size, (
                f"server buffered {peak} bytes for a slow client "
                f"(limit {high} + one {frame_size}-byte frame)"
            )


class TestServeCLI:
    """End-to-end: the ``uuidp serve`` subprocess and
    ``uuidp kv --target network`` against it."""

    def _start_server(self, *extra):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"unparseable serve banner: {line!r}"
        return proc, f"{match.group(1)}:{match.group(2)}"

    def test_kv_network_vs_cluster_fingerprints(self):
        from repro.cli import main

        proc, addr = self._start_server(
            "--target", "cluster", "--nodes", "3",
        )
        try:
            import io
            import json
            from contextlib import redirect_stdout

            def kv(*argv):
                out = io.StringIO()
                with redirect_stdout(out):
                    assert main(["kv", "--workload", "b", "--ops", "200",
                                 "--records", "60", "--shards", "2",
                                 "--seed", "11", "--json", *argv]) == 0
                return json.loads(out.getvalue())

            net = kv("--target", "network", "--addr", addr)
            local = kv("--target", "cluster", "--nodes", "3")
            assert net["fingerprint"] == local["fingerprint"]
            assert net["config"]["addr"] == addr
            assert [s["kind"] for s in net["server"]] == ["cluster"] * 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_kv_network_rejects_cluster_only_flags(self, capsys):
        from repro.cli import main

        assert main([
            "kv", "--target", "network", "--addr", "127.0.0.1:1",
            "--replication", "3",
        ]) == 2
        assert "serve" in capsys.readouterr().err

    def test_kv_network_requires_addr(self, capsys):
        from repro.cli import main

        assert main(["kv", "--target", "network"]) == 2
        assert "--addr" in capsys.readouterr().err

    def test_kv_network_rejects_non_positive_op_timeout(self, capsys):
        from repro.cli import main

        for timeout in ("0", "-1"):
            assert main([
                "kv", "--target", "network", "--addr", "127.0.0.1:1",
                "--op-timeout", timeout,
            ]) == 2
            assert "--op-timeout" in capsys.readouterr().err

    def test_bad_addr_rejected(self, capsys):
        from repro.cli import main

        for addr in ("nocolon", ":123", "host:port"):
            assert main([
                "kv", "--target", "network", "--addr", addr,
            ]) == 2
            assert "addr" in capsys.readouterr().err
