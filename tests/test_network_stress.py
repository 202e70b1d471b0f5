"""Slow-client stress tests for the reactor (ISSUE 7 satellite).

The point of the event-driven rewrite is that unproductive peers cost
state, not threads — so these tests attack exactly that:

* **slow-loris writers** dribble a frame one byte at a time, never
  completing it: the idle clock keys on *completed frames*, so the
  dribble does not keep the slot alive, and the loop timer reclaims it
  while a concurrent well-behaved client stays fully served;
* **stalled readers** stop draining their socket while pipelining
  requests: once the kernel buffers fill, the server's per-connection
  write buffer grows to its cap (or stalls past the progress deadline)
  and the connection is severed — without blocking anybody else;
* **idle herds** (100 open connections doing nothing) are reclaimed by
  the timers, returning ``open_connections`` to zero;
* **bounded reassembly** — the server-side high-water mark of the frame
  reassembly buffers never exceeds one declared frame, even under the
  dribble;
* **upload ordering** — owners racing waited single uploads (applied on
  their event loop when the queue is idle) against unwaited pipelined
  runs (applied by the ingestion thread) never get a step applied twice,
  out of order, or without its ``upload_ok``.
"""

from __future__ import annotations

import os
import random
import socket
import statistics
import sys
import threading
import time as _time

import numpy as np
import pytest

from repro.common.types import RecordBatch

from repro.net import protocol as wire
from repro.net.client import IncShrinkClient
from repro.net.server import NetworkServer
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.server.runtime import DatabaseServer

from test_network import (
    DRIVER_SCHEMA,
    PROBE_SCHEMA,
    batches_at,
    build_database,
    full_view_def,
    query_mix,
)


def _make_net(**kwargs) -> tuple[DatabaseServer, NetworkServer]:
    server = DatabaseServer(build_database(), snapshot_every=None)
    defaults = dict(max_connections=128, max_inflight=8, loop_threads=2)
    defaults.update(kwargs)
    net = NetworkServer(server, **defaults).start()
    return server, net


def _ingest(net: NetworkServer) -> None:
    host, port = net.address
    with IncShrinkClient(host, port, name="seed") as client:
        for t in range(1, 4):
            client.upload(t, batches_at(t), wait=t == 3)


def _wait_for_eof(sock: socket.socket, deadline_s: float) -> bool:
    """True when the server closes ``sock`` before the deadline."""
    sock.settimeout(deadline_s)
    try:
        while True:
            if sock.recv(65536) == b"":
                return True
    except socket.timeout:
        return False
    except OSError:
        return True


def test_slow_loris_writer_is_reaped_while_others_are_served():
    server, net = _make_net(idle_timeout=0.4)
    try:
        _ingest(net)
        host, port = net.address
        loris = socket.create_connection((host, port), timeout=10.0)
        frame = wire.encode_frame("hello", {"client": "loris"})

        reaped = []

        def dribble() -> None:
            # One byte every 50 ms: bytes keep flowing, but no frame
            # ever completes, so the idle clock never resets.
            try:
                for byte in frame[:-1]:
                    loris.sendall(bytes([byte]))
                    _time.sleep(0.05)
            except OSError:
                reaped.append(True)  # server hung up mid-dribble

        writer = threading.Thread(target=dribble)
        writer.start()

        # Meanwhile a well-behaved client gets full service.
        with IncShrinkClient(host, port, name="honest") as client:
            for _ in range(5):
                result = client.query(query_mix()[0])
                assert result.answers.rows
        writer.join()
        assert reaped or _wait_for_eof(loris, 3.0), (
            "slow-loris connection survived the idle timer"
        )
        loris.close()
        # Reassembly memory stayed bounded by the dribbled frame.
        assert net._reassembly_hwm <= max(len(frame), 4096)
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


def test_partial_header_dribble_never_buffers_past_one_frame():
    server, net = _make_net(idle_timeout=0.4)
    try:
        host, port = net.address
        socks = []
        for i in range(10):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(b"INCW"[: 1 + i % 3])  # a few magic bytes, then silence
            socks.append(sock)
        for sock in socks:
            assert _wait_for_eof(sock, 3.0)
            sock.close()
        assert net._reassembly_hwm <= 4096
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


def test_stalled_reader_is_disconnected_without_blocking_others():
    # Pin SO_SNDBUF server-side: Linux autotunes it to ~4 MB otherwise,
    # and all of that kernel absorption sits between the reactor's write
    # buffer and the stalled peer, making the cap unreachable in test
    # time.  With a bounded sndbuf the cap trips after a few hundred
    # responses.
    server, net = _make_net(
        idle_timeout=0.5,
        max_write_buffer=64 * 1024,
        socket_sndbuf=32 * 1024,
    )
    try:
        _ingest(net)
        host, port = net.address

        # The stalled reader: tiny receive window, a pipelined flood of
        # stats requests, and it never reads a byte of the responses —
        # so the kernel buffers fill, the server's per-connection write
        # buffer grows past its cap (or the write-stall timer fires),
        # and the reactor severs the connection.
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect((host, port))
        stalled.settimeout(5.0)
        burst = wire.encode_frame("stats", {}) * 200
        try:
            for _ in range(10):  # ~2000 pipelined requests, ~1 MB answers
                stalled.send(burst)
        except OSError:
            pass  # kernel refused more, or the server already reset us

        # Detection is server-side: the stalled conn is the only one
        # open, so the slot count dropping to zero *is* the severance.
        # (Reading the socket to watch for EOF would drain the backlog
        # and turn us back into a healthy client.)
        deadline = _time.monotonic() + 20.0
        while net.open_connections and _time.monotonic() < deadline:
            _time.sleep(0.05)
        assert net.open_connections == 0, (
            "stalled reader kept its slot past the write-buffer cap "
            "and the write-stall deadline"
        )
        stalled.close()

        # The server stayed fully live for everybody else.
        with IncShrinkClient(host, port, name="honest") as client:
            result = client.query(query_mix()[0])
            assert result.answers.rows
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


@pytest.mark.parametrize("n_idle", [100])
def test_idle_herd_is_reclaimed_by_loop_timers(n_idle):
    server, net = _make_net(idle_timeout=0.5, max_connections=256)
    try:
        host, port = net.address
        herd = []
        for i in range(n_idle):
            sock = socket.create_connection((host, port), timeout=10.0)
            if i % 2 == 0:
                # Half the herd completes a handshake first: an idle
                # *authenticated* connection is reaped all the same.
                sock.sendall(wire.encode_frame("hello", {"client": f"idle{i}"}))
            herd.append(sock)
        # Wait for the herd to be fully admitted, then go silent.
        deadline = _time.monotonic() + 5.0
        while net.open_connections < n_idle and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert net.open_connections == n_idle

        # Every slot returns within a few timer periods.
        deadline = _time.monotonic() + 6.0
        while net.open_connections and _time.monotonic() < deadline:
            _time.sleep(0.05)
        assert net.open_connections == 0

        # And the server still serves new work afterwards.
        _ingest(net)
        with IncShrinkClient(host, port, name="after-herd") as client:
            assert client.query(query_mix()[0]).answers.rows
        for sock in herd:
            sock.close()
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


def test_executing_connections_are_not_reaped_mid_request():
    # A request slower than the idle timeout must still get its answer:
    # the reaper skips connections with work on the executor.
    server, net = _make_net(idle_timeout=0.3)
    try:
        _ingest(net)
        host, port = net.address
        original = server.query

        def slow_query(*args, **kwargs):
            _time.sleep(0.9)  # 3x the idle timeout
            return original(*args, **kwargs)

        server.query = slow_query
        try:
            with IncShrinkClient(host, port, name="patient", timeout=30.0) as c:
                result = c.query(query_mix()[0])
                assert result.answers.rows
        finally:
            server.query = original
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


def test_pipelined_bursts_never_wait_out_the_poll_timeout():
    # A 72-frame ``upload_many`` spans three executor batches
    # (``ingest_batch`` = 32) that finish microseconds apart.  When the
    # loop ran its queued tasks before draining the wake pipe, the second
    # completion's wake byte could be swallowed with the first one's and
    # its response sat out the 0.5 s poll timeout — about one burst in
    # three.
    def step(t: int):
        return t, {
            "orders": RecordBatch(
                PROBE_SCHEMA, np.asarray([[t, t]], dtype=np.uint32)
            ).padded_to(4),
            "shipments": RecordBatch(
                DRIVER_SCHEMA, np.asarray([[t, t + 1]], dtype=np.uint32)
            ).padded_to(3),
        }

    # An NM view keeps a step at ~0.2 ms: this is about the reactor.
    database = IncShrinkDatabase(seed=7)
    database.register_view(ViewRegistration(full_view_def(), mode="nm"))
    server = DatabaseServer(database, snapshot_every=None, max_pending=4096)
    net = NetworkServer(server, max_connections=8, loop_threads=2).start()
    try:
        host, port = net.address
        seconds = []
        with IncShrinkClient(host, port, name="owner") as owner:
            for burst in range(30):
                steps = [step(72 * burst + i + 1) for i in range(72)]
                t0 = _time.perf_counter()
                owner.upload_many(steps)
                seconds.append(_time.perf_counter() - t0)
                # Drain untimed, so the next burst never meets a full queue.
                deadline = _time.monotonic() + 30.0
                while True:
                    state = owner.stats()
                    assert state["ingest_error"] is None
                    if state["last_time"] >= steps[-1][0] and not state["queue_depth"]:
                        break
                    assert _time.monotonic() < deadline, "ingest did not drain"
                    _time.sleep(0.005)
        assert max(seconds) < statistics.median(seconds) + 0.25, sorted(seconds)[-5:]
        assert net._unhandled_errors == []
    finally:
        net.close(stop_server=True)


def _stream_step(t: int) -> dict[str, RecordBatch]:
    """Step ``t`` of an open-ended stream: keys drawn from ``t``'s own seed."""
    keys = np.random.default_rng(t).integers(1, 8, size=3)
    return {
        "orders": RecordBatch(
            PROBE_SCHEMA,
            np.stack([keys[:2], np.full(2, t)], axis=1).astype(np.uint32),
        ).padded_to(4),
        "shipments": RecordBatch(
            DRIVER_SCHEMA,
            np.stack([keys[1:], np.full(2, t)], axis=1).astype(np.uint32),
        ).padded_to(3),
    }


def _ingest_state(database: IncShrinkDatabase, at: int) -> dict:
    """What the stream decides: ingest gates, answers and realized ε."""
    ingest_gates = sum(
        r.gates for r in database.runtime.runs if r.name != "query"
    )
    answers = [database.query(q, at).answers.rows for q in query_mix()]
    return {
        "ingest_gates": ingest_gates,
        "answers": answers,
        "realized_epsilon": database.realized_epsilon(),
    }


def test_racing_owners_get_every_acknowledged_step_applied_once_in_order():
    server = DatabaseServer(build_database(), snapshot_every=None)
    applied: list[tuple[int, str]] = []
    real_step = server.database.step

    def step(t):
        applied.append((t, threading.current_thread().name))
        return real_step(t)

    server.database.step = step
    net = NetworkServer(
        server, max_connections=32, max_inflight=32, loop_threads=2
    ).start()
    acked: list[int] = []
    failures: list[Exception] = []
    allocate = threading.Lock()
    next_step = [1]
    deadline = _time.monotonic() + 1.5

    def owner(seed: int) -> None:
        rng = random.Random(seed)
        try:
            with socket.create_connection(net.address, timeout=10.0) as sock:
                stream = sock.makefile("rwb")
                while _time.monotonic() < deadline and next_step[0] < 600:
                    # A waited single upload, or an unwaited pipelined run.
                    size = 1 if rng.random() < 0.75 else rng.randint(2, 5)
                    with allocate:
                        steps = list(range(next_step[0], next_step[0] + size))
                        next_step[0] += size
                    payloads = []
                    for t in steps:
                        payload = wire.encode_upload(
                            t, _stream_step(t), wait=size == 1
                        )
                        payload["wait_timeout"] = 10.0
                        payloads.append(payload)
                    stream.write(
                        b"".join(wire.encode_frame("upload", p) for p in payloads)
                    )
                    stream.flush()
                    for t in steps:
                        frame_type, reply = wire.read_frame(stream)
                        if frame_type == "upload_ok":
                            assert reply["time"] == t
                            if size == 1:
                                assert reply["drained"]
                                assert reply["applied_through"] >= t
                            acked.append(t)
                        else:
                            # Another owner's later step got in first.
                            assert reply["code"] == wire.ERR_INVALID_REQUEST
                            assert "does not advance" in reply["message"]
        except Exception as exc:  # surfaced by the assert below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=owner, args=(seed,))
            for seed in range((os.cpu_count() or 2) + 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        server.drain(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
        net.close(stop_server=True)
    assert failures == []
    assert net._unhandled_errors == []
    steps = [t for t, _ in applied]
    assert steps == sorted(acked)
    assert all(a < b for a, b in zip(steps, steps[1:]))
    # Both appliers took part: the loops and the ingestion thread.
    appliers = {
        "loop" if name.startswith("incshrink-loop-") else name
        for _, name in applied
    }
    assert appliers == {"loop", "incshrink-ingest"}

    replay = build_database()
    for t in steps:
        replay.upload(t, _stream_step(t))
        replay.step(t)
    assert _ingest_state(server.database, steps[-1]) == _ingest_state(
        replay, steps[-1]
    )
