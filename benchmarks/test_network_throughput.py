"""Network serving throughput + soak — the cross-boundary trajectory.

The serving benchmark (``test_serving_throughput.py``) measures the
runtime through in-process calls; this module drives the same deployment
**across the TCP service boundary** against the reactor front end, in
two parts:

``test_bench_network_throughput``
    One owner streams the workload through ``upload`` frames in three
    modes — PR 5-style sequential JSON, sequential binary, and the
    pipelined binary burst (``upload_many``) — then ``CLIENTS``
    concurrent analyst clients replay the standard query mix.  Every
    networked answer is checked against the in-process answer at the
    same watermark, and the three upload modes must produce identical
    answers at identical realized ε (the codec changes bytes on the
    wire, not results).

``test_bench_network_soak``
    ``NET_SOAK_CONNECTIONS`` concurrent connections (default 600; CI's
    short smoke uses 64) held open for ``NET_SOAK_SECONDS`` of sustained
    mixed load — paced stats/query requests from every connection plus a
    background uploader advancing the watermark — driven by a single
    ``selectors``-based client loop so the measurement harness does not
    fight the server for the GIL.  Records p50/p95/p99 latency, the
    max/min per-connection completion ratio (fairness), and overload
    retries.

Metric labels (the PR 5 file reported a bare ``queries_per_second`` from
the client timer next to ``observability.queries_per_second`` from
server busy-time — ambiguous, now split):

* ``client_qps`` / ``client_uploads_per_second`` — completed operations
  divided by **client-observed wall clock** (includes wire, framing,
  scheduling; this is what a user experiences).
* ``server_qps`` / ``server_uploads_per_second`` — the server's own
  counters divided by **server-side busy seconds** (pure execution
  time; always ≥ the client number, the gap is the wire tax).

Under ``--benchmark-only`` everything lands in ``BENCH_network.json`` at
the repo root so future PRs optimizing the wire path have an unambiguous
baseline to beat.
"""

from __future__ import annotations

import errno
import json
import os
import random
import selectors
import socket
import threading
import time as _time
from pathlib import Path

from conftest import emit

from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.net import protocol as wire
from repro.net.client import IncShrinkClient
from repro.net.server import NetworkServer
from repro.server.runtime import DatabaseServer

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_network.json"

DATASET = "tpcds"
N_STEPS = 16
UPLOAD_CYCLES = 5
CLIENTS = 4
QUERY_ROUNDS = 3

# The PR 5 thread-per-connection server's recorded uploads/s on this
# exact workload (BENCH_network.json in git history) — the baseline the
# reactor + binary codec must beat by ≥ 2×.
PR5_UPLOADS_PER_SECOND = 842.3

SOAK_CONNECTIONS = int(os.environ.get("NET_SOAK_CONNECTIONS", "600"))
SOAK_SECONDS = float(os.environ.get("NET_SOAK_SECONDS", "8"))


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _merge_bench(record_bench, section: str, payload: dict) -> str:
    """Record ``payload`` under ``section`` without clobbering the other
    section (the two tests may run in either order, or alone)."""
    record: dict = {}
    if BENCH_PATH.exists():
        try:
            record = json.loads(BENCH_PATH.read_text(encoding="utf8"))
        except ValueError:
            record = {}
    # Keep only the labelled sections — the PR 5 file's ambiguous
    # top-level rates are superseded, not carried forward.
    record = {k: record[k] for k in ("throughput", "soak") if k in record}
    record["benchmark"] = "network_throughput"
    record[section] = payload
    return record_bench(BENCH_PATH, record)


# ---------------------------------------------------------------------------
# Part 1 — upload codec comparison + concurrent query throughput
# ---------------------------------------------------------------------------


def _upload_mode(mode: str) -> dict:
    """Stream the full workload in one upload mode on a fresh deployment.

    The **submit** clock stops when the last ``upload_ok`` is read (every
    step accepted into the ingest queue — the wire-path cost the codec
    and pipelining can change); the **drain** clock then covers the
    server applying the queue (bounded by MPC-sim ingestion, identical
    across codecs).  Returns both, plus bytes on the wire and the
    reference answers + realized ε so the caller can assert the codec
    changed the encoding, not the results.
    """
    config = MultiViewRunConfig(dataset=DATASET, n_steps=N_STEPS, seed=5)
    deployment = build_multiview_deployment(config)
    server = DatabaseServer(deployment.database)
    codec = "json" if mode == "json_sequential" else "binary"

    with NetworkServer(server) as net:
        host, port = net.address
        steps = deployment.workload.steps
        # Cycle the workload UPLOAD_CYCLES times with advancing step
        # times: a submit phase of N_STEPS frames lasts only a few
        # milliseconds, far too short to time against scheduler noise.
        schedule = [
            (cycle * N_STEPS + step.time, deployment.upload_items(step))
            for cycle in range(UPLOAD_CYCLES)
            for step in steps
        ]
        last_time = schedule[-1][0]
        with IncShrinkClient(host, port, name=f"owner-{mode}", codec=codec) as owner:
            t0 = _time.perf_counter()
            if mode == "binary_pipelined":
                owner.upload_many(schedule)
            else:
                for step_time, items in schedule:
                    owner.upload(step_time, items)
            submit_seconds = _time.perf_counter() - t0
            # Drain: poll until the ingest loop has applied everything.
            t0 = _time.perf_counter()
            deadline = t0 + 30.0
            while _time.perf_counter() < deadline:
                stats = owner.stats()
                if stats["last_time"] == last_time and not stats["queue_depth"]:
                    break
                _time.sleep(0.005)
            drain_seconds = _time.perf_counter() - t0
            negotiated = owner.codec
            bytes_sent = owner.bytes_sent
            bytes_received = owner.bytes_received

        watermark = server.last_time
        assert watermark == last_time
        answers = [
            server.query(q, time=watermark).answers for q in deployment.step_queries
        ]
        observability = server.observability()
    server.stop()

    assert negotiated == codec
    uploads = observability["uploads"]
    return {
        "mode": mode,
        "codec": negotiated,
        "upload_frames": len(schedule),
        "uploads": uploads,
        "client_submit_seconds": submit_seconds,
        "client_drain_seconds": drain_seconds,
        "client_uploads_per_second": uploads / submit_seconds,
        "client_applied_uploads_per_second": uploads
        / (submit_seconds + drain_seconds),
        "server_uploads_per_second": observability["uploads_per_second"],
        "bytes_sent": bytes_sent,
        "bytes_received": bytes_received,
        "_answers": answers,
        "_realized_epsilon": observability["realized_epsilon"],
    }


def _best_of(mode: str, repeats: int = 3) -> dict:
    """Best-of-N submit timing: a full submit phase lasts only a few
    milliseconds, so one scheduler hiccup can double it — the minimum is
    the representative codec cost (standard micro-benchmark practice)."""
    runs = [_upload_mode(mode) for _ in range(repeats)]
    return min(runs, key=lambda r: r["client_submit_seconds"])


def _run_network() -> dict:
    # Upload phase: same workload, three wire strategies.
    modes = [
        _best_of("json_sequential"),
        _best_of("binary_sequential"),
        _best_of("binary_pipelined"),
    ]
    reference = modes[0]
    for mode in modes[1:]:
        assert mode["_answers"] == reference["_answers"], mode["mode"]
        assert mode["_realized_epsilon"] == reference["_realized_epsilon"]
    codec_comparison = {
        mode["mode"]: {k: v for k, v in mode.items() if not k.startswith("_")}
        for mode in modes
    }
    codec_comparison["binary_vs_json_upload_bytes"] = (
        modes[1]["bytes_sent"] / reference["bytes_sent"]
    )
    codec_comparison["binary_pipelined_speedup"] = (
        modes[2]["client_uploads_per_second"]
        / reference["client_uploads_per_second"]
    )

    # Query phase: one ingested deployment, concurrent analysts.
    config = MultiViewRunConfig(dataset=DATASET, n_steps=N_STEPS, seed=5)
    deployment = build_multiview_deployment(config)
    server = DatabaseServer(deployment.database)

    with NetworkServer(server) as net:
        host, port = net.address
        with IncShrinkClient(host, port, name="owner") as owner:
            owner.upload_many(
                [(s.time, deployment.upload_items(s)) for s in deployment.workload.steps],
                wait=True,
            )
        watermark = server.last_time
        expected = {
            i: server.query(q, time=watermark).answers
            for i, q in enumerate(deployment.step_queries)
        }

        latencies: list[float] = []
        latency_lock = threading.Lock()
        client_errors: list[BaseException] = []

        def analyst_loop(index: int) -> None:
            try:
                with IncShrinkClient(host, port, name=f"bench-{index}") as c:
                    for _round in range(QUERY_ROUNDS):
                        for qi, query in enumerate(deployment.step_queries):
                            t_start = _time.perf_counter()
                            result = c.query(query, time=watermark)
                            elapsed = _time.perf_counter() - t_start
                            assert result.answers == expected[qi]
                            with latency_lock:
                                latencies.append(elapsed)
            except BaseException as exc:
                client_errors.append(exc)

        t0 = _time.perf_counter()
        threads = [
            threading.Thread(target=analyst_loop, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        query_seconds = _time.perf_counter() - t0
        assert not client_errors, client_errors

        observability = server.observability()
    server.stop()

    queries = len(latencies)
    return {
        "dataset": DATASET,
        "steps": N_STEPS,
        "clients": CLIENTS,
        "metric_labels": {
            "client_qps": "completed queries / client-observed wall clock",
            "server_qps": "server query counter / server-side busy seconds",
            "client_uploads_per_second": "accepted uploads / client submit "
            "wall clock (queue drain timed separately as "
            "client_drain_seconds; applied rate is "
            "client_applied_uploads_per_second)",
            "server_uploads_per_second": "server upload counter / server-side "
            "ingest busy seconds",
        },
        "queries": queries,
        "query_seconds": query_seconds,
        "client_qps": queries / query_seconds,
        "server_qps": observability["queries_per_second"],
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": _percentile(latencies, 0.95) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "codec_comparison": codec_comparison,
        "observability": observability,
    }


def test_bench_network_throughput(benchmark, record_bench):
    result = benchmark.pedantic(_run_network, rounds=1, iterations=1)
    comparison = result["codec_comparison"]

    # Loose sanity floors (the recorded JSON is the real trajectory).
    assert result["client_qps"] > 1.0
    assert result["queries"] == CLIENTS * QUERY_ROUNDS * 4
    assert (
        0.0
        < result["latency_p50_ms"]
        <= result["latency_p95_ms"]
        <= result["latency_p99_ms"]
    )
    assert result["observability"]["queries"] >= result["queries"]
    assert result["observability"]["last_time"] == N_STEPS
    # The headline acceptance: the pipelined binary path submits the
    # same workload at ≥ 2× the PR 5 baseline's uploads/s.
    pipelined = comparison["binary_pipelined"]["client_uploads_per_second"]
    assert pipelined >= 2.0 * PR5_UPLOADS_PER_SECOND, comparison
    # Relative to sequential JSON on the *same* stack the gap is mostly
    # the per-frame round trip (recorded, loosely floored: on this
    # single-CPU container the ratio jitters around ~2×).
    assert comparison["binary_pipelined_speedup"] >= 1.2, comparison
    # And raw arrays are smaller than JSON int lists on the wire.
    assert comparison["binary_vs_json_upload_bytes"] < 1.0, comparison

    note = _merge_bench(record_bench, "throughput", result)

    json_rate = comparison["json_sequential"]["client_uploads_per_second"]
    pipe_rate = comparison["binary_pipelined"]["client_uploads_per_second"]
    emit(
        "network serving throughput (localhost wall clock)\n"
        f"  uploads  : json sequential {json_rate:.0f}/s -> binary pipelined "
        f"{pipe_rate:.0f}/s ({comparison['binary_pipelined_speedup']:.1f}x), "
        f"binary/json bytes {comparison['binary_vs_json_upload_bytes']:.2f}\n"
        f"  queries  : {result['queries']} across {CLIENTS} concurrent "
        f"clients, client {result['client_qps']:.1f} q/s "
        f"(server busy-time {result['server_qps']:.1f} q/s)\n"
        f"  latency  : p50 {result['latency_p50_ms']:.2f} ms, "
        f"p95 {result['latency_p95_ms']:.2f} ms, "
        f"p99 {result['latency_p99_ms']:.2f} ms per query frame\n"
        f"  -> {note}"
    )


# ---------------------------------------------------------------------------
# Part 2 — many-connection soak
# ---------------------------------------------------------------------------


class _SoakConn:
    """One soaking connection inside the selector-driven client loop."""

    __slots__ = (
        "sock",
        "decoder",
        "outbox",
        "state",
        "next_at",
        "sent_at",
        "first_sent_at",
        "completions",
        "retries",
        "requests",
        "failures",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self.outbox = bytearray()
        self.state = "connecting"
        self.next_at = 0.0
        self.sent_at = 0.0
        self.first_sent_at = 0.0
        self.completions = 0
        self.retries = 0
        self.requests = 0
        self.failures: list[str] = []


def _run_soak(n_connections: int, duration: float) -> dict:
    rng = random.Random(7)
    config = MultiViewRunConfig(dataset=DATASET, n_steps=N_STEPS, seed=5)
    deployment = build_multiview_deployment(config)
    server = DatabaseServer(deployment.database)
    steps = deployment.workload.steps
    warm, live = steps[: N_STEPS // 2], steps[N_STEPS // 2 :]

    net = NetworkServer(
        server,
        max_connections=n_connections + 32,
        max_inflight=32,
        loop_threads=2,
        idle_timeout=max(60.0, 4 * duration),
    ).start()
    try:
        host, port = net.address
        with IncShrinkClient(host, port, name="soak-warm") as owner:
            owner.upload_many([(s.time, deployment.upload_items(s)) for s in warm],
                              wait=True)
        watermark = server.last_time
        queries = deployment.step_queries

        # Background uploader: the watermark keeps advancing during the
        # soak (mixed load), queries stay pinned at the warm watermark.
        stop_upload = threading.Event()
        upload_errors: list[BaseException] = []

        def uploader() -> None:
            try:
                with IncShrinkClient(host, port, name="soak-upload") as up:
                    for step in live:
                        if stop_upload.wait(duration / (len(live) + 1)):
                            break
                        up.upload(step.time, deployment.upload_items(step))
            except BaseException as exc:  # surfaces in the final assert
                upload_errors.append(exc)

        upload_thread = threading.Thread(target=uploader)

        # The request each connection paces through the soak: mostly the
        # cheap stats frame, every 8th a full planned query.
        query_payloads = [
            {
                "query": wire.encode_query(q),
                "time": watermark,
                "predicate_words": 1,
                "epsilon": None,
            }
            for q in queries
        ]

        sel = selectors.DefaultSelector()
        conns: list[_SoakConn] = []
        pace = max(0.5, n_connections / 800.0)
        hello = wire.encode_frame(
            "hello", {"client": "soak", "codecs": ["json"]}
        )

        def register(conn: _SoakConn, events: int) -> None:
            try:
                sel.modify(conn.sock, events, conn)
            except KeyError:
                sel.register(conn.sock, events, conn)

        def want_events(conn: _SoakConn) -> int:
            events = selectors.EVENT_READ
            if conn.outbox or conn.state == "connecting":
                events |= selectors.EVENT_WRITE
            return events

        def send_request(conn: _SoakConn, now: float) -> None:
            conn.requests += 1
            if conn.requests % 8 == 0:
                payload = query_payloads[conn.requests // 8 % len(query_payloads)]
                conn.outbox += wire.encode_frame("query", payload)
            else:
                conn.outbox += wire.encode_frame("stats", {})
            conn.state = "waiting"
            conn.sent_at = now
            conn.first_sent_at = now
            _flush(conn)

        def _flush(conn: _SoakConn) -> None:
            while conn.outbox:
                try:
                    sent = conn.sock.send(conn.outbox)
                except BlockingIOError:
                    break
                except OSError as exc:
                    conn.failures.append(f"send: {exc}")
                    _drop(conn)
                    return
                del conn.outbox[:sent]
            register(conn, want_events(conn))

        def _drop(conn: _SoakConn) -> None:
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.state = "dead"

        latencies: list[float] = []
        overload_retries = 0

        def on_frame(conn: _SoakConn, frame_type: str, payload: dict,
                     now: float, issuing: bool) -> None:
            nonlocal overload_retries
            if conn.state == "hello":
                if frame_type != "welcome":
                    conn.failures.append(f"handshake got {frame_type}")
                    _drop(conn)
                    return
                conn.state = "ready"
                conn.next_at = now + rng.uniform(0.0, pace)
                return
            if frame_type == "error":
                if payload.get("code") == wire.ERR_OVERLOADED:
                    # Fairness under overload: back off per the server's
                    # hint and re-issue the same request slot.
                    conn.retries += 1
                    overload_retries += 1
                    conn.state = "ready"
                    conn.next_at = now + float(
                        payload.get("retry_after") or 0.05
                    ) + rng.uniform(0.0, 0.05)
                    return
                conn.failures.append(f"error: {payload.get('code')}")
                _drop(conn)
                return
            # stats_result / result — one completion.
            latencies.append(now - conn.first_sent_at)
            conn.completions += 1
            conn.state = "ready"
            if issuing:
                conn.next_at = now + pace + rng.uniform(-0.2, 0.2) * min(1.0, pace)
            else:
                conn.next_at = float("inf")

        upload_thread.start()
        to_connect = n_connections
        t_start = _time.monotonic()
        t_end = t_start + duration
        drain_deadline = t_end + max(5.0, duration)
        while True:
            now = _time.monotonic()
            issuing = now < t_end
            if now >= drain_deadline:
                break
            # Open the herd in chunks so the SYN storm stays inside the
            # listener backlog.
            for _ in range(min(128, to_connect)):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                conn = _SoakConn(sock)
                result = sock.connect_ex((host, port))
                if result not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
                    conn.failures.append(f"connect: {errno.errorcode.get(result)}")
                else:
                    conns.append(conn)
                    sel.register(sock, selectors.EVENT_WRITE, conn)
                to_connect -= 1

            for key, events in sel.select(timeout=0.05):
                conn = key.data
                now = _time.monotonic()
                if conn.state == "connecting" and events & selectors.EVENT_WRITE:
                    err = conn.sock.getsockopt(
                        socket.SOL_SOCKET, socket.SO_ERROR
                    )
                    if err:
                        conn.failures.append(f"connect: {errno.errorcode.get(err)}")
                        _drop(conn)
                        continue
                    conn.state = "hello"
                    conn.outbox += hello
                    _flush(conn)
                    continue
                if events & selectors.EVENT_WRITE and conn.outbox:
                    _flush(conn)
                if conn.state == "dead" or not events & selectors.EVENT_READ:
                    continue
                try:
                    data = conn.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    conn.failures.append(f"recv: {exc}")
                    _drop(conn)
                    continue
                if data == b"":
                    conn.failures.append("server closed the connection")
                    _drop(conn)
                    continue
                try:
                    frames = conn.decoder.feed(data)
                except wire.WireError as exc:
                    conn.failures.append(f"decode: {exc}")
                    _drop(conn)
                    continue
                for frame_type, payload in frames:
                    if conn.state == "dead":
                        break
                    on_frame(conn, frame_type, payload, now, issuing)

            now = _time.monotonic()
            issuing = now < t_end
            idle = all(c.state in ("ready", "dead") for c in conns)
            if not issuing and to_connect == 0 and idle:
                break
            if issuing:
                for conn in conns:
                    if conn.state == "ready" and conn.next_at <= now:
                        send_request(conn, now)

        stop_upload.set()
        upload_thread.join()
        for conn in conns:
            _drop(conn)
        sel.close()
        soak_seconds = _time.monotonic() - t_start
        observability = server.observability()
    finally:
        net.close(stop_server=True)

    failures = [f for conn in conns for f in conn.failures]
    completions = [c.completions for c in conns]
    served = [c for c in completions if c > 0]
    return {
        "connections": n_connections,
        "target_seconds": duration,
        "soak_seconds": soak_seconds,
        "pace_seconds_per_connection": pace,
        "requests_completed": len(latencies),
        "client_qps": len(latencies) / soak_seconds,
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": _percentile(latencies, 0.95) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "fairness_max_over_min_completions": (
            max(served) / min(served) if served else float("inf")
        ),
        "connections_served": len(served),
        "overload_retries": overload_retries,
        "upload_steps_during_soak": observability["last_time"] - N_STEPS // 2,
        "failures": failures[:20],
        "failure_count": len(failures),
        "upload_errors": [repr(e) for e in upload_errors],
    }


def test_bench_network_soak(benchmark, record_bench):
    result = benchmark.pedantic(
        _run_soak, args=(SOAK_CONNECTIONS, SOAK_SECONDS), rounds=1, iterations=1
    )

    assert result["failure_count"] == 0, result["failures"]
    assert result["upload_errors"] == []
    # Every connection was admitted and served at least once — the
    # reactor sustained the whole herd, not a lucky subset.
    assert result["connections_served"] == result["connections"]
    assert result["requests_completed"] >= result["connections"]
    assert (
        0.0
        < result["latency_p50_ms"]
        <= result["latency_p95_ms"]
        <= result["latency_p99_ms"]
    )
    # The watermark advanced during the soak: the load really was mixed.
    assert result["upload_steps_during_soak"] > 0

    note = _merge_bench(record_bench, "soak", result)

    emit(
        f"network soak: {result['connections']} concurrent connections, "
        f"{result['soak_seconds']:.1f} s sustained\n"
        f"  completed: {result['requests_completed']} requests "
        f"({result['client_qps']:.0f}/s), "
        f"{result['overload_retries']} overload retries\n"
        f"  latency  : p50 {result['latency_p50_ms']:.2f} ms, "
        f"p95 {result['latency_p95_ms']:.2f} ms, "
        f"p99 {result['latency_p99_ms']:.2f} ms\n"
        f"  fairness : max/min per-connection completions "
        f"{result['fairness_max_over_min_completions']:.2f}\n"
        f"  -> {note}"
    )
