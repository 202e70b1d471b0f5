"""Network serving subsystem tests (``repro.net``).

The headline claim is **transparency**: a query answered across the
TCP service boundary is byte-identical to the same query answered
through the in-process :class:`DatabaseServer` path — same released
table, same ground-truth mirror, same plan, same realized ε — including
GROUP BY multi-aggregate queries released with per-query Laplace noise.
Around that sit the protocol codecs (pure round-trips, hostile-input
rejection), backpressure (reject-with-retry-after, never unbounded
buffering), structured error frames that do not kill the connection,
and remote admin (stats/snapshot/reshard).
"""

from __future__ import annotations

import hashlib
import io
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.common.metrics import QueryObservation
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.net import protocol as wire
from repro.net.backoff import backoff_delay
from repro.net.client import IncShrinkClient
from repro.net.metrics import render_metrics
from repro.net.server import NetworkServer
from repro.query.ast import (
    AggregateSpec,
    And,
    ColumnEquals,
    ColumnRange,
    GroupBySpec,
    LogicalJoinQuery,
    LogicalQuery,
    QueryAnswer,
)
from repro.query.incremental import ScanReport
from repro.query.planner import QueryPlan
from repro.server.database import (
    DatabaseQueryResult,
    IncShrinkDatabase,
    ViewRegistration,
)
from repro.server import runtime as runtime_mod
from repro.server.persistence import restore_database
from repro.server.runtime import DatabaseServer

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))

SCRIPT = [
    ([[1, 1], [2, 1]], [[1, 2]]),
    ([[3, 2]], [[2, 3], [3, 3]]),
    ([], [[3, 4]]),
    ([[9, 4]], []),
    ([[3, 5]], [[9, 5]]),
    ([], [[3, 6]]),
]


def make_view(name: str, window_hi: int) -> JoinViewDefinition:
    return JoinViewDefinition(
        name=name,
        probe_table="orders",
        probe_schema=PROBE_SCHEMA,
        probe_key="key",
        probe_ts="ots",
        driver_table="shipments",
        driver_schema=DRIVER_SCHEMA,
        driver_key="key",
        driver_ts="sts",
        window_lo=0,
        window_hi=window_hi,
        omega=2,
        budget=6,
    )


def build_database() -> IncShrinkDatabase:
    db = IncShrinkDatabase(total_epsilon=2000.0, seed=7)
    db.register_view(ViewRegistration(make_view("full", 2), mode="ep"))
    db.register_view(
        ViewRegistration(make_view("timed", 2), mode="dp-timer", timer_interval=1)
    )
    return db


def batches_at(time: int) -> dict[str, RecordBatch]:
    probe_rows, driver_rows = SCRIPT[time - 1]
    return {
        "orders": RecordBatch(
            PROBE_SCHEMA, np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(4),
        "shipments": RecordBatch(
            DRIVER_SCHEMA, np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(3),
    }


def full_view_def() -> JoinViewDefinition:
    return make_view("full", 2)


def query_mix() -> list:
    """The deterministic (noise-free) query workload."""
    vd = full_view_def()
    return [
        LogicalQuery.for_view(vd),
        LogicalQuery.for_view(
            vd,
            AggregateSpec.count(),
            AggregateSpec.sum_of("shipments", "sts"),
            AggregateSpec.avg_of("shipments", "sts"),
        ),
        LogicalQuery.for_view(
            vd,
            AggregateSpec.count(),
            AggregateSpec.sum_of("shipments", "sts"),
            group_by=GroupBySpec("orders", "key", (1, 2, 3, 9)),
            predicate=ColumnRange("shipments", "sts", 0, 6),
        ),
    ]


def epsilon_query() -> LogicalQuery:
    """The GROUP BY multi-aggregate the ε-release equivalence keys on."""
    vd = full_view_def()
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        AggregateSpec.avg_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (1, 2, 3, 9)),
    )


# -- pure codec round-trips ----------------------------------------------------
class TestWireCodecs:
    def test_query_round_trip_full_ast(self):
        join = LogicalJoinQuery(
            "orders", "shipments", "key", "key", "ots", "sts", 0, 2
        )
        query = LogicalQuery(
            join=join,
            aggregates=(
                AggregateSpec.count(alias="n"),
                AggregateSpec.sum_of("shipments", "sts", sensitivity=6.0),
                AggregateSpec.avg_of("orders", "ots", alias="mean_ots"),
            ),
            group_by=GroupBySpec("orders", "key", (1, 2, 3)),
            predicate=And(
                (
                    ColumnEquals("orders", "key", 3),
                    ColumnRange("shipments", "sts", 1, 5),
                )
            ),
        )
        assert wire.decode_query(wire.encode_query(query)) == query

    def test_single_clause_predicate_round_trip(self):
        join = LogicalJoinQuery(
            "orders", "shipments", "key", "key", "ots", "sts", 0, 2
        )
        query = LogicalQuery(
            join=join,
            aggregates=(AggregateSpec.count(),),
            predicate=ColumnEquals("orders", "key", 7),
        )
        assert wire.decode_query(wire.encode_query(query)) == query

    def test_malformed_query_payload_rejected(self):
        with pytest.raises(wire.WireError, match="malformed query"):
            wire.decode_query({"join": {"probe_table": "orders"}, "aggregates": []})

    def test_non_numeric_fields_rejected_as_wire_errors(self):
        entry = wire.encode_query(query_mix()[0])
        entry["aggregates"][0]["sensitivity"] = "abc"
        with pytest.raises(wire.WireError, match="malformed query"):
            wire.decode_query(entry)

    def test_batch_round_trip_preserves_bytes(self):
        batch = batches_at(1)["orders"]
        out = wire.decode_batch(wire.encode_batch(batch))
        assert out.schema == batch.schema
        assert np.array_equal(out.rows, batch.rows)
        assert np.array_equal(out.is_real, batch.is_real)

    def test_upload_round_trip_preserves_order(self):
        time, items = wire.decode_upload(
            wire.encode_upload(3, list(batches_at(2).items()))
        )
        assert time == 3
        assert [name for name, _ in items] == ["orders", "shipments"]

    def test_answer_round_trip_keeps_exact_cells_integral(self):
        answer = QueryAnswer(
            columns=("count", "avg_x"),
            group_keys=(1, 2),
            rows=((4, 2.5), (0, 0.0)),
        )
        decoded = wire.decode_answer(wire.encode_answer(answer))
        assert decoded == answer
        assert isinstance(decoded.rows[0][0], int)
        assert isinstance(decoded.rows[0][1], float)

    def test_frame_round_trip(self):
        buf = io.BytesIO()
        wire.write_frame(buf, "query", {"a": 1})
        assert wire.read_frame(io.BytesIO(buf.getvalue())) == ("query", {"a": 1})

    def test_frame_rejects_bad_magic(self):
        buf = io.BytesIO(b"XXXX" + b"\x01\x01" + struct.pack(">I", 0))
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(buf)

    def test_frame_rejects_version_mismatch(self):
        header = struct.pack(">4sBBI", wire.PROTOCOL_MAGIC, 99, 1, 0)
        with pytest.raises(wire.VersionMismatch):
            wire.read_frame(io.BytesIO(header))

    def test_frame_rejects_oversized_body(self):
        header = struct.pack(
            ">4sBBI", wire.PROTOCOL_MAGIC, wire.PROTOCOL_VERSION, 1,
            wire.MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(wire.WireError, match="ceiling"):
            wire.read_frame(io.BytesIO(header))

    def test_served_request_frames_are_pinned_byte_for_byte(self):
        """The upload, query, result and stats frames a served request
        puts on the wire, pinned by SHA-256 (recorded from the binary
        envelope before it became the only frame body; ``result``
        re-pinned once, when answer columns became JSON cells)."""
        result = DatabaseQueryResult(
            plan=QueryPlan("view_scan", "full", None, 123456, 0.25, n_shards=2),
            observation=QueryObservation(
                time=5, logical_answer=3.0, view_answer=2.5, qet_seconds=0.125
            ),
            answers=QueryAnswer(
                ("count", "sum_sts", "avg_sts"), (1, 2), ((3, 12, 4.0), (2, 7.5, 3.75))
            ),
            logical_answers=QueryAnswer(
                ("count", "sum_sts", "avg_sts"), (1, 2), ((3, 12, 4.0), (2, 8, 4.0))
            ),
            epsilon_spent=0.5,
            scan_report=ScanReport("warm", 40, 8, 32, 1000, 4000),
        )
        frames = {
            "upload": wire.encode_frame("upload", wire.encode_upload(3, batches_at(3))),
            "query": b"".join(
                wire.encode_frame(
                    "query",
                    {"query": wire.encode_query(q), "time": None, "epsilon": None},
                )
                for q in query_mix()
            ),
            "result": wire.encode_frame("result", wire.encode_result(result)),
            "stats": wire.encode_frame("stats", {}),
        }
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in frames.items()}
        assert digests == {
            "upload": "847548e4067226c24ff3ebafcbb0e8f6ddc5137d7fd10721b7e82dbd78d39b0f",
            "query": "5864ab7dc72098f7960ad1f4d360ea76431c8926afd1a0f052b75d017d3c4e6b",
            "result": "dc76c6d6b16ae12656a077620cefdbb36fa323293b93f1e08ff083cf384eff2b",
            "stats": "d012a5de9908578f34af471eca85e94a364c6bbc532229b7fe001301876a7bff",
        }

    def test_eof_at_boundary_is_connection_closed(self):
        with pytest.raises(wire.ConnectionClosed):
            wire.read_frame(io.BytesIO(b""))

    def test_eof_mid_frame_is_wire_error(self):
        buf = io.BytesIO()
        wire.write_frame(buf, "stats", {"k": "v"})
        truncated = buf.getvalue()[:-3]
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.read_frame(io.BytesIO(truncated))


# -- the transparency claim ----------------------------------------------------
class TestNetworkEquivalence:
    def test_four_clients_match_in_process_path(self):
        # Incremental execution is disabled on both universes: which of
        # the four concurrent analysts' repeat queries runs warm depends
        # on scheduling, and a warm scan legitimately reports a smaller
        # qet than the serial reference.  Answers would still match; the
        # per-query timing equivalence asserted here would not.
        def build() -> IncShrinkDatabase:
            db = build_database()
            db.set_incremental(False)
            return db

        # Reference universe: the in-process serving runtime.
        ref_server = DatabaseServer(build()).start()
        for t in range(1, len(SCRIPT) + 1):
            ref_server.submit(t, batches_at(t))
        ref_server.drain()
        ref_results = [ref_server.query(q) for q in query_mix()]
        ref_noisy = ref_server.query(epsilon_query(), epsilon=0.8)
        ref_eps = ref_server.database.realized_epsilon()
        ref_server.stop()

        # Network universe: same seed, same stream, across TCP.
        net_server = DatabaseServer(build())
        with NetworkServer(net_server) as net:
            host, port = net.address
            clients = [
                IncShrinkClient(host, port, name=f"c{i}").connect()
                for i in range(4)
            ]
            try:
                # All four clients upload; a turn-taking condition keeps
                # the stream ordered (the runtime rejects regressions).
                turn = threading.Condition()
                next_time = [1]
                upload_errors: list[BaseException] = []

                def owner_loop(idx: int) -> None:
                    try:
                        for t in range(1, len(SCRIPT) + 1):
                            if t % 4 != idx:
                                continue
                            with turn:
                                turn.wait_for(lambda: next_time[0] == t)
                                clients[idx].upload(t, batches_at(t))
                                next_time[0] = t + 1
                                turn.notify_all()
                    except BaseException as exc:
                        upload_errors.append(exc)
                        with turn:
                            turn.notify_all()

                owners = [
                    threading.Thread(target=owner_loop, args=(i,))
                    for i in range(4)
                ]
                for thread in owners:
                    thread.start()
                for thread in owners:
                    thread.join()
                assert not upload_errors, upload_errors
                net_server.drain()

                # All four clients replay the deterministic mix
                # concurrently; every answer must match the reference.
                query_errors: list[BaseException] = []

                def analyst_loop(client: IncShrinkClient) -> None:
                    try:
                        for query, ref in zip(query_mix(), ref_results):
                            result = client.query(query)
                            assert result.answers == ref.answers
                            assert result.logical_answers == ref.logical_answers
                            assert result.plan_kind == ref.plan.kind
                            assert result.view_name == ref.plan.view_name
                            assert result.qet_seconds == (
                                ref.observation.qet_seconds
                            )
                    except BaseException as exc:
                        query_errors.append(exc)

                analysts = [
                    threading.Thread(target=analyst_loop, args=(c,))
                    for c in clients
                ]
                for thread in analysts:
                    thread.start()
                for thread in analysts:
                    thread.join()
                assert not query_errors, query_errors

                # One ε-released GROUP BY multi-aggregate: the identical
                # noise stream must produce the identical noisy table.
                net_noisy = clients[0].query(epsilon_query(), epsilon=0.8)
                assert net_noisy.answers == ref_noisy.answers
                assert net_noisy.epsilon_spent == ref_noisy.epsilon_spent
                assert net_server.database.realized_epsilon() == ref_eps
            finally:
                for client in clients:
                    client.close()
        net_server.stop()

    def test_welcome_exposes_views_and_watermark(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port) as client:
                views = {v["name"] for v in client.views()}
                assert views == {"full", "timed"}
                entry = client.views()[0]
                assert set(wire.JOIN_FIELDS) <= set(entry)
                assert client.server_info["protocol"] == wire.PROTOCOL_VERSION
        server.stop()


# -- backpressure and structured errors ---------------------------------------
class TestBackpressure:
    def test_full_ingest_queue_rejects_with_retry_after(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            def always_full(*args, **kwargs):
                return False

            server.try_submit = always_full  # the queue never drains
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=0) as client:
                with pytest.raises(wire.RemoteError) as excinfo:
                    client.upload(1, batches_at(1))
                assert excinfo.value.code == wire.ERR_OVERLOADED
                assert excinfo.value.retry_after is not None
        server.stop()

    def test_client_retries_after_transient_overload(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            real = server.try_submit
            calls = {"n": 0}

            def flaky(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] <= 2:
                    return False
                return real(*args, **kwargs)

            server.try_submit = flaky
            # The queue lane: a waited step the loop may not apply itself.
            server.try_apply = lambda *args, **kwargs: None
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=5) as client:
                out = client.upload(1, batches_at(1), wait=True)
                assert out["applied_through"] == 1
            assert calls["n"] == 3
        server.stop()

    def test_connection_cap_rejects_with_retry_after(self):
        import time as time_module

        server = DatabaseServer(build_database())
        with NetworkServer(server, max_connections=1) as net:
            host, port = net.address
            second = IncShrinkClient(
                host, port, busy_retries=0, connect_retries=2
            )
            with IncShrinkClient(host, port) as first:
                assert first.server_info["server"] == "incshrink"
                # connect() redials on overloaded (the rejection closes
                # the socket); with the cap still full it raises the
                # last structured rejection once retries run out.
                with pytest.raises(wire.RemoteError) as excinfo:
                    second.connect()
                assert excinfo.value.code == wire.ERR_OVERLOADED
                # The failed handshake tore its half-connection down.
                assert not second.connected
            # Capacity freed: the same client object reconnects cleanly.
            for _ in range(100):
                try:
                    second.connect()
                    break
                except (wire.RemoteError, ConnectionError):
                    time_module.sleep(0.02)
            assert second.connected
            assert second.server_info["server"] == "incshrink"
            second.close()
        server.stop()

    def test_inflight_cap_sheds_load_when_saturated(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server, max_inflight=1) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                # Saturate the only permit, then ask over the connection.
                assert net._inflight.acquire(blocking=False)
                try:
                    with pytest.raises(wire.RemoteError) as excinfo:
                        client.query(query_mix()[0])
                finally:
                    net._inflight.release()
                assert excinfo.value.code == wire.ERR_OVERLOADED
                assert excinfo.value.retry_after > 0
                # The permit is back: the same connection is served.
                assert client.query(query_mix()[0]).plan_kind == "view-scan"
        server.stop()

    def test_draining_server_answers_shutting_down(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                net._closing = True
                try:
                    with pytest.raises(wire.RemoteError) as excinfo:
                        client.query(query_mix()[0])
                finally:
                    net._closing = False
                assert excinfo.value.code == wire.ERR_SHUTTING_DOWN
        server.stop()


class TestStructuredErrors:
    def test_invalid_request_keeps_connection_alive(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=0) as client:
                bad = wire.encode_query(query_mix()[0])
                bad["aggregates"][0]["kind"] = "median"
                with pytest.raises(wire.RemoteError) as excinfo:
                    client._request("query", {"query": bad}, expect="result")
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert "SchemaError" in excinfo.value.remote_message
                # Same connection still serves valid requests.
                result = client.query(query_mix()[0])
                assert result.plan_kind == "view-scan"
        server.stop()

    def test_retired_predicate_words_field_cannot_steer_the_planner(self):
        """Older clients send a ``predicate_words`` integer with every
        query.  It used to inflate the planner's estimate only — the
        executor charges from the plan's clauses — so a large value made
        a cold view look dearer than the NM join and bought a full join
        for the price of a scan.  The field is tolerated and ignored."""
        db = build_database()
        db.set_incremental(False)  # both frames scan the view cold
        server = DatabaseServer(db).start()
        for t in range(1, len(SCRIPT) + 1):
            server.submit(t, batches_at(t))
        server.drain()
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address) as client:
                frame = {
                    "query": wire.encode_query(query_mix()[0]),
                    "time": None,
                    "epsilon": None,
                }
                plain = wire.decode_result(
                    client._request("query", frame, expect="result")
                )
                steered = wire.decode_result(
                    client._request(
                        "query", {**frame, "predicate_words": 4096}, expect="result"
                    )
                )
        server.stop()
        assert plain.plan_kind == steered.plan_kind == "view-scan"
        assert steered.view_name == plain.view_name
        assert steered.estimated_gates == plain.estimated_gates
        assert steered.scan_report["gates"] == plain.scan_report["gates"] > 0
        assert steered.qet_seconds == plain.qet_seconds
        assert db.planner.cache_info()["entries"] == 1

    def test_admission_floor_covers_locally_queued_steps(self):
        """A step submitted in-process (even if not yet applied when the
        listener opens) raises the remote admission floor — a remote
        upload slotting under it would fail in the background loop."""
        server = DatabaseServer(build_database()).start()
        server.submit(3, batches_at(3))  # queued locally, first step
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=0) as client:
                with pytest.raises(wire.RemoteError) as excinfo:
                    client.upload(2, batches_at(2))
                assert "does not advance" in excinfo.value.remote_message
                out = client.upload(4, batches_at(4), wait=True)
                assert out["applied_through"] == 4
        server.stop()

    def test_stale_upload_rejected_without_poisoning_ingest(self):
        """A non-advancing step is refused at admission — it must never
        reach the background loop, where it would kill ingestion for
        every client while its sender saw upload_ok."""
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=0) as client:
                client.upload(1, batches_at(1), wait=True)
                with pytest.raises(wire.RemoteError) as excinfo:
                    client.upload(1, batches_at(1))  # replayed step
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert "does not advance" in excinfo.value.remote_message
                # Ingestion stays healthy: later steps still apply.
                out = client.upload(2, batches_at(2), wait=True)
                assert out["applied_through"] == 2
                assert client.stats()["ingest_error"] is None
        server.stop()

    def test_deferred_ingest_error_surfaces_on_waited_upload(self, monkeypatch):
        """Failures the admission gate cannot see (here, a step that
        fails while it is applied) still surface: on the waited upload,
        in stats frames, and at stop()."""
        server = DatabaseServer(build_database())
        apply_step = server.database.step

        def step(time):
            if time == 2:
                raise SchemaError("unknown failure applying step 2")
            return apply_step(time)

        monkeypatch.setattr(server.database, "step", step)
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port, busy_retries=0) as client:
                client.upload(1, batches_at(1), wait=True)
                with pytest.raises(wire.RemoteError) as excinfo:
                    client.upload(2, batches_at(2), wait=True)
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert "unknown" in excinfo.value.remote_message
                assert "unknown" in client.stats()["ingest_error"]
                # An innocent *later* request is told the server is
                # halted — not that its own payload was invalid.
                with pytest.raises(wire.RemoteError) as later:
                    client.query(query_mix()[0])
                assert later.value.code == wire.ERR_SERVER
                assert "halted by an earlier failure" in (
                    later.value.remote_message
                )
        with pytest.raises(Exception, match="unknown"):
            server.stop()

    @pytest.mark.parametrize(
        "shape", ["unknown-table", "table-twice", "renamed-field", "extra-field", "2d-is-real"]
    )
    def test_malformed_upload_refused_without_halting_ingest(self, shape):
        """A well-framed but malformed step is refused at admission: it
        never reaches the background loop, where it would halt ingestion
        for every client."""
        orders = batches_at(2)["orders"]
        items = {
            "unknown-table": [("unknown", orders)],
            "table-twice": [("orders", orders), ("orders", orders)],
            "renamed-field": [("orders", RecordBatch(Schema(("key", "when")), orders.rows))],
            "extra-field": [
                ("orders", RecordBatch(Schema(("key", "ots", "x")), np.zeros((4, 3))))
            ],
            "2d-is-real": [("orders", orders)],
        }[shape]
        payload = wire.encode_upload(2, items, wait=True)
        if shape == "2d-is-real":
            batch = payload["batches"][0][1]
            batch["is_real"] = batch["is_real"].reshape(-1, 1)
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                client.upload(1, batches_at(1), wait=True)
                with pytest.raises(wire.RemoteError) as excinfo:
                    client._request("upload", payload, expect="upload_ok")
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert server.ingest_error is None
                out = client.upload(2, batches_at(2), wait=True)
                assert out["applied_through"] == 2
        server.stop()

    def test_unsupported_frame_type(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                with pytest.raises(wire.RemoteError) as excinfo:
                    client._request("welcome", {}, expect="welcome")
                assert excinfo.value.code == wire.ERR_UNSUPPORTED
                # A response-type frame is refused, not fatal.
                assert client.query(query_mix()[0]).plan_kind == "view-scan"
        server.stop()

    def test_version_mismatch_answered_with_structured_error(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    struct.pack(">4sBBI", wire.PROTOCOL_MAGIC, 99, 1, 0)
                )
                stream.flush()
                frame_type, payload = wire.read_frame(stream)
                assert frame_type == "error"
                assert payload["code"] == wire.ERR_VERSION_MISMATCH
        server.stop()

    @pytest.mark.parametrize("code", range(15, 22))
    def test_retired_scan_frame_is_a_framing_error(self, code):
        """Codes 15-21 were scan-fabric frames (18 the scan request); now
        each is an unknown code: one ``bad-frame`` error, then the server
        hangs up."""
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                stream = sock.makefile("rwb")
                frame = bytearray(wire.encode_frame("stats", {}))
                frame[5] = code
                stream.write(frame)
                stream.flush()
                frame_type, payload = wire.read_frame(stream)
                assert frame_type == "error"
                assert payload["code"] == wire.ERR_BAD_FRAME
                with pytest.raises(wire.ConnectionClosed):
                    wire.read_frame(stream)
            with IncShrinkClient(host, port) as client:
                assert client.stats()["ingest_error"] is None
        server.stop()


# -- remote admin --------------------------------------------------------------
class TestRemoteAdmin:
    def test_stats_frame_reports_observability_surface(self):
        server = DatabaseServer(build_database(), max_pending=17)
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port) as client:
                client.upload(1, batches_at(1), wait=True)
                client.query(query_mix()[0])
                stats = client.stats()
                assert stats["last_time"] == 1
                assert stats["uploads"] == 2
                assert stats["queries"] >= 1
                assert stats["queue_capacity"] == 17
                assert stats["queue_depth"] == 0
                assert set(stats["shard_rows"]) == {"full", "timed"}
                assert stats["query_epsilon"] == 0.0
                assert stats["ingest_error"] is None
                assert stats["n_shards"] == 1
                assert stats["realized_epsilon"] >= 0.0
        server.stop()

    def test_stats_and_metrics_carry_no_worker_fleet_block(self):
        from repro.net.metrics import render_metrics

        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address) as client:
                stats = client.stats()
            exported = render_metrics(net.server.observability())
        server.stop()
        assert "workers" not in stats
        assert "incshrink_worker_" not in exported
        assert "incshrink_ingest_healthy 1" in exported

    def test_remote_snapshot_restores_identical_state(self, tmp_path):
        path = str(tmp_path / "remote.snap")
        server = DatabaseServer(build_database(), snapshot_path=path)
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port) as client:
                for t in range(1, 4):
                    client.upload(t, batches_at(t), wait=True)
                receipt = client.snapshot()
                assert receipt["path"] == path
                before = client.query(query_mix()[1], time=3)
        restored = restore_database(path)
        result = restored.database.query(query_mix()[1], 3)
        assert result.answers == before.answers
        assert (
            restored.database.realized_epsilon()
            == server.database.realized_epsilon()
        )
        server.stop()

    def test_remote_reshard_preserves_answers(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port) as client:
                for t in range(1, 4):
                    client.upload(t, batches_at(t), wait=True)
                before = client.query(query_mix()[2])
                out = client.reshard(3)
                assert out["n_shards"] == 3
                after = client.query(query_mix()[2])
                assert after.answers == before.answers
                assert client.stats()["n_shards"] == 3
        server.stop()


class TestGracefulDrain:
    def test_close_is_idempotent_and_disconnects_clients(self):
        server = DatabaseServer(build_database())
        net = NetworkServer(server).start()
        host, port = net.address
        client = IncShrinkClient(host, port).connect()
        assert client.server_info["server"] == "incshrink"
        net.close()
        net.close()  # second close is a no-op
        with pytest.raises((ConnectionError, wire.RemoteError)):
            client.stats()
        client.close()
        server.stop()

    def test_new_connections_refused_after_close(self):
        server = DatabaseServer(build_database())
        net = NetworkServer(server).start()
        host, port = net.address
        net.close()
        with pytest.raises(ConnectionError):
            IncShrinkClient(host, port, connect_retries=2).connect()
        server.stop()


# -- the two execution lanes ------------------------------------------------------
def record_threads(monkeypatch, owner, name: str) -> list[str]:
    """Wrap ``owner.name`` to note the thread each call runs on."""
    seen: list[str] = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return seen


def serve_script(monkeypatch) -> dict:
    """Replay ``SCRIPT`` over the wire, steady-phase style: per step one
    waited upload, then the query mix and one ε-release.  Returns what a
    change of executing thread must not change, and the threads."""
    server = DatabaseServer(build_database())
    steps = record_threads(monkeypatch, server.database, "step")
    queries = record_threads(monkeypatch, server.database, "query")
    answers = []
    with NetworkServer(server) as net:
        with IncShrinkClient(*net.address) as client:
            for t in range(1, len(SCRIPT) + 1):
                reply = client.upload(t, batches_at(t), wait=True)
                assert reply["drained"] and reply["applied_through"] == t
                for query in query_mix():
                    answers.append(client.query(query).answers)
                answers.append(client.query(epsilon_query(), epsilon=0.3).answers)
            stats = client.stats()
    server.stop()
    runs = server.database.runtime.runs
    return {
        "answers": answers,
        "query_gates": sum(r.gates for r in runs if r.name == "query"),
        "ingest_gates": sum(r.gates for r in runs if r.name != "query"),
        "realized_epsilon": stats["realized_epsilon"],
        "step_threads": steps,
        "query_threads": queries,
    }


def on_loop(thread_name: str) -> bool:
    return thread_name.startswith("incshrink-loop-")


class TestExecutionLanes:
    def test_steady_requests_run_on_the_loop_that_decoded_them(self, monkeypatch):
        served = serve_script(monkeypatch)
        # Each waited upload finds the queue idle: its step is applied on
        # the loop that decoded it, not handed to the ingestion thread.
        assert len(served["step_threads"]) == len(SCRIPT)
        assert all(on_loop(name) for name in served["step_threads"])
        queries = served["query_threads"]
        assert len(queries) == len(SCRIPT) * (len(query_mix()) + 1)
        # A waited upload is answered after the write lock is released,
        # so nothing here can find a lock busy.
        assert sum(on_loop(name) for name in queries) >= 0.95 * len(queries)

    def test_executor_lane_answers_byte_identically(self, monkeypatch):
        from repro.query import parallel as parallel_mod

        on_the_loop = serve_script(monkeypatch)
        # No delta is below a bound of zero: every query bounces.
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 0)
        bounced = serve_script(monkeypatch)
        assert not any(on_loop(name) for name in bounced["query_threads"])
        assert all(on_loop(name) for name in bounced["step_threads"])
        for key in ("answers", "query_gates", "ingest_gates", "realized_epsilon"):
            assert bounced[key] == on_the_loop[key], key

    def test_the_bound_between_the_lanes_is_one_row_wide(self, monkeypatch):
        """A cold scan of a 4-shard view one row short of
        ``POOL_MIN_DELTA_ROWS`` runs where it was decoded and is planned
        once; one row more and the loop plans it, declines it, and the
        executor plans and runs it — same answers, gates and ε."""
        from repro.query import parallel as parallel_mod

        bound = parallel_mod.POOL_MIN_DELTA_ROWS
        vd = make_view("big", 2)
        gen = np.random.default_rng(24)
        rows = gen.integers(0, 1 << 16, size=(bound, 4), dtype=np.uint32)
        flags = gen.integers(0, 2, size=bound, dtype=np.uint32)

        def build() -> IncShrinkDatabase:
            # No NM fallback: against empty base tables a join would be
            # the cheaper plan, and this is about the scan.
            db = IncShrinkDatabase(
                total_epsilon=2000.0, seed=7, n_shards=4, nm_fallback=False
            )
            db.register_view(ViewRegistration(vd, mode="ep"))
            db.finalize()
            view = db.views["big"].view
            view.append(
                db.runtime.owner_share_table(view.schema, rows[:-1], flags[:-1]),
                count_as_update=False,
            )
            return db

        def one_more_row(db: IncShrinkDatabase) -> None:
            view = db.views["big"].view
            view.append(
                db.runtime.owner_share_table(view.schema, rows[-1:], flags[-1:]),
                count_as_update=False,
            )

        def cold_queries(lo: int) -> list:
            """Never seen before: each is a full scan of the view."""
            clause = ColumnRange("orders", "key", lo, 1 << 15)
            return [
                (LogicalQuery.for_view(vd, predicate=clause), None),
                (
                    LogicalQuery.for_view(
                        vd,
                        AggregateSpec.count(),
                        AggregateSpec.sum_of("shipments", "sts"),
                        predicate=clause,
                    ),
                    0.3,
                ),
            ]

        reference = build()
        expected = [
            reference.query(q, 0, epsilon=eps).answers for q, eps in cold_queries(1)
        ]
        one_more_row(reference)
        expected += [
            reference.query(q, 0, epsilon=eps).answers for q, eps in cold_queries(2)
        ]

        server = DatabaseServer(build())
        plans = record_threads(monkeypatch, server.database.planner, "plan")
        scans = record_threads(monkeypatch, server.database, "query")
        answers = []
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address) as client:
                for q, eps in cold_queries(1):
                    answers.append(client.query(q, epsilon=eps).answers)
                assert len(plans) == len(scans) == 2
                assert all(on_loop(name) for name in plans + scans)
                with server._rw.write_locked():
                    one_more_row(server.database)
                del plans[:], scans[:]
                for q, eps in cold_queries(2):
                    answers.append(client.query(q, epsilon=eps).answers)
                # planned on the loop, refused for its size, planned again
                assert [on_loop(name) for name in plans] == [True, False] * 2
                assert len(scans) == 2 and not any(on_loop(name) for name in scans)
        server.stop()
        assert answers == expected

        def gates(db: IncShrinkDatabase) -> list[int]:
            return [run.gates for run in db.runtime.runs if run.name == "query"]

        assert gates(server.database) == gates(reference)
        assert server.database.realized_epsilon() == reference.realized_epsilon()
        assert server.database.query_epsilon() == reference.query_epsilon() == 0.6

    def test_nm_join_never_runs_on_a_loop_thread(self, monkeypatch):
        server = DatabaseServer(build_database())
        threads = record_threads(monkeypatch, server.database, "query")
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address) as client:
                client.upload(1, batches_at(1), wait=True)
                # No view materializes this window: the NM fallback.
                result = client.query(LogicalQuery.for_view(make_view("wide", 5)))
        server.stop()
        assert result.plan_kind == "nm-join"
        assert len(threads) == 1 and not on_loop(threads[0])

    @staticmethod
    def cold_scan_database(rows: int = 100_000) -> IncShrinkDatabase:
        """A 4-shard view preloaded with ``rows`` rows: every query with a
        new range is a bounded cold scan long enough to contend."""
        gen = np.random.default_rng(53)
        db = IncShrinkDatabase(
            total_epsilon=2000.0, seed=7, n_shards=4, nm_fallback=False
        )
        db.register_view(ViewRegistration(make_view("big", 2), mode="ep"))
        db.finalize()
        view = db.views["big"].view
        view.append(
            db.runtime.owner_share_table(
                view.schema,
                gen.integers(0, 1 << 16, size=(rows, 4), dtype=np.uint32),
                gen.integers(0, 2, size=rows, dtype=np.uint32),
            ),
            count_as_update=False,
        )
        return db

    def test_two_analysts_wait_their_turns_on_their_loops(self, monkeypatch):
        """Two clients on the default two loops, each sending cold scans:
        every scan runs on a loop thread (a query meeting the other's
        scan waits for the MPC lock there), nothing is handed to the
        executor for the lock, and answers and gates equal a serial run."""
        vd = make_view("big", 2)

        def cold(i: int) -> LogicalQuery:
            return LogicalQuery.for_view(
                vd,
                AggregateSpec.count(),
                AggregateSpec.sum_of("shipments", "sts"),
                predicate=ColumnRange("orders", "key", i, 1 << 15),
            )

        per_client = 20
        reference = self.cold_scan_database()
        expected = {
            i: reference.query(cold(i), 0).answers for i in range(2 * per_client)
        }
        server = DatabaseServer(self.cold_scan_database())
        threads = record_threads(monkeypatch, server.database, "query")
        answers: dict = {}
        with NetworkServer(server) as net:
            assert net.loop_threads == 2

            def analyst(first: int) -> None:
                with IncShrinkClient(*net.address) as client:
                    for i in range(first, 2 * per_client, 2):
                        answers[i] = client.query(cold(i)).answers

            clients = [
                threading.Thread(target=analyst, args=(first,)) for first in (0, 1)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(30.0)
                assert not client.is_alive()
            with IncShrinkClient(*net.address) as client:
                handoffs = client.stats()["query_handoffs"]
            exported = render_metrics(server.observability())
        server.stop()
        assert len(threads) == 2 * per_client
        assert all(on_loop(name) for name in threads)
        assert answers == expected

        def gates(db: IncShrinkDatabase) -> list[int]:
            return sorted(run.gates for run in db.runtime.runs if run.name == "query")

        assert gates(server.database) == gates(reference)
        assert handoffs == {
            "rw_lock_busy": 0, "mpc_unbounded_holder": 0, "unbounded_plan": 0
        }
        assert (
            'incshrink_query_handoffs_total{reason="mpc_unbounded_holder"} 0'
            in exported
        )

    def test_an_nm_join_is_counted_as_an_unbounded_plan_handoff(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address) as client:
                client.upload(1, batches_at(1), wait=True)
                client.query(query_mix()[0])
                before = client.stats()["query_handoffs"]
                client.query(LogicalQuery.for_view(make_view("wide", 5)))
                after = client.stats()["query_handoffs"]
            exported = render_metrics(server.observability())
        server.stop()
        assert before == dict.fromkeys(runtime_mod.HANDOFF_REASONS, 0)
        assert after == {**before, runtime_mod.UNBOUNDED_PLAN: 1}
        assert (
            'incshrink_query_handoffs_total{reason="unbounded_plan"} 1' in exported
        )

    @pytest.mark.parametrize("lock", ["write", "mpc"])
    def test_a_busy_lock_never_stalls_the_loop(self, lock):
        server = DatabaseServer(build_database())
        with NetworkServer(server, loop_threads=1) as net:
            with IncShrinkClient(*net.address) as a, IncShrinkClient(
                *net.address
            ) as b:
                a.upload(1, batches_at(1), wait=True)
                if lock == "write":
                    server._rw.acquire_write()
                    release = server._rw.release_write
                else:
                    server._mpc_lock.acquire()
                    release = server._mpc_lock.release
                answered: list = []
                asker = threading.Thread(
                    target=lambda: answered.append(a.query(query_mix()[0]))
                )
                try:
                    asker.start()
                    asker.join(0.1)
                    assert asker.is_alive() and not answered
                    # Both connections share the one loop; it is not parked
                    # in the lock A's query is waiting for.
                    started = time.perf_counter()
                    welcome = b._request("hello", {}, expect="welcome")
                    assert time.perf_counter() - started < 0.05
                    assert welcome["server"] == "incshrink"
                    if lock == "mpc":  # the read lock is free: stats too
                        assert b.stats()["last_time"] == 1
                finally:
                    release()
                asker.join(5.0)
                assert not asker.is_alive()
                assert answered[0].answers == a.query(query_mix()[0]).answers
        server.stop()

    def test_pipelined_mixed_frames_are_answered_in_order(self):
        server = DatabaseServer(build_database())
        query = {"query": wire.encode_query(query_mix()[0]), "time": None,
                 "epsilon": None}
        frames = [("upload", wire.encode_upload(1, batches_at(1), wait=True)),
                  ("query", query)]
        frames += [
            ("upload", wire.encode_upload(t, batches_at(t), wait=t == 3))
            for t in (2, 3, 4)
        ]
        frames.append(("stats", {}))
        with NetworkServer(server) as net:
            with socket.create_connection(net.address, timeout=5.0) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"".join(wire.encode_frame(t, p) for t, p in frames))
                stream.flush()
                replies = [wire.read_frame(stream) for _ in frames]
        server.stop()
        assert [t for t, _ in replies] == [
            "upload_ok", "result", "upload_ok", "upload_ok", "upload_ok",
            "stats_result",
        ]
        assert [p["time"] for t, p in replies if t == "upload_ok"] == [1, 2, 3, 4]
        # The query saw step 1 and nothing later: one qualifying pair.
        assert wire.decode_result(replies[1][1]).logical_answer == 1.0


# -- a waiting upload is a continuation ---------------------------------------------
def wait_until(condition, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


class TestUploadContinuation:
    def test_wait_timeout_is_a_timer_that_answers_drained_false(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                server._rw.acquire_write()
                try:
                    started = time.perf_counter()
                    reply = client.upload(
                        1, batches_at(1), wait=True, wait_timeout=0.05
                    )
                    elapsed = time.perf_counter() - started
                finally:
                    server._rw.release_write()
                # Accepted, not rejected — and not yet applied.
                assert reply["drained"] is False and reply["time"] == 1
                assert reply["applied_through"] == 0
                assert 0.05 <= elapsed < 0.5
                assert wait_until(lambda: server.last_time == 1)
                # The connection is whole: the late continuation is ignored.
                assert client.upload(2, batches_at(2), wait=True)["drained"]
        server.stop()

    def test_ingest_failure_answers_every_registered_waiter(self, monkeypatch):
        server = DatabaseServer(build_database())

        def broken_step(time):
            raise RuntimeError("step exploded")

        outcomes: dict[int, BaseException] = {}

        def waiter(client: IncShrinkClient, t: int) -> None:
            try:
                client.upload(t, batches_at(t), wait=True)
            except BaseException as exc:
                outcomes[t] = exc

        with NetworkServer(server) as net:
            monkeypatch.setattr(server.database, "step", broken_step)
            with IncShrinkClient(*net.address, busy_retries=0) as a, IncShrinkClient(
                *net.address, busy_retries=0
            ) as b:
                server._rw.acquire_write()
                try:
                    threads = [
                        threading.Thread(target=waiter, args=(a, 1)),
                        threading.Thread(target=waiter, args=(b, 2)),
                    ]
                    threads[0].start()
                    assert wait_until(lambda: server.highest_submitted == 1)
                    threads[1].start()
                    assert wait_until(lambda: len(server._applied_waiters) == 2)
                finally:
                    server._rw.release_write()
                for thread in threads:
                    thread.join(5.0)
                    assert not thread.is_alive()
        assert sorted(outcomes) == [1, 2]
        for exc in outcomes.values():
            assert isinstance(exc, wire.RemoteError)
            assert exc.code == wire.ERR_SERVER
            assert "step exploded" in exc.remote_message
        with pytest.raises(RuntimeError, match="step exploded"):
            server.stop()

    def test_a_waiter_that_hangs_up_frees_its_permits(self):
        from repro.tenancy.registry import Tenant, TenantRegistry

        registry = TenantRegistry([Tenant("owner-1", "secret", role="owner")])
        server = DatabaseServer(build_database())
        with NetworkServer(server, registry=registry, max_inflight=2) as net:
            gate = net._gates.gate("owner-1")
            server._rw.acquire_write()
            try:
                client = IncShrinkClient(
                    *net.address, tenant="owner-1", token="secret"
                ).connect()
                # Send the waited upload and hang up without reading.
                client._stream.write(
                    wire.encode_frame(
                        "upload",
                        wire.encode_upload(1, batches_at(1), wait=True),
                    )
                )
                client._stream.flush()
                assert wait_until(lambda: gate.gauges()["inflight"] == 1)
                assert net._inflight._value == 1
                client._teardown()
                assert wait_until(lambda: gate.gauges()["inflight"] == 0)
                assert net._inflight._value == 2
                assert wait_until(lambda: net.open_connections == 0)
            finally:
                server._rw.release_write()
            # Hanging up withdrew the wait, not the upload.
            assert wait_until(lambda: server.last_time == 1)
        server.stop()

    def test_close_completes_with_a_waiter_outstanding(self):
        server = DatabaseServer(build_database())
        net = NetworkServer(server).start()
        client = IncShrinkClient(*net.address, busy_retries=0).connect()
        failures: list = []

        def waiter() -> None:
            try:
                client.upload(1, batches_at(1), wait=True)
            except (ConnectionError, wire.RemoteError) as exc:
                failures.append(exc)

        server._rw.acquire_write()
        try:
            thread = threading.Thread(target=waiter)
            thread.start()
            assert wait_until(lambda: len(server._applied_waiters) == 1)
            started = time.perf_counter()
            net.close(drain_timeout=0.2)
            assert time.perf_counter() - started < 2.0
        finally:
            server._rw.release_write()
        thread.join(5.0)
        assert not thread.is_alive() and len(failures) == 1
        client.close()
        server.stop()
        assert server.last_time == 1  # accepted before the close: applied


class TestUploadOnTheLoop:
    """A lone waited upload is applied on the loop that decoded it when
    nothing is queued; every other case takes the continuation above and
    is answered exactly as it was before the loop could apply a step."""

    @staticmethod
    def record_steps(monkeypatch, server: DatabaseServer) -> list:
        """``(step, thread name)`` of every ``IncShrinkDatabase.step``."""
        seen: list[tuple[int, str]] = []
        real_step = server.database.step

        def step(time):
            seen.append((time, threading.current_thread().name))
            return real_step(time)

        monkeypatch.setattr(server.database, "step", step)
        return seen

    def test_a_lone_waited_upload_is_applied_and_answered_on_its_loop(
        self, monkeypatch
    ):
        server = DatabaseServer(build_database())
        steps = self.record_steps(monkeypatch, server)
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                reply = client.upload(1, batches_at(1), wait=True)
                # Unwaited, the next step takes the queue as before.
                client.upload(2, batches_at(2))
                server.drain(timeout=5.0)
        server.stop()
        assert reply == {
            "time": 1, "applied_through": 1, "queue_depth": 0, "drained": True,
        }
        assert on_loop(steps[0][1])
        assert steps[1] == (2, "incshrink-ingest")
        assert server.stats.steps == 2 and server.stats.uploads == 4

    def test_a_queued_backlog_keeps_the_waited_step_behind_it(self, monkeypatch):
        server = DatabaseServer(build_database())
        steps = self.record_steps(monkeypatch, server)
        release = threading.Event()
        real_drain = server._drain

        def held_drain(**held):
            release.wait(5.0)  # the worker holds the role: the lock is free
            real_drain(**held)

        monkeypatch.setattr(server, "_drain", held_drain)
        replies: list = []
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                acks = client.upload_many([(t, batches_at(t)) for t in (1, 2, 3)])
                assert [ack["time"] for ack in acks] == [1, 2, 3]
                waiter = threading.Thread(
                    target=lambda: replies.append(
                        client.upload(4, batches_at(4), wait=True)
                    )
                )
                waiter.start()
                try:
                    assert wait_until(lambda: server.highest_submitted == 4)
                    assert not replies and server.last_time == 0
                finally:
                    release.set()
                waiter.join(5.0)
                assert not waiter.is_alive()
        server.stop()
        assert replies[0]["drained"] and replies[0]["applied_through"] == 4
        assert steps == [(t, "incshrink-ingest") for t in (1, 2, 3, 4)]

    def test_a_due_checkpoint_is_written_at_the_same_step(
        self, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "db.snap")
        server = DatabaseServer(
            build_database(), snapshot_path=path, snapshot_every=3
        )
        steps = self.record_steps(monkeypatch, server)
        checkpoints: list[tuple[int, str]] = []
        real_snapshot = server._snapshot_locked

        def snapshot_locked(*args):
            checkpoints.append(
                (server.last_time, threading.current_thread().name)
            )
            return real_snapshot(*args)

        monkeypatch.setattr(server, "_snapshot_locked", snapshot_locked)
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                for t in range(1, len(SCRIPT) + 1):
                    assert client.upload(t, batches_at(t), wait=True)["drained"]
        server.stop()
        assert checkpoints == [(3, "incshrink-ingest"), (6, "incshrink-ingest")]
        assert [t for t, name in steps if not on_loop(name)] == [3, 6]
        assert restore_database(path).metadata["last_time"] == 6

    def test_a_large_waited_upload_leaves_the_loop_to_other_connections(
        self, monkeypatch
    ):
        """A step past the inline row bound takes the queue: while the
        ingestion thread holds it, another connection on the same loop
        is answered at once."""
        server = DatabaseServer(build_database())
        steps = self.record_steps(monkeypatch, server)
        picked, release = threading.Event(), threading.Event()
        real_drain = server._drain

        def held_drain(**held):
            picked.set()
            release.wait(5.0)  # the worker holds the role: the lock is free
            real_drain(**held)

        monkeypatch.setattr(server, "_drain", held_drain)
        batches = batches_at(1)
        large = {
            **batches,
            "orders": batches["orders"].padded_to(runtime_mod.INLINE_APPLY_ROWS),
        }
        replies: list = []
        with NetworkServer(server, loop_threads=1) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as owner, (
                IncShrinkClient(*net.address, busy_retries=0)
            ) as analyst:
                waiter = threading.Thread(
                    target=lambda: replies.append(owner.upload(1, large, wait=True))
                )
                waiter.start()
                try:
                    assert picked.wait(5.0)
                    started = time.perf_counter()
                    stats = analyst.stats()
                    answer = analyst.query(query_mix()[0]).answers
                    elapsed = time.perf_counter() - started
                    assert stats["last_time"] == 0 and not replies
                finally:
                    release.set()
                waiter.join(5.0)
                assert not waiter.is_alive()
        server.stop()
        assert elapsed < 1.0 and answer is not None
        assert replies[0]["drained"] and replies[0]["applied_through"] == 1
        assert steps == [(1, "incshrink-ingest")]

    def test_an_apply_on_one_loop_does_not_hold_admission_on_another(
        self, monkeypatch
    ):
        """The loop applying a claimed step has left the admission gate:
        the other loop admits the next step meanwhile, and the claimed
        step's write lock keeps that one behind it."""
        server = DatabaseServer(build_database())
        inside, release = threading.Event(), threading.Event()
        seen: list[tuple[int, str]] = []
        real_step = server.database.step

        def step(t):
            seen.append((t, threading.current_thread().name))
            if t == 1:
                inside.set()
                release.wait(5.0)
            return real_step(t)

        monkeypatch.setattr(server.database, "step", step)
        replies: list = []
        with NetworkServer(server, loop_threads=2) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as first, (
                IncShrinkClient(*net.address, busy_retries=0)
            ) as second:
                waiter = threading.Thread(
                    target=lambda: replies.append(
                        first.upload(1, batches_at(1), wait=True)
                    )
                )
                waiter.start()
                try:
                    assert inside.wait(5.0)
                    ack = second.upload(2, batches_at(2))
                    assert ack["time"] == 2 and not replies
                    assert server.last_time == 0
                finally:
                    release.set()
                waiter.join(5.0)
                assert not waiter.is_alive()
                server.drain(timeout=5.0)
        server.stop()
        assert replies[0]["drained"] and replies[0]["applied_through"] == 1
        assert [t for t, _ in seen] == [1, 2]
        assert on_loop(seen[0][1]) and seen[1][1] == "incshrink-ingest"

    @pytest.mark.parametrize("lane", ["loop", "queue"])
    def test_a_failed_apply_answers_as_the_queued_path_does(
        self, monkeypatch, lane
    ):
        server = DatabaseServer(build_database())
        if lane == "queue":
            monkeypatch.setattr(server, "try_apply", lambda time, batches: None)
        threads: list[str] = []
        real_step = server.database.step

        def step(time):
            threads.append(threading.current_thread().name)
            if time == 2:
                raise RuntimeError("step exploded")
            return real_step(time)

        monkeypatch.setattr(server.database, "step", step)
        with NetworkServer(server) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                client.upload(1, batches_at(1), wait=True)
                with pytest.raises(wire.RemoteError) as failed:
                    client.upload(2, batches_at(2), wait=True)
                with pytest.raises(wire.RemoteError) as later:
                    client.upload(3, batches_at(3), wait=True)
                assert client.stats()["ingest_error"] == "step exploded"
        assert failed.value.code == wire.ERR_SERVER
        assert failed.value.remote_message == "RuntimeError: step exploded"
        assert later.value.code == wire.ERR_SERVER
        assert later.value.remote_message == (
            "ingestion halted by an earlier failure: RuntimeError: step exploded"
        )
        assert len(threads) == 2
        assert all(on_loop(name) == (lane == "loop") for name in threads)
        assert server.last_time == 1
        with pytest.raises(RuntimeError, match="step exploded"):
            server.stop()

    @pytest.mark.parametrize("value", [float("nan"), -1.0, "soon"])
    def test_a_wait_timeout_that_is_no_duration_is_refused(self, value):
        """Refused before admission, even while the write lock is held:
        a NaN used to slip past the clamp and spin the loop."""
        server = DatabaseServer(build_database())
        with NetworkServer(server, max_wait_timeout=0.2) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                payload = wire.encode_upload(1, batches_at(1), wait=True)
                payload["wait_timeout"] = value
                server._rw.acquire_write()
                try:
                    with pytest.raises(wire.RemoteError) as excinfo:
                        client._request("upload", payload, expect="upload_ok")
                finally:
                    server._rw.release_write()
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert "wait_timeout" in excinfo.value.remote_message
                assert server.highest_submitted == 0
                assert server.pending_uploads == 0
                # Nothing was admitted: step 1 is still the next step.
                assert client.upload(1, batches_at(1), wait=True)["drained"]
        server.stop()

    def test_an_infinite_wait_timeout_clamps_to_max_wait_timeout(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server, max_wait_timeout=0.2) as net:
            with IncShrinkClient(*net.address, busy_retries=0) as client:
                server._rw.acquire_write()
                try:
                    started = time.perf_counter()
                    reply = client.upload(
                        1, batches_at(1), wait=True, wait_timeout=float("inf")
                    )
                    elapsed = time.perf_counter() - started
                finally:
                    server._rw.release_write()
                assert reply["drained"] is False and reply["time"] == 1
                assert 0.2 <= elapsed < 1.0
                assert wait_until(lambda: server.last_time == 1)
        server.stop()


class TestResponseEncoding:
    def test_an_unencodable_response_costs_one_frame_not_the_batch(
        self, monkeypatch
    ):
        """A coalesced batch of N uploads is answered with N frames even
        when one response cannot be encoded — ``upload_many`` counts."""
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            fill = net._answer_admitted

            def poisoned(responses, admitted, drained, error):
                fill(responses, admitted, drained, error)
                responses[1][1]["queue_depth"] = object()

            monkeypatch.setattr(net, "_answer_admitted", poisoned)
            with IncShrinkClient(*net.address, timeout=2.0) as client:
                stream = client._stream
                stream.write(
                    b"".join(
                        wire.encode_frame("upload", wire.encode_upload(t, batches_at(t)))
                        for t in (1, 2, 3)
                    )
                )
                stream.flush()
                replies = [wire.read_frame(stream) for _ in range(3)]
        server.stop()
        assert [t for t, _ in replies] == ["upload_ok", "error", "upload_ok"]
        assert replies[1][1]["code"] == wire.ERR_SERVER
        assert "response encoding failed" in replies[1][1]["message"]


# -- the shared backoff helper -------------------------------------------------
class TestBackoffDelay:
    def test_window_doubles_then_caps(self):
        full = lambda: 1.0  # noqa: E731 - deterministic "jitter"
        assert backoff_delay(0, base=0.05, cap=2.0, rng=full) == 0.05
        assert backoff_delay(1, base=0.05, cap=2.0, rng=full) == 0.1
        assert backoff_delay(3, base=0.05, cap=2.0, rng=full) == 0.4
        assert backoff_delay(50, base=0.05, cap=2.0, rng=full) == 2.0

    def test_full_jitter_spans_zero_to_window(self):
        assert backoff_delay(5, rng=lambda: 0.0) == 0.0
        for _ in range(100):
            d = backoff_delay(4, base=0.05, cap=2.0)
            assert 0.0 <= d <= 0.05 * 2**4

    def test_huge_attempt_does_not_overflow(self):
        assert backoff_delay(10_000, cap=7.5, rng=lambda: 1.0) == 7.5

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)
        with pytest.raises(ValueError):
            backoff_delay(0, base=-0.1)

    def test_client_connect_uses_the_shared_schedule(self, monkeypatch):
        """The analyst client redials on backoff_delay, not a linear ramp."""
        from repro.net.client import IncShrinkClient

        delays = []
        monkeypatch.setattr(
            "repro.net.client.backoff_delay",
            lambda attempt, base: delays.append((attempt, base)) or 0.0,
        )
        client = IncShrinkClient(
            "127.0.0.1", _free_unbound_port(), connect_retries=3,
            retry_backoff=0.01, timeout=0.2,
        )
        with pytest.raises(ConnectionError):
            client.connect()
        assert delays == [(0, 0.01), (1, 0.01)]


def _free_unbound_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port
