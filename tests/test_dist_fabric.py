"""The distributed scan fabric is a no-op for everything but the host.

Acceptance criteria of :mod:`repro.dist`: for randomized workloads,
``backend="remote"`` — shard scans scattered over a fleet of shard
worker daemons with replication — returns **byte-identical** answers,
charges the **identical total gates**, and reports the **identical
realized ε** as the in-process executor, for shard counts {1, 2, 4} ×
replication {1, 2}, with and without a worker dying.  Failover is
exercised two ways: a worker stopped *between* queries (the sync phase
routes around it) and a worker killed *mid-scan* with its reply
provably in flight (the scatter re-dispatches the batch to a replica
and the re-scatter gauge increments) — including a real subprocess
SIGKILL.

Alongside the end-to-end matrix, this file unit-tests the shared
full-jitter backoff helper, the new wire frame codecs, endpoint
parsing, the worker daemon's consistency refusals (append gaps, stale
epochs), and the gauge surfaces.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time as _time

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import spawn
from repro.common.types import RecordBatch
from repro.dist import (
    RemoteScanBackend,
    ShardWorker,
    WorkerEndpoint,
    parse_worker_endpoints,
)
from repro.dist.membership import WorkerLink
from repro.mpc.cost_model import CostModel
from repro.net import protocol as wire
from repro.net.backoff import backoff_delay
from repro.query.parallel import ParallelScanExecutor
from repro.sharing.shared_value import SharedTable

from test_sharding_equivalence import (
    DRIVER_SCHEMA,
    PROBE_SCHEMA,
    build_database,
    dashboard_query,
    make_view_def,
    random_script,
    run_deployment,
)


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


# -- wire codecs of the distributed frames -------------------------------------
class TestDistFrameCodecs:
    def test_dist_frame_codes_extend_without_collision(self):
        codes = list(wire.FRAME_CODES.values())
        assert len(codes) == len(set(codes))
        for frame in wire.DIST_FRAMES:
            assert frame in wire.FRAME_CODES

    def test_cost_model_round_trip(self):
        model = CostModel(gates_per_second=1e6, laplace_gates=123)
        assert wire.decode_cost_model(wire.encode_cost_model(model)) == model

    @pytest.mark.parametrize("binary", [False, True])
    def test_shard_content_round_trip(self, binary):
        gen = np.random.default_rng(0)
        arrays = [
            gen.integers(0, 2**32, size=(7, 3), dtype=np.uint32),
            gen.integers(0, 2**32, size=(7, 3), dtype=np.uint32),
            gen.integers(0, 2, size=7, dtype=np.uint32),
            gen.integers(0, 2, size=7, dtype=np.uint32),
        ]
        entry = wire.encode_shard_content(*arrays, binary=binary)
        if not binary:  # the JSON path is the v2 snapshot array codec
            assert entry["rows0"]["dtype"] == "uint32"
        out = wire.decode_shard_content(entry)
        for a, b in zip(arrays, out):
            np.testing.assert_array_equal(a, b)

    def test_shard_content_shape_mismatch_rejected(self):
        entry = wire.encode_shard_content(
            np.zeros((3, 2), dtype=np.uint32),
            np.zeros((3, 2), dtype=np.uint32),
            np.zeros(3, dtype=np.uint32),
            np.zeros(2, dtype=np.uint32),  # flag length != row count
        )
        with pytest.raises(wire.WireError, match="flag"):
            wire.decode_shard_content(entry)

    def test_scan_spec_round_trip(self):
        spec = wire.encode_scan_spec(
            sum_indices=(1, 2),
            need_count=True,
            group_column=0,
            group_domain=(0, 1, 2, 3),
            clause_specs=((1, 0, 40),),
            payload_words=3,
            predicate_words=3,
        )
        out = wire.decode_scan_spec(spec)
        assert out["sum_indices"] == (1, 2)
        assert out["group_domain"] == (0, 1, 2, 3)
        assert out["clause_specs"] == ((1, 0, 40),)

    @pytest.mark.parametrize("binary", [False, True])
    def test_scan_partial_round_trip(self, binary):
        counts = np.array([3, 1], dtype=np.int64)
        sums = np.array([[5, 6], [7, 8]], dtype=np.uint64)
        entry = wire.encode_scan_partial(2, counts, sums, 999, binary=binary)
        shard, c, s, g = wire.decode_scan_partial(entry)
        assert (shard, g) == (2, 999)
        np.testing.assert_array_equal(c, counts)
        np.testing.assert_array_equal(s, sums)


class TestEndpointParsing:
    def test_parses_comma_list_with_spaces(self):
        eps = parse_worker_endpoints("127.0.0.1:7001, 127.0.0.1:7002,")
        assert eps == [
            WorkerEndpoint("127.0.0.1", 7001),
            WorkerEndpoint("127.0.0.1", 7002),
        ]
        assert eps[0].name == "127.0.0.1:7001"

    @pytest.mark.parametrize("bad", ["", "no-port", "host:99999", ":7001"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_worker_endpoints(bad)


# -- executor surface ----------------------------------------------------------
class TestRemoteBackendSurface:
    def test_remote_backend_requires_coordinator(self):
        with pytest.raises(ConfigurationError, match="remote"):
            ParallelScanExecutor(backend="remote")

    def test_backend_for_remote_serves_single_shard_views(self):
        """The one-worker baseline scans remotely too — no silent local
        fallback on single-shard views."""
        executor = ParallelScanExecutor(backend="remote", remote=object())
        view = _tiny_view(n_shards=1)
        assert executor.backend_for(view) == "remote"

    def test_coordinator_validates_configuration(self):
        with pytest.raises(ConfigurationError, match=">= 1 worker"):
            RemoteScanBackend([])
        with pytest.raises(ConfigurationError, match="replication"):
            RemoteScanBackend([WorkerEndpoint("127.0.0.1", 1)], replication=0)

    def test_replication_capped_at_fleet_size(self):
        remote = RemoteScanBackend(
            [WorkerEndpoint("127.0.0.1", 1), WorkerEndpoint("127.0.0.1", 2)],
            replication=5,
        )
        assert remote.replication == 2
        ring = remote.replica_links(3)
        assert [l.endpoint.port for l in ring] == [2, 1]

    def test_start_with_no_reachable_worker_raises(self):
        remote = RemoteScanBackend(
            [WorkerEndpoint("127.0.0.1", _free_unbound_port())]
        )
        with pytest.raises(ProtocolError, match="no shard worker reachable"):
            remote.start()


def _tiny_view(n_shards: int):
    from repro.server.sharding import ShardLayout
    from repro.storage.materialized_view import MaterializedView

    vd = make_view_def()
    view = MaterializedView(vd.view_schema, layout=ShardLayout(n_shards))
    gen = np.random.default_rng(0)
    rows = gen.integers(0, 8, size=(6, vd.view_schema.width), dtype=np.uint32)
    view.append(
        SharedTable.from_plain(
            vd.view_schema, rows, np.ones(6, dtype=np.uint32), spawn(2, "t")
        )
    )
    return view


# -- the worker daemon's consistency refusals ----------------------------------
@pytest.fixture()
def worker_and_link():
    with ShardWorker() as worker:
        link = WorkerLink(WorkerEndpoint(*worker.address), timeout=10.0)
        link.connect()
        try:
            yield worker, link
        finally:
            link.disconnect()


def _content(n: int = 4, width: int = 3) -> dict:
    gen = np.random.default_rng(1)
    return wire.encode_shard_content(
        gen.integers(0, 9, size=(n, width), dtype=np.uint32),
        gen.integers(0, 9, size=(n, width), dtype=np.uint32),
        gen.integers(0, 2, size=n, dtype=np.uint32),
        gen.integers(0, 2, size=n, dtype=np.uint32),
    )


class TestWorkerDaemon:
    def test_handshake_negotiates_binary_and_reports_role(self, worker_and_link):
        worker, link = worker_and_link
        assert link.codec == wire.CODEC_BINARY
        assert link.alive

    def test_assign_then_append_tracks_rows(self, worker_and_link):
        worker, link = worker_and_link
        out = link.exchange(
            "shard_assign",
            {"view": "v1", "shard": 0, "epoch": 0, **_content(4)},
            expect="shard_ok",
        )
        assert out["rows"] == 4
        out = link.exchange(
            "shard_append",
            {"view": "v1", "shard": 0, "epoch": 0, "start": 4, **_content(2)},
            expect="shard_ok",
        )
        assert out["rows"] == 6
        assert worker.gauges()["hosted_rows"] == 6

    def test_append_gap_refused(self, worker_and_link):
        _, link = worker_and_link
        link.exchange(
            "shard_assign",
            {"view": "v1", "shard": 0, "epoch": 0, **_content(4)},
            expect="shard_ok",
        )
        with pytest.raises(wire.RemoteError, match="append gap"):
            link.exchange(
                "shard_append",
                {"view": "v1", "shard": 0, "epoch": 0, "start": 7, **_content(2)},
                expect="shard_ok",
            )
        # The connection survives a refused payload.
        assert link.alive
        assert link.exchange("heartbeat", {}, expect="heartbeat_ok")

    def test_stale_epoch_refused(self, worker_and_link):
        _, link = worker_and_link
        link.exchange(
            "shard_assign",
            {"view": "v1", "shard": 0, "epoch": 0, **_content(4)},
            expect="shard_ok",
        )
        with pytest.raises(wire.RemoteError, match="stale"):
            link.exchange(
                "shard_append",
                {"view": "v1", "shard": 0, "epoch": 3, "start": 4, **_content(2)},
                expect="shard_ok",
            )

    def test_scan_of_unassigned_shard_refused(self, worker_and_link):
        _, link = worker_and_link
        spec = wire.encode_scan_spec(
            sum_indices=(), need_count=True, group_column=None,
            group_domain=None, clause_specs=(), payload_words=3,
            predicate_words=3,
        )
        with pytest.raises(wire.RemoteError, match="unassigned"):
            link.exchange(
                "scan",
                {
                    "view": "v9", "epoch": 0, "spec": spec,
                    "cost_model": wire.encode_cost_model(CostModel()),
                    "tasks": [{"shard": 0, "rows": 4, "start": 0}],
                },
                expect="scan_partial",
            )

    def test_analyst_frames_unsupported(self, worker_and_link):
        _, link = worker_and_link
        with pytest.raises(wire.RemoteError, match="do not serve"):
            link.exchange("query", {}, expect="result")

    def test_stop_wakes_the_accept_thread_and_returns_promptly(self):
        """The accept thread is parked in accept(); stop() must wake it,
        not wait out the join timeout and leave it behind."""
        worker = ShardWorker().start()
        _time.sleep(0.2)  # let the thread reach accept()
        t0 = _time.monotonic()
        worker.stop()
        assert _time.monotonic() - t0 < 1.0
        assert not worker._accept_thread.is_alive()
        t0 = _time.monotonic()
        worker.stop()  # idempotent
        assert _time.monotonic() - t0 < 1.0


# -- end-to-end equivalence: remote fleet ≡ in-process -------------------------
def run_remote_deployment(
    n_shards: int,
    seed: int,
    workers: list[ShardWorker],
    replication: int,
    kill_between_queries: bool = False,
):
    """The exact upload/step/query script of ``run_deployment``, with the
    scans scattered over ``workers``.  With ``kill_between_queries`` the
    first worker is stopped halfway through the stream."""
    db = build_database(n_shards, "thread")
    db.set_remote_workers(
        [WorkerEndpoint(*w.address) for w in workers],
        replication=replication,
        heartbeat_interval=0.2,
    )
    vd = make_view_def("full")
    from repro.query.ast import AggregateSpec, LogicalQuery

    queries = [
        LogicalQuery.for_view(vd, AggregateSpec.count()),
        dashboard_query(vd),
    ]
    script = random_script(seed)
    answers = []
    for t, (probe, driver) in enumerate(script, start=1):
        ts_col = np.full((len(probe), 1), t, dtype=np.uint32)
        probe = np.hstack([probe[:, :1], ts_col]) if len(probe) else probe
        driver_ts = np.full((len(driver), 1), t, dtype=np.uint32)
        driver = np.hstack([driver[:, :1], driver_ts]) if len(driver) else driver
        db.upload(
            t,
            {
                "orders": RecordBatch(
                    PROBE_SCHEMA, probe.reshape(-1, 2)
                ).padded_to(4),
                "shipments": RecordBatch(
                    DRIVER_SCHEMA, driver.reshape(-1, 2)
                ).padded_to(4),
            },
        )
        db.step(t)
        if kill_between_queries and t == len(script) // 2:
            workers[0].stop()
        for q in queries:
            answers.append(db.query(q, t).answers)
    total_gates = sum(r.gates for r in db.runtime.runs)
    return db, answers, total_gates


@pytest.fixture()
def fleet():
    workers = [ShardWorker().start() for _ in range(2)]
    yield workers
    for w in workers:
        w.stop()


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("replication", [1, 2])
def test_remote_equals_in_process(n_shards, replication, fleet):
    """Byte-identical answers, identical gates, identical realized ε
    across the {1,2,4} shard × {1,2} replication matrix."""
    base_db, base_answers, base_gates = run_deployment(n_shards, seed=0)
    db, answers, gates = run_remote_deployment(
        n_shards, 0, fleet, replication
    )
    try:
        assert answers == base_answers
        assert gates == base_gates
        assert db.realized_epsilon() == base_db.realized_epsilon()
        assert (
            db.accountant.snapshot_state() == base_db.accountant.snapshot_state()
        )
        # The fleet actually served: every shard of the queried view's
        # container landed on `replication` workers.
        stats = db.remote_worker_stats()
        assigned = sum(v["assigned_shards"] for v in stats.values())
        assert assigned == n_shards * min(replication, len(fleet))
    finally:
        db.close_remote()


def test_remote_worker_death_between_queries_fails_over(fleet):
    """With replication 2, stopping a worker mid-stream is invisible to
    answers, gates, and ε: the sync phase routes around the corpse."""
    base_db, base_answers, base_gates = run_deployment(4, seed=1)
    db, answers, gates = run_remote_deployment(
        4, 1, fleet, replication=2, kill_between_queries=True
    )
    try:
        assert answers == base_answers
        assert gates == base_gates
        assert db.realized_epsilon() == base_db.realized_epsilon()
        stats = db.remote_worker_stats()
        alive = [v["alive"] for v in stats.values()]
        assert sorted(alive) == [False, True]
    finally:
        db.close_remote()


def test_remote_death_with_no_replica_errors_cleanly(fleet):
    """Replication 1 has nowhere to fail over: the query must error with
    a clean ProtocolError naming the shard, not hang or mis-answer."""
    db, _, _ = run_remote_deployment(4, 0, fleet, replication=1)
    try:
        db.set_incremental(False)
        q = dashboard_query(make_view_def("full"))
        assert db.query(q, 7).answers  # healthy first
        for w in fleet:
            w.stop()
        with pytest.raises(ProtocolError):
            db.query(q, 7)
    finally:
        db.close_remote()


def test_mid_scan_worker_kill_rescatters_and_matches(fleet, monkeypatch):
    """Kill a worker while its scan reply is provably in flight (the
    stall hook keeps it there): the batch re-scatters to the replica,
    the re-scatter gauge increments, and the answer — and realized ε —
    are byte-identical."""
    base_db, _, _ = run_deployment(4, seed=0)
    q = dashboard_query(make_view_def("full"))
    expected = base_db.query(q, 7).answers
    eps_expected = base_db.realized_epsilon()

    db, _, _ = run_remote_deployment(4, 0, fleet, replication=2)
    try:
        db.set_incremental(False)  # force real remote scans every query
        assert db.query(q, 7).answers == expected  # replicas all warm

        monkeypatch.setenv("REPRO_DIST_SCAN_STALL_MS", "400")
        result = {}

        def run_query():
            result["answers"] = db.query(q, 7).answers

        thread = threading.Thread(target=run_query)
        thread.start()
        _time.sleep(0.15)  # sync done, scan frames dispatched, stalled
        fleet[0].stop()  # dies with its scan in flight
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert result["answers"] == expected
        assert db.scan_executor.remote.total_rescatters > 0
        stats = db.remote_worker_stats()
        assert sum(v["rescatters"] for v in stats.values()) > 0
        assert db.realized_epsilon() == eps_expected
    finally:
        db.close_remote()


# -- real processes: SIGKILL a daemon mid-scan ---------------------------------
def _spawn_worker_daemon(extra_env=None) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(
        __import__("pathlib").Path(__file__).resolve().parents[1] / "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.match(r"shard worker listening on [\d.]+:(\d+)", line)
    assert match, f"unexpected daemon banner: {line!r}"
    return proc, int(match.group(1))


def test_sigkill_worker_process_mid_scan_is_byte_identical():
    """The headline failover property on real OS processes: SIGKILL one
    daemon while a scan is in flight; the answer is byte-identical at
    identical realized ε and the re-scatter gauge increments."""
    base_db, _, _ = run_deployment(4, seed=0)
    q = dashboard_query(make_view_def("full"))
    expected = base_db.query(q, 7).answers
    eps_expected = base_db.realized_epsilon()

    stall = {"REPRO_DIST_SCAN_STALL_MS": "500"}
    victim, victim_port = _spawn_worker_daemon(stall)
    survivor, survivor_port = _spawn_worker_daemon(stall)
    db = None
    try:
        db = build_database(4, "thread")
        db.set_remote_workers(
            [
                WorkerEndpoint("127.0.0.1", victim_port),
                WorkerEndpoint("127.0.0.1", survivor_port),
            ],
            replication=2,
            heartbeat_interval=0.25,
        )
        db.set_incremental(False)
        script = random_script(0)
        for t, (probe, driver) in enumerate(script, start=1):
            ts_col = np.full((len(probe), 1), t, dtype=np.uint32)
            probe = np.hstack([probe[:, :1], ts_col]) if len(probe) else probe
            driver_ts = np.full((len(driver), 1), t, dtype=np.uint32)
            driver = (
                np.hstack([driver[:, :1], driver_ts]) if len(driver) else driver
            )
            db.upload(
                t,
                {
                    "orders": RecordBatch(
                        PROBE_SCHEMA, probe.reshape(-1, 2)
                    ).padded_to(4),
                    "shipments": RecordBatch(
                        DRIVER_SCHEMA, driver.reshape(-1, 2)
                    ).padded_to(4),
                },
            )
            db.step(t)
        assert db.query(q, 7).answers == expected  # fleet warm + correct

        result = {}

        def run_query():
            result["answers"] = db.query(q, 7).answers

        thread = threading.Thread(target=run_query)
        thread.start()
        _time.sleep(0.2)  # scan frames out, both daemons stalling
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert result["answers"] == expected
        assert db.realized_epsilon() == eps_expected
        assert db.scan_executor.remote.total_rescatters > 0
    finally:
        if db is not None and hasattr(db, "close_remote"):
            db.close_remote()
        for proc in (victim, survivor):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


# -- serving-stats surface -----------------------------------------------------
def test_serving_stats_expose_per_worker_gauges(fleet):
    """The ``stats`` frame's ``workers`` block carries the fleet gauges
    (assigned shards, heartbeat age, scans served, re-scatters)."""
    from repro.server.runtime import DatabaseServer

    db, _, _ = run_remote_deployment(2, 0, fleet, replication=2)
    server = DatabaseServer(db)
    try:
        payload = server.observability()
        workers = payload["workers"]
        assert len(workers) == 2
        for gauges in workers.values():
            assert gauges["alive"] is True
            assert gauges["assigned_shards"] > 0
            assert gauges["rescatters"] == 0
            assert gauges["last_heartbeat_age_seconds"] is not None
            assert "scans_served" in gauges
    finally:
        server.stop()


def test_stats_workers_block_empty_without_fleet():
    db = build_database(2, "thread")
    from repro.server.runtime import DatabaseServer

    server = DatabaseServer(db)
    try:
        assert server.observability()["workers"] == {}
    finally:
        server.stop()
