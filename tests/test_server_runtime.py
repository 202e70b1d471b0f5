"""Tests for the concurrent serving runtime (``repro.server.runtime``).

The headline claims: many clients can query while the stream advances
(and observe only step-consistent state), ingestion order fully
determines the database's evolution, and a server resumed from a
checkpoint converges to the identical state as one that never stopped.
"""

from __future__ import annotations

import gc
import sys
import threading
from time import perf_counter, sleep as _sleep

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ProtocolError, SchemaError
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.query.ast import AggregateSpec, LogicalJoinQuery, LogicalQuery
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.server import runtime as runtime_mod
from repro.server.runtime import DatabaseServer, ReadWriteLock, WouldBlock

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
        ViewRegistration(make_view("audit", 2), mode="dp-timer", timer_interval=1)
    )
    db.register_view(
        ViewRegistration(make_view("recent", 1), mode="dp-timer", timer_interval=1)
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


def count_query(window_hi: int = 2) -> LogicalQuery:
    join = LogicalJoinQuery(
        probe_table="orders",
        driver_table="shipments",
        probe_key="key",
        driver_key="key",
        probe_ts="ots",
        driver_ts="sts",
        window_lo=0,
        window_hi=window_hi,
    )
    return LogicalQuery(join, (AggregateSpec.count(),))


def sequential_reference() -> tuple[list[float], float]:
    """The same stream replayed inline, no server involved."""
    db = build_database()
    for t in range(1, len(SCRIPT) + 1):
        db.upload(t, batches_at(t))
        db.step(t)
    answers = [
        db.query(count_query(2), len(SCRIPT)).answer,
        db.query(count_query(1), len(SCRIPT)).answer,
    ]
    return answers, db.realized_epsilon()


class TestIngestion:
    def test_background_ingestion_matches_inline_replay(self):
        expected_answers, expected_eps = sequential_reference()
        server = DatabaseServer(build_database()).start()
        for t in range(1, len(SCRIPT) + 1):
            server.submit(t, batches_at(t))
        server.drain()
        assert server.last_time == len(SCRIPT)
        got = [
            server.query(count_query(2)).answer,
            server.query(count_query(1)).answer,
        ]
        server.stop()
        assert got == expected_answers
        assert server.database.realized_epsilon() == expected_eps

    def test_batched_ingestion_coalesces_queued_steps(self, monkeypatch):
        """Submitting the whole stream while the worker waits for the
        write lock must still apply every step, in order, exactly once,
        coalesced into ``ingest_batch``-sized applies."""
        server = DatabaseServer(build_database(), ingest_batch=4).start()
        applies: list[list[int]] = []
        real_apply = server._apply_held

        def apply_held(pending, t0):
            applies.append([t for t, _ in pending])
            real_apply(pending, t0)

        monkeypatch.setattr(server, "_apply_held", apply_held)
        with server._rw.read_locked():  # the worker waits for the lock
            for t in range(1, len(SCRIPT) + 1):
                server.submit(t, batches_at(t))
        server.drain()
        server.stop()
        assert applies == [[1, 2, 3, 4], [5, 6]]
        assert server.stats.steps == len(SCRIPT)
        assert server.database.upload_counts() == {
            "orders": len(SCRIPT),
            "shipments": len(SCRIPT),
        }

    def test_non_advancing_upload_surfaces_as_error(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, batches_at(1))
        server.drain()
        server.submit(1, batches_at(1))  # same step again
        with pytest.raises(ProtocolError, match="does not advance"):
            server.drain()
        # The server is now poisoned: further submissions are refused.
        with pytest.raises(ProtocolError):
            server.submit(2, batches_at(2))

    def test_bad_table_name_surfaces_as_error(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, {"unknown": batches_at(1)["orders"]})
        with pytest.raises(SchemaError, match="unknown"):
            server.drain()

    def test_submit_requires_start(self):
        server = DatabaseServer(build_database())
        with pytest.raises(ConfigurationError, match="not started"):
            server.submit(1, batches_at(1))

    def test_double_start_rejected(self):
        server = DatabaseServer(build_database()).start()
        with pytest.raises(ConfigurationError, match="already started"):
            server.start()
        server.stop()

    def test_start_launches_the_ingest_worker_and_stop_ends_it(self):
        """The worker's thread is running before the first step arrives,
        not started by the first hand-off, and is gone after ``stop()``."""

        def ingest_threads() -> list[threading.Thread]:
            return [
                thread for thread in threading.enumerate()
                if thread.name == "incshrink-ingest"
            ]

        before = set(ingest_threads())
        server = DatabaseServer(build_database()).start()
        started = [t for t in ingest_threads() if t not in before]
        assert len(started) == 1 and started[0].is_alive()
        server.submit(1, batches_at(1))
        server.drain()
        assert [t for t in ingest_threads() if t not in before] == started
        server.stop()
        assert not started[0].is_alive()

    def test_pending_uploads_counts_the_backlog_exactly(self):
        """Every step accepted and not yet taken by an apply is counted,
        and an applied backlog counts zero."""
        server = DatabaseServer(build_database(), ingest_batch=2).start()
        assert server.pending_uploads == 0
        with server._rw.read_locked():  # the worker waits for the lock
            for t in range(1, 4):
                server.submit(t, batches_at(t))
                assert server.pending_uploads == t
        server.drain()
        assert server.pending_uploads == 0 and server.last_time == 3
        server.stop()


class TestConcurrentReads:
    def test_many_sessions_query_while_stream_advances(self):
        expected_answers, expected_eps = sequential_reference()
        server = DatabaseServer(build_database()).start()
        stop = threading.Event()
        errors: list[BaseException] = []

        def client(session):
            try:
                while not stop.is_set():
                    watermark = server.last_time
                    if watermark:
                        result = session.query(count_query(2), time=watermark)
                        assert result.answer >= 0.0
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        sessions = [server.session() for _ in range(4)]
        threads = [
            threading.Thread(target=client, args=(s,), daemon=True)
            for s in sessions
        ]
        for t in threads:
            t.start()
        for t in range(1, len(SCRIPT) + 1):
            server.submit(t, batches_at(t))
        server.drain()
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors

        # Read load perturbed nothing: final answers equal the quiet replay.
        got = [
            server.query(count_query(2)).answer,
            server.query(count_query(1)).answer,
        ]
        server.stop()
        assert got == expected_answers
        assert server.database.realized_epsilon() == expected_eps
        assert server.stats.queries >= sum(s.query_count for s in sessions)

    def test_sessions_record_their_own_results(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, batches_at(1))
        server.drain()
        a, b = server.session("alice"), server.session("bob")
        a.query(count_query(2))
        a.query(count_query(1))
        b.query(count_query(2))
        server.stop()
        assert a.query_count == 2 and b.query_count == 1
        assert a.answers()[0] == b.answers()[0]


class TestSnapshotResume:
    def test_periodic_checkpoint_and_resume_matches_uninterrupted(self, tmp_path):
        expected_answers, expected_eps = sequential_reference()
        path = str(tmp_path / "serve.snap")

        first = DatabaseServer(
            build_database(), snapshot_path=path, snapshot_every=1
        ).start()
        for t in range(1, 4):
            first.submit(t, batches_at(t))
        first.drain()
        first.stop()
        assert first.stats.snapshots >= 1

        resumed = DatabaseServer.resume(path)
        assert resumed.last_time == 3
        resumed.start()
        for t in range(4, len(SCRIPT) + 1):
            resumed.submit(t, batches_at(t))
        resumed.drain()
        got = [
            resumed.query(count_query(2)).answer,
            resumed.query(count_query(1)).answer,
        ]
        resumed.stop(final_snapshot=True)
        assert got == expected_answers
        assert resumed.database.realized_epsilon() == expected_eps

        # And the final snapshot can be picked up once more.
        again = DatabaseServer.resume(path)
        assert again.last_time == len(SCRIPT)
        assert again.database.realized_epsilon() == expected_eps

    def test_checkpoint_interval_survives_coalesced_ingestion(self, tmp_path):
        """Coalescing many steps into one apply must not jump over the
        snapshot interval (regression: ``steps % every`` skipped it)."""
        path = str(tmp_path / "coalesced.snap")
        server = DatabaseServer(
            build_database(),
            snapshot_path=path,
            snapshot_every=5,
            ingest_batch=4,
        ).start()
        with server._rw.read_locked():  # 6 steps, applied as 4 + 2
            for t in range(1, len(SCRIPT) + 1):
                server.submit(t, batches_at(t))
        server.drain()
        server.stop()
        assert server.stats.snapshots == 1
        assert DatabaseServer.resume(path).last_time >= 5

    def test_stats_report_what_each_checkpoint_wrote(self, tmp_path):
        """A base, then segments — also from the resumed server, which
        appends to the chain it restored from — each reported with the
        bytes it wrote across the checkpoint's four files."""
        path = tmp_path / "kinds.snap"
        server = DatabaseServer(build_database(), snapshot_path=str(path)).start()
        seen = []
        for t in (1, 2):
            server.submit(t, batches_at(t))
            server.drain()
            server.snapshot()
            seen.append(server.stats.to_dict())
        server.stop()
        resumed = DatabaseServer.resume(str(path)).start()
        resumed.submit(3, batches_at(3))
        resumed.drain()
        resumed.snapshot()
        seen.append(resumed.stats.to_dict())
        resumed.stop()
        assert [(s["last_snapshot_kind"], s["snapshot_segments"]) for s in seen] == [
            ("base", 0), ("segment", 1), ("segment", 2)
        ]
        on_disk = sum(f.stat().st_size for f in path.iterdir())
        assert seen[0]["last_snapshot_bytes"] + sum(
            s["last_snapshot_bytes"] for s in seen[1:]
        ) == on_disk

    def test_checkpoints_carry_the_callers_keys_and_no_stats(self, tmp_path):
        """A checkpoint's metadata is the caller's keys plus the stream
        position; the serving counters stay with the process."""
        path = str(tmp_path / "meta.snap")
        server = DatabaseServer(
            build_database(), snapshot_path=path, snapshot_every=1
        ).start()
        server.metadata["serving_config"] = {"shards": 1}
        for t in (1, 2):
            server.submit(t, batches_at(t))
        server.drain()
        server.query(count_query(2))
        server.stop(final_snapshot=True)
        resumed = DatabaseServer.resume(path)
        assert resumed.resume_metadata == {
            "serving_config": {"shards": 1},
            "last_time": 2,
        }
        assert resumed.metadata == {"serving_config": {"shards": 1}}

    def test_resume_rejects_stale_steps(self, tmp_path):
        path = str(tmp_path / "stale.snap")
        first = DatabaseServer(build_database(), snapshot_path=path).start()
        first.submit(1, batches_at(1))
        first.drain()
        first.stop(final_snapshot=True)

        resumed = DatabaseServer.resume(path).start()
        resumed.submit(1, batches_at(1))  # already ingested before the stop
        with pytest.raises(ProtocolError, match="does not advance"):
            resumed.drain()

    def test_snapshot_requires_a_path(self):
        server = DatabaseServer(build_database()).start()
        with pytest.raises(ConfigurationError, match="snapshot path"):
            server.snapshot()
        server.stop()

    def test_snapshot_every_requires_path(self):
        with pytest.raises(ConfigurationError, match="snapshot_path"):
            DatabaseServer(build_database(), snapshot_every=2)


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        held = []

        lock.acquire_read()
        lock.acquire_read()  # second reader enters freely
        t = threading.Thread(
            target=lambda: (lock.acquire_write(), held.append("w")),
            daemon=True,
        )
        t.start()
        t.join(timeout=0.2)
        assert not held, "writer must wait for readers"
        lock.release_read()
        lock.release_read()
        t.join(timeout=2.0)
        assert held == ["w"]
        lock.release_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer = threading.Thread(target=lock.acquire_write, daemon=True)
        writer.start()
        # Give the writer time to queue up.
        for _ in range(100):
            if lock._writers_waiting:
                break
            threading.Event().wait(0.005)
        reader_entered = []
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), reader_entered.append(True)),
            daemon=True,
        )
        reader.start()
        reader.join(timeout=0.2)
        assert not reader_entered, "new readers queue behind a waiting writer"
        lock.release_read()
        writer.join(timeout=2.0)
        lock.release_write()
        reader.join(timeout=2.0)
        assert reader_entered
        lock.release_read()


class TestConfigErrorMessages:
    """Every invalid knob names itself and the offending value."""

    @pytest.mark.parametrize(
        "kwargs,field,value",
        [
            ({"mode": "bogus"}, "mode", "bogus"),
            ({"join_impl": "hash"}, "join_impl", "hash"),
            ({"timer_interval": 0}, "timer_interval", "0"),
            ({"timer_interval": -5}, "timer_interval", "-5"),
            ({"ant_threshold": -1.0}, "ant_threshold", "-1.0"),
            ({"flush_interval": 0}, "flush_interval", "0"),
            ({"flush_size": -3}, "flush_size", "-3"),
            ({"flush_size": 0}, "flush_size", "0"),
            ({"size_hint": 0}, "size_hint", "0"),
            ({"updates_hint": -2}, "updates_hint", "-2"),
        ],
    )
    def test_view_registration_messages(self, kwargs, field, value):
        with pytest.raises(ConfigurationError) as exc_info:
            ViewRegistration(make_view("v", 2), **kwargs)
        message = str(exc_info.value)
        assert field in message and value in message

    def test_total_epsilon_message(self):
        with pytest.raises(ConfigurationError, match="total_epsilon.*0.0"):
            IncShrinkDatabase(total_epsilon=0.0)

    def test_server_knob_messages(self):
        with pytest.raises(ConfigurationError, match="snapshot_every.*0"):
            DatabaseServer(build_database(), snapshot_path="x", snapshot_every=0)
        with pytest.raises(ConfigurationError, match="ingest_batch.*-1"):
            DatabaseServer(build_database(), ingest_batch=-1)


class TestNonBlockingForms:
    """What an event loop calls: nothing here may wait."""

    def test_read_lock_refuses_instead_of_waiting_for_a_writer(self):
        lock = ReadWriteLock()
        assert lock.acquire_read(blocking=False)
        lock.release_read()
        lock.acquire_write()
        assert not lock.acquire_read(blocking=False)
        lock.release_write()
        with lock.read_locked(blocking=False):
            pass

    def test_write_lock_refuses_instead_of_waiting(self):
        lock = ReadWriteLock()
        assert lock.acquire_write(blocking=False)
        assert not lock.acquire_write(blocking=False)
        lock.release_write()
        lock.acquire_read()
        assert not lock.acquire_write(blocking=False)
        lock.release_read()
        assert lock.acquire_write(blocking=False)
        lock.release_write()

    @staticmethod
    def applied_inline(server: DatabaseServer, t: int, batches=None) -> bool:
        """``try_apply`` then, when it claimed the step, its ``apply()``."""
        apply = server.try_apply(t, batches_at(t) if batches is None else batches)
        if apply is None:
            return False
        apply()
        return True

    def test_try_apply_applies_only_when_nothing_is_in_its_way(self, tmp_path):
        server = DatabaseServer(
            build_database(), snapshot_path=str(tmp_path / "db.snap"),
            snapshot_every=3,
        ).start()
        assert self.applied_inline(server, 1)
        assert server.last_time == 1 and server.stats.steps == 1
        # The write lock is held (a reader here): nothing applied.
        with server._rw.read_locked():
            assert not self.applied_inline(server, 2)
        # A step is queued and the worker holds the role, but has not
        # taken the write lock yet: the lock is free, yet applying here
        # would overtake it.
        release = threading.Event()
        real_drain = server._drain

        def held_drain(**held):
            release.wait(5.0)
            real_drain(**held)

        server._drain = held_drain
        server.submit(2, batches_at(2))
        try:
            assert not self.applied_inline(server, 3)
        finally:
            release.set()
        server.drain(timeout=5.0)
        assert server.last_time == 2 and server.stats.steps == 2
        # Step 3 is a checkpoint's: that is the ingestion thread's work.
        assert not self.applied_inline(server, 3)
        assert server.stats.snapshots == 0
        server.submit(3, batches_at(3))
        server.drain(timeout=5.0)
        assert server.stats.snapshots == 1
        assert self.applied_inline(server, 4)
        server.stop()
        assert server.last_time == 4 and server.stats.steps == 4

    def test_a_claimed_step_holds_the_write_lock_until_it_is_applied(self):
        server = DatabaseServer(build_database()).start()
        apply = server.try_apply(1, batches_at(1))
        assert apply is not None
        # Claimed, not applied: it counts as submitted, and nothing — a
        # second claim, a reader — gets past it.
        assert server.highest_submitted == 1 and server.last_time == 0
        assert server.try_apply(2, batches_at(2)) is None
        assert not server._rw.acquire_read(blocking=False)
        apply()
        assert server.last_time == 1
        assert server._rw.acquire_read(blocking=False)
        server._rw.release_read()
        server.stop()

    def test_the_inline_row_bound_is_one_row_wide(self):
        """A step of one padded row less than ``INLINE_APPLY_ROWS`` is
        claimed; one of exactly that many takes the queue."""
        bound = runtime_mod.INLINE_APPLY_ROWS

        def step_of(t: int, rows: int) -> dict[str, RecordBatch]:
            batches = batches_at(t)
            orders = rows - len(batches["shipments"])
            return {**batches, "orders": batches["orders"].padded_to(orders)}

        server = DatabaseServer(build_database()).start()
        assert not self.applied_inline(server, 1, step_of(1, bound))
        assert self.applied_inline(server, 1, step_of(1, bound - 1))
        assert server.last_time == 1
        server.stop()

    def test_the_inline_cache_bound_counts_every_views_cache(self, monkeypatch):
        server = DatabaseServer(build_database()).start()
        assert self.applied_inline(server, 1)
        cached = sum(len(vr.cache) for vr in server.database.views.values())
        assert cached > 0
        # A Shrink update or a flush may sort every cache row this step.
        monkeypatch.setattr(runtime_mod, "INLINE_APPLY_CACHE_ROWS", cached)
        assert not self.applied_inline(server, 2)
        monkeypatch.setattr(runtime_mod, "INLINE_APPLY_CACHE_ROWS", cached + 1)
        assert self.applied_inline(server, 2)
        server.stop()
        assert server.last_time == 2

    def test_a_failed_try_apply_halts_ingestion(self, monkeypatch):
        server = DatabaseServer(build_database()).start()
        real_step = server.database.step

        def step(time):
            if time == 2:
                raise SchemaError("step 2 exploded")
            return real_step(time)

        monkeypatch.setattr(server.database, "step", step)
        assert self.applied_inline(server, 1)
        fired: list = []
        apply = server.try_apply(2, batches_at(2))
        assert apply is not None
        # Queued behind the claimed step while it is applied: not applied
        # after its failure, and no longer pending.
        server.submit(3, batches_at(3))
        assert server.pending_uploads == 2  # neither taken by an apply yet
        with pytest.raises(SchemaError, match="exploded"):
            apply()
        assert server.pending_uploads == 0
        server.when_applied(2, fired.append)
        assert [str(error) for error in fired] == ["step 2 exploded"]
        with pytest.raises(SchemaError, match="exploded"):
            server.submit(4, batches_at(4))
        with pytest.raises(SchemaError, match="exploded"):
            server.try_apply(4, batches_at(4))
        with pytest.raises(SchemaError, match="exploded"):
            server.drain(timeout=5.0)
        assert server.last_time == 1 and server.stats.steps == 1
        with pytest.raises(SchemaError, match="exploded"):
            server.stop()

    def test_query_and_stats_raise_would_block_with_nothing_executed(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, batches_at(1))
        server.drain()
        runs = len(server.database.runtime.runs)
        for held, release in (
            (server._rw.acquire_write, server._rw.release_write),
            (server._mpc_lock.acquire, server._mpc_lock.release),
        ):
            held()
            try:
                with pytest.raises(WouldBlock):
                    server.query(count_query(2), blocking=False)
            finally:
                release()
        with server._rw.write_locked():
            with pytest.raises(WouldBlock):
                server.observability(blocking=False)
        # An NM join is refused for what it is, with every lock free.
        with pytest.raises(WouldBlock):
            server.query(count_query(5), blocking=False)
        assert len(server.database.runtime.runs) == runs
        assert server.stats.queries == 0
        assert server.query(count_query(2), blocking=False).answer == (
            server.query(count_query(2)).answer
        )
        server.stop()

    def test_when_applied_fires_each_waiter_exactly_once(self):
        """More registering threads than cores, a short switch interval:
        every callback runs once, after its step, whichever side wins the
        race between registration and the ingestion loop."""
        server = DatabaseServer(build_database()).start()
        fired: list[tuple[int, int, BaseException | None]] = []
        record = threading.Lock()

        def register(step: int) -> None:
            def callback(error) -> None:
                with record:
                    fired.append((step, server.last_time, error))

            server.submit(step, batches_at(step))
            server.when_applied(step, callback)
            server.when_applied(step, callback)  # a second waiter, same step

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            turn = threading.Semaphore(1)

            def owner(step: int) -> None:
                # Steps must be submitted in order; registration races.
                while True:
                    with turn:
                        if server.highest_submitted == step - 1:
                            register(step)
                            return

            threads = [
                threading.Thread(target=owner, args=(step,))
                for step in range(1, len(SCRIPT) + 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            server.drain(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(step for step, _, _ in fired) == sorted(
            2 * list(range(1, len(SCRIPT) + 1))
        )
        assert all(
            error is None and applied >= step for step, applied, error in fired
        )
        assert server._applied_waiters == []
        # Registering for a step already applied calls back at once.
        late: list = []
        server.when_applied(1, late.append)
        assert late == [None]
        server.stop()


class TestGracefulShutdown:
    """``stop()``/``drain()`` hardening: bounded waits, surfaced errors."""

    @pytest.mark.parametrize("admit", ["submit", "try_submit"])
    def test_a_producer_blocked_on_a_full_backlog_gets_the_failure(
        self, monkeypatch, admit
    ):
        """Step 1 fails while step 2 fills the backlog and step 3 waits
        for room: step 3 is refused with the failure, not accepted into
        a backlog nothing will apply again."""
        server = DatabaseServer(build_database(), max_pending=1).start()
        inside, release = threading.Event(), threading.Event()

        def step(time):
            inside.set()
            release.wait(5.0)
            raise SchemaError(f"step {time} exploded")

        monkeypatch.setattr(server.database, "step", step)
        server.submit(1, batches_at(1))
        assert inside.wait(5.0)
        server.submit(2, batches_at(2))  # fills the single slot
        outcome: list = []

        def producer() -> None:
            try:
                if admit == "submit":
                    server.submit(3, batches_at(3))
                    outcome.append("accepted")
                else:
                    accepted = server.try_submit(3, batches_at(3), timeout=5.0)
                    outcome.append("accepted" if accepted else "full")
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(0.1)
        assert thread.is_alive() and not outcome  # blocked on the full backlog
        release.set()
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], SchemaError)
        assert str(outcome[0]) == "step 1 exploded"
        assert server.pending_uploads == 0
        t0 = perf_counter()
        with pytest.raises(SchemaError, match="step 1 exploded"):
            server.drain(timeout=2.0)
        assert perf_counter() - t0 < 1.0
        assert server.last_time == 0
        with pytest.raises(SchemaError, match="step 1 exploded"):
            server.stop()

    def test_stop_refuses_a_producer_blocked_on_a_full_backlog(self):
        """What was accepted is applied; a step still waiting for room
        when the server starts stopping is refused, not left blocked."""
        server = DatabaseServer(build_database(), max_pending=1).start()
        outcome: list = []

        def producer() -> None:
            try:
                server.submit(2, batches_at(2))
                outcome.append("accepted")
            except Exception as exc:
                outcome.append(exc)

        with server._rw.read_locked():  # the worker cannot take step 1
            server.submit(1, batches_at(1))  # fills the single slot
            thread = threading.Thread(target=producer)
            thread.start()
            thread.join(0.1)
            assert thread.is_alive() and not outcome
            with pytest.raises(ProtocolError, match="did not drain"):
                server.stop(drain_timeout=0.05)
            thread.join(5.0)
            assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], ConfigurationError)
        assert "stopping" in str(outcome[0])
        server.stop()
        assert server.last_time == 1 and server.pending_uploads == 0

    def test_stop_drain_timeout_reports_pending_then_finishes(self):
        server = DatabaseServer(build_database()).start()
        real_upload = server.database.upload

        def slow_upload(time, batches):
            _sleep(0.15)
            return real_upload(time, batches)

        server.database.upload = slow_upload
        for t in range(1, 4):
            server.submit(t, batches_at(t))
        with pytest.raises(ProtocolError, match="did not drain within"):
            server.stop(drain_timeout=0.01)
        # Nothing was lost: a second stop (unbounded) finishes the drain.
        server.stop()
        assert server.last_time == 3

    def test_drain_timeout_is_bounded_and_lossless(self):
        server = DatabaseServer(build_database()).start()
        real_upload = server.database.upload

        def slow_upload(time, batches):
            _sleep(0.2)
            return real_upload(time, batches)

        server.database.upload = slow_upload
        server.submit(1, batches_at(1))
        with pytest.raises(ProtocolError, match="not applied within"):
            server.drain(timeout=0.01)
        server.drain()  # unbounded wait completes
        assert server.last_time == 1
        server.stop()

    def test_stop_surfaces_deferred_ingest_error(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, batches_at(1))
        server.drain()
        server.submit(1, batches_at(1))  # regression: never applied
        while server.ingest_error is None:
            _sleep(0.005)
        assert isinstance(server.ingest_error, ProtocolError)
        # The caller that only ever stops (never submits again) still
        # observes the failure, exactly once.
        with pytest.raises(ProtocolError, match="does not advance"):
            server.stop(final_snapshot=False)
        server.stop()  # already stopped: no re-raise, no snapshot

    def test_stop_timeout_rejects_bad_knob(self):
        with pytest.raises(ConfigurationError, match="max_pending.*0"):
            DatabaseServer(build_database(), max_pending=0)

    def test_stop_timeout_bounded_even_with_full_queue(self):
        """The shutdown sentinel rides the bounded queue; a full queue
        must not turn the bounded stop into an unbounded block."""
        from time import monotonic

        server = DatabaseServer(build_database(), max_pending=1).start()
        real_upload = server.database.upload

        def slow_upload(time, batches):
            _sleep(0.3)
            return real_upload(time, batches)

        server.database.upload = slow_upload
        server.submit(1, batches_at(1))
        _sleep(0.05)  # let the loop take step 1 off the queue
        server.submit(2, batches_at(2))  # fills the single slot
        t0 = monotonic()
        with pytest.raises(ProtocolError, match="did not drain"):
            server.stop(drain_timeout=0.05)
        assert monotonic() - t0 < 1.0
        server.stop()  # unbounded: finishes the drain
        assert server.last_time == 2


class TestObservabilitySurface:
    """``ServingStats.to_dict()`` is the single monitoring contract."""

    def test_stats_dict_reports_gauges(self):
        server = DatabaseServer(build_database(), max_pending=9).start()
        for t in range(1, 3):
            server.submit(t, batches_at(t))
        server.drain()
        server.query(count_query(2))
        stats = server.current_stats().to_dict()
        assert stats["queue_depth"] == 0
        assert stats["queue_capacity"] == 9
        assert stats["query_epsilon"] == 0.0
        payload = server.observability()
        assert payload["shard_rows"] == live_shard_rows(server)
        assert payload["last_time"] == 2
        assert payload["n_shards"] == server.database.n_shards
        assert payload["ingest_error"] is None
        assert payload["realized_epsilon"] == server.database.realized_epsilon()
        server.stop()

    def test_shard_rows_are_the_views_live_layout(self):
        """Before the first step and after a reshard, the gauge reads
        each view's layout as it is, not the last step's copy of it."""
        server = DatabaseServer(build_database()).start()
        assert server.observability()["shard_rows"] == live_shard_rows(server)
        server.submit(1, batches_at(1))
        server.drain()
        server.reshard(3)
        payload = server.observability()
        assert payload["n_shards"] == 3
        assert payload["shard_rows"] == live_shard_rows(server)
        assert all(len(rows) == 3 for rows in payload["shard_rows"].values())
        server.stop()

    def test_query_epsilon_gauge_tracks_noisy_releases(self):
        server = DatabaseServer(build_database()).start()
        server.submit(1, batches_at(1))
        server.drain()
        server.query(count_query(2), epsilon=0.25)
        assert server.current_stats().query_epsilon == pytest.approx(0.25)
        server.stop()


def live_shard_rows(server: DatabaseServer) -> dict:
    return {
        name: list(vr.view.shard_lengths())
        for name, vr in server.database.views.items()
    }


def tpcds_deployment(n_steps: int):
    """The canonical three-view tpcds deployment and its upload stream —
    what the benchmark's ``tpcds-small`` serves."""
    return build_multiview_deployment(
        MultiViewRunConfig(dataset="tpcds", n_steps=n_steps, seed=1)
    )


def lines_executed(call) -> int:
    """Python lines (and loop iterations) run inside ``call()`` — work
    counted, not timed, so the guard reads the same on a busy host.

    Garbage is collected first and the collector is off while counting:
    a collection inside ``call()`` would count the finalizers and weakref
    callbacks of objects earlier tests left behind (a started server that
    was never stopped is collected with its ingest worker's executor)."""
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        executed += event == "line"
        return tracer

    gc.collect()
    gc.disable()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
        gc.enable()
    return executed


class TestGrowthGuards:
    """The contribution budget bounds a step's work by a fixed window of
    batches; no ledger may quietly turn that into a function of the
    stream's length."""

    def test_step_work_does_not_grow_with_the_stream(self):
        """Steps 551–600 run the lines steps 101–150 ran, to within 5 %
        (fifty-step windows: a Shrink release step is a different step).
        One walk over every batch ever uploaded per Transform run made
        this +22 %."""
        deployment = tpcds_deployment(600)
        db = deployment.database
        early = late = 0
        for step in deployment.workload.steps:
            db.upload(step.time, deployment.upload_items(step))
            if 101 <= step.time <= 150:
                early += lines_executed(lambda: db.step(step.time))
            elif 551 <= step.time <= 600:
                late += lines_executed(lambda: db.step(step.time))
            else:
                db.step(step.time)
        assert early > 50_000  # the tracer saw the steps
        assert abs(late - early) <= 0.05 * early

    @staticmethod
    def transform_run_lines(width: int) -> int:
        """Lines one Transform run executes over a ``width``-batch probe
        window (b // ω = ``width``) of 20 rows in all — one batch of 20
        rows or ten of 2, the same rows — against the same driver batch.

        A step of empty batches at t = 0 comes first for every width, so
        the measured run is never the ledger's first: that one grows its
        column buffers once, which is no work of the window's."""
        schema = Schema(("key", "ts"))
        view_def = JoinViewDefinition(
            name="w", probe_table="orders", probe_schema=schema,
            probe_key="key", probe_ts="ts", driver_table="shipments",
            driver_schema=schema, driver_key="key", driver_ts="ts",
            window_lo=0, window_hi=100, omega=1, budget=width,
        )  # fmt: skip
        db = IncShrinkDatabase(total_epsilon=1.0, seed=0)
        db.register_view(ViewRegistration(view_def, mode="ep"))
        keys = np.arange(20) % 5 + 1
        per_batch = 20 // width
        for t in range(0, width + 1):
            probe = keys[max(t - 1, 0) * per_batch : t * per_batch]
            drivers = np.arange(1, 5) if t == width else np.zeros(0, dtype=int)
            db.upload(
                t,
                {
                    "orders": RecordBatch(
                        schema, np.column_stack([probe, np.ones_like(probe)])
                    ),
                    "shipments": RecordBatch(
                        schema, np.column_stack([drivers, drivers * 0 + 2])
                    ).padded_to(4),
                },
            )
            if t < width:
                db.step(t)
        (group,) = db.groups.values()
        cache = db.views["w"].cache
        return lines_executed(lambda: group.transform.run(width, cache))

    def test_a_transform_run_does_not_grow_with_its_window(self):
        """A 10-batch window runs the lines a 1-batch window of the same
        rows runs, to within 5 %: the window is revealed, capped and
        settled as one slice.  Revealing and settling it batch by batch
        made this +54 %."""
        narrow, wide = self.transform_run_lines(1), self.transform_run_lines(10)
        assert narrow > 500  # the tracer saw the run
        assert abs(wide - narrow) <= 0.05 * narrow

    def test_a_scrape_costs_the_same_after_1000_steps_as_after_50(self):
        """``observability()`` is O(views + tenants): with one tenant's
        ε-released query per step in the ledger, it runs the very same
        number of lines at step 50 and at step 1 000."""
        deployment = tpcds_deployment(1000)
        db = deployment.database
        db.set_tenant_budgets({"analyst": 1.0e6})
        server = DatabaseServer(db)
        dashboard = deployment.step_queries[3]
        scrape_lines = {}
        for step in deployment.workload.steps:
            db.upload(step.time, deployment.upload_items(step))
            db.step(step.time)
            db.query(dashboard, step.time, epsilon=0.01, tenant="analyst")
            if step.time in (50, 1000):
                server.observability()  # counts the prefix it has not seen
                scrape_lines[step.time] = lines_executed(server.observability)
        assert scrape_lines[50] > 20
        assert scrape_lines[1000] == scrape_lines[50]
        payload = server.observability()
        assert payload["tenants"]["analyst"]["epsilon_spent"] == db.tenant_epsilons()[
            "analyst"
        ]
        assert payload["realized_epsilon"] == db.realized_epsilon()


class TestScrapeDoesNotStarveTheStream:
    def test_back_to_back_scrapes_leave_the_write_lock_free(self, monkeypatch):
        """``observability()`` holds the read lock, and the ingest loop's
        write lock waits for readers.  While it rebuilt a per-record map
        under that lock, a monitor polling back to back made every step
        wait ~14 ms for the lock by step 600 (and more with every step);
        answering from running state, a scrape is out of the way in
        microseconds.  600 paced steps, one write acquisition each: the
        mean wait stays under a millisecond (measured ≈ 0.1 ms, what the
        threads' GIL hand-offs cost)."""
        deployment = tpcds_deployment(600)
        waits = []
        acquire_write = ReadWriteLock.acquire_write

        def timed_acquire(lock):
            t0 = perf_counter()
            acquire_write(lock)
            waits.append(perf_counter() - t0)

        monkeypatch.setattr(ReadWriteLock, "acquire_write", timed_acquire)
        server = DatabaseServer(deployment.database).start()
        stop = threading.Event()
        scrapes = 0

        def scrape():
            nonlocal scrapes
            while not stop.is_set():
                server.observability()
                scrapes += 1

        monitor = threading.Thread(target=scrape, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)  # hand the GIL over promptly
        try:
            monitor.start()
            for step in deployment.workload.steps:
                server.submit(step.time, deployment.upload_items(step))
                server.drain(timeout=30)
        finally:
            stop.set()
            monitor.join(timeout=30)
            sys.setswitchinterval(interval)
            server.stop()
        assert not monitor.is_alive()
        assert server.last_time == 600 and len(waits) >= 600
        assert sum(waits) < 1e-3 * len(waits)
        assert scrapes > 600  # ... with the monitor polling throughout


class TestSnapshotDuringConcurrentQueries:
    """Checkpointing must quiesce readers, not corrupt or drift state."""

    def test_racing_snapshot_restores_byte_identical_state(self, tmp_path):
        from repro.server.persistence import restore_database, snapshot_database
        from test_persistence import snapshot_content

        path = str(tmp_path / "race.snap")
        server = DatabaseServer(build_database(), snapshot_path=path).start()
        for t in range(1, len(SCRIPT) + 1):
            server.submit(t, batches_at(t))
        server.drain()
        reference = [
            server.query(count_query(2)).answer,
            server.query(count_query(1)).answer,
        ]

        stop = threading.Event()
        errors: list[BaseException] = []

        def reader_loop(session):
            try:
                while not stop.is_set():
                    assert session.query(count_query(2)).answer == reference[0]
                    assert session.query(count_query(1)).answer == reference[1]
            except BaseException as exc:
                errors.append(exc)

        readers = [
            threading.Thread(target=reader_loop, args=(server.session(),))
            for _ in range(3)
        ]
        for thread in readers:
            thread.start()
        # Checkpoint repeatedly while the sessions are mid-query.
        infos = [server.snapshot() for _ in range(4)]
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors, errors

        # Byte-identical: the checkpoints appended segments while the
        # sessions read; one more, with the readers gone, commits the
        # live state.  A fresh checkpoint of the state restored from the
        # chain and one of the live state under the same metadata are the
        # same bytes (all but created_at, which the digests cover).
        assert infos[0].kind == "base"
        assert {info.kind for info in infos[1:]} <= {"segment", "compaction"}
        infos.append(server.snapshot())
        restored = restore_database(path)
        assert restored.info.sha256 == infos[-1].sha256
        for db, name in ((restored.database, "again.snap"), (server.database, "live.snap")):
            snapshot_database(db, str(tmp_path / name), metadata=restored.metadata)
        assert snapshot_content(tmp_path / "again.snap") == snapshot_content(
            tmp_path / "live.snap"
        )
        # And the restored database answers identically, ε-exactly.
        assert [
            restored.database.query(count_query(2), len(SCRIPT)).answer,
            restored.database.query(count_query(1), len(SCRIPT)).answer,
        ] == reference
        assert (
            restored.database.realized_epsilon()
            == server.database.realized_epsilon()
        )
        server.stop()
