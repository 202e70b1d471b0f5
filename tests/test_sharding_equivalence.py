"""Sharded execution is provably a no-op for everything but the clock.

The acceptance criterion of the sharding layer: for randomized workloads
and shard counts ∈ {1, 2, 3, 8}, the sharded deployment returns
**byte-identical** :class:`~repro.query.ast.QueryAnswer`s, charges the
**identical total gates**, and reports the **identical realized ε** as
the unsharded one.  Round-robin placement is a pure function of public
lengths and every placement/gather is share-local, so nothing a protocol
computes — or an adversary observes — may depend on the layout.

Alongside the end-to-end property suite, this file unit-tests the
layout arithmetic, the share-local placement/gather round-trip, the
parallel executor against the serial reference, the batched concat, and
the shard-aware error surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    SecurityError,
)
from repro.common.rng import spawn
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import (
    AggregateSpec,
    ColumnRange,
    GroupBySpec,
    LogicalQuery,
)
from repro.oblivious.filter import oblivious_multi_aggregate
from repro.query.executor import assemble_answer, scan_arguments
from repro.query.parallel import ParallelScanExecutor
from repro.query.rewrite import lower_to_view_scan
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.sharing.shared_value import SharedArray, SharedTable
from repro.storage.materialized_view import MaterializedView

SHARD_COUNTS = (1, 2, 3, 8)

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))


# -- the view's layout ---------------------------------------------------------
class TestViewLayout:
    def test_validation_names_field_and_value(self):
        schema = Schema(("c0", "c1", "c2"))
        with pytest.raises(ConfigurationError, match="n_shards must be >= 1, got 0"):
            MaterializedView(schema, n_shards=0)
        with pytest.raises(ConfigurationError, match="n_shards must be an int"):
            MaterializedView(schema, n_shards=2.5)
        with pytest.raises(ConfigurationError, match="got -3"):
            MaterializedView(schema, n_shards=-3)
        with pytest.raises(ConfigurationError, match="n_shards must be an int"):
            MaterializedView(schema).reshard(True)

    def test_single_row_appends_land_round_robin(self):
        gen = np.random.default_rng(5)
        view = MaterializedView(Schema(("c0", "c1", "c2")), n_shards=3)
        landed = []
        for _ in range(7):
            before = [len(t) for t in view.shards]
            row = random_table(gen, 1)
            view.append(row)
            after = view.shards
            (shard,) = [s for s in range(3) if len(after[s]) > before[s]]
            np.testing.assert_array_equal(
                after[shard].rows.share0[-1:], row.rows.share0
            )
            landed.append(shard)
        assert landed == [0, 1, 2, 0, 1, 2, 0]

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("total", [0, 1, 7, 8, 23])
    def test_shard_lengths_balanced_and_complete(self, k, total):
        view = MaterializedView(Schema(("c0", "c1", "c2")), n_shards=k)
        view.append(random_table(np.random.default_rng(total), total))
        lengths = view.shard_lengths()
        assert lengths == tuple(len(t) for t in view.shards)
        assert sum(lengths) == total
        assert max(lengths) - min(lengths) <= 1

    def test_appends_continue_the_sequence(self):
        gen = np.random.default_rng(6)
        view = MaterializedView(Schema(("c0", "c1", "c2")), n_shards=2)
        first = random_table(gen, 3)  # globals 0,1,2
        second = random_table(gen, 3)  # globals 3,4,5
        view.append(first)
        view.append(second)
        expected = [
            np.concatenate([first.rows.share0[[0, 2]], second.rows.share0[[1]]]),
            np.concatenate([first.rows.share0[[1]], second.rows.share0[[0, 2]]]),
        ]
        for shard, rows in zip(view.shards, expected):
            np.testing.assert_array_equal(shard.rows.share0, rows)

    @pytest.mark.parametrize("restored_shards", [2, 3])
    def test_restore_refuses_a_split_that_is_not_round_robin(self, restored_shards):
        """At the saved count and at another: 0 + 5 rows over two shards
        is no round-robin split, and the view is left as it was."""
        gen = np.random.default_rng(8)
        view = MaterializedView(Schema(("c0", "c1", "c2")), n_shards=restored_shards)
        original = random_table(gen, 4)
        view.append(original)
        lengths = view.shard_lengths()
        state = {
            "shards": [random_table(gen, 0), random_table(gen, 5)],
            "update_count": 7,
        }
        with pytest.raises(ProtocolError, match="round-robin split"):
            view.restore_state(state)
        assert view.shard_lengths() == lengths and view.update_count == 1
        np.testing.assert_array_equal(
            view.table.rows.share0, original.rows.share0
        )


def random_table(gen, n_rows: int, width: int = 3) -> SharedTable:
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    rows = gen.integers(0, 50, size=(n_rows, width), dtype=np.uint32)
    flags = gen.integers(0, 2, size=n_rows, dtype=np.uint32)
    return SharedTable.from_plain(schema, rows, flags, spawn(9, "share"))


class TestPlaceGather:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_is_identity_on_both_halves(self, k, seed):
        gen = np.random.default_rng(seed)
        table = random_table(gen, int(gen.integers(0, 40)))
        view = MaterializedView(table.schema, n_shards=k)
        view.append(table)
        back = view.table
        np.testing.assert_array_equal(back.rows.share0, table.rows.share0)
        np.testing.assert_array_equal(back.rows.share1, table.rows.share1)
        np.testing.assert_array_equal(back.flags.share0, table.flags.share0)
        np.testing.assert_array_equal(back.flags.share1, table.flags.share1)

    def test_incremental_appends_equal_one_shot(self):
        gen = np.random.default_rng(7)
        view = MaterializedView(Schema(("c0", "c1", "c2")), n_shards=3)
        deltas = [random_table(gen, n) for n in (5, 0, 7, 1)]
        for d in deltas:
            view.append(d)
        whole = SharedTable.concat_all(deltas)
        np.testing.assert_array_equal(
            view.table.rows.share0, whole.rows.share0
        )
        one_shot = MaterializedView(whole.schema, n_shards=3)
        one_shot.append(whole)
        assert view.shard_lengths() == one_shot.shard_lengths()


class TestBatchedConcat:
    def test_concat_all_matches_pairwise_chain(self):
        gen = np.random.default_rng(11)
        arrays = [
            SharedArray.from_plain(
                gen.integers(0, 99, size=(n,), dtype=np.uint32), spawn(1, n)
            )
            for n in (3, 0, 5, 1)
        ]
        batched = SharedArray.concat_all(arrays)
        chained = arrays[0]
        for a in arrays[1:]:
            chained = chained.concat(a)
        np.testing.assert_array_equal(batched.share0, chained.share0)
        np.testing.assert_array_equal(batched.share1, chained.share1)

    def test_concat_all_empty_rejected(self):
        with pytest.raises(ProtocolError, match="zero shared arrays"):
            SharedArray.concat_all([])

    def test_table_concat_all_schema_mismatch_rejected(self):
        a = random_table(np.random.default_rng(0), 2, width=2)
        b = random_table(np.random.default_rng(0), 2, width=3)
        with pytest.raises(Exception, match="different schemas"):
            SharedTable.concat_all([a, b])


# -- parallel executor vs the serial reference ---------------------------------
def make_view_def(name: str = "v") -> JoinViewDefinition:
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
        window_hi=2,
        omega=2,
        budget=6,
    )


def dashboard_query(vd: JoinViewDefinition) -> LogicalQuery:
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        AggregateSpec.avg_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (0, 1, 2, 3)),
        predicate=ColumnRange("shipments", "sts", 0, 40),
    )


def populated_view(n_shards: int, seed: int = 5) -> MaterializedView:
    vd = make_view_def()
    gen = np.random.default_rng(seed)
    view = MaterializedView(vd.view_schema, n_shards=n_shards)
    for n in (9, 4, 13):
        rows = gen.integers(0, 8, size=(n, vd.view_schema.width), dtype=np.uint32)
        flags = gen.integers(0, 2, size=n, dtype=np.uint32)
        view.append(
            SharedTable.from_plain(vd.view_schema, rows, flags, spawn(2, "v", n))
        )
    return view


def serial_scan(runtime, time, view, plan):
    """The reference: one padded scan of the whole view in one protocol."""
    with runtime.protocol("query", time) as ctx:
        counts, sums = oblivious_multi_aggregate(
            ctx, view.table, *scan_arguments(plan, view.schema)
        )
        seconds = ctx.seconds
    return assemble_answer(plan.aggregate_slots, plan.group_domain, counts, sums), seconds


class TestParallelScanExecutor:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_matches_serial_reference_exactly(self, k):
        vd = make_view_def()
        plan = lower_to_view_scan(dashboard_query(vd), vd)

        serial_runtime = MPCRuntime(seed=0)
        serial_view = populated_view(1)
        expected, expected_qet = serial_scan(serial_runtime, 1, serial_view, plan)

        runtime = MPCRuntime(seed=0)
        view = populated_view(k)
        answer, qet = ParallelScanExecutor().execute(runtime, 1, view, plan)

        assert answer == expected  # byte-identical cells
        assert runtime.runs[-1].gates == serial_runtime.runs[-1].gates
        workers = runtime.cost_model.effective_workers(k)
        assert qet == pytest.approx(expected_qet / workers)

    def test_empty_view_all_shard_counts(self):
        vd = make_view_def()
        plan = lower_to_view_scan(dashboard_query(vd), vd)
        answers = set()
        for k in SHARD_COUNTS:
            runtime = MPCRuntime(seed=0)
            view = MaterializedView(vd.view_schema, n_shards=k)
            answer, _ = ParallelScanExecutor().execute(runtime, 0, view, plan)
            answers.add(answer)
        assert len(answers) == 1

    def test_shard_context_errors_name_operation_and_shard(self):
        runtime = MPCRuntime(seed=0)
        view = populated_view(3)
        with runtime.parallel_protocol("query", 0, 3) as group:
            leaked = group.contexts[1]
        with pytest.raises(
            SecurityError,
            match=r"reveal_table on protocol scope 'query' \(shard 2/3\)",
        ):
            leaked.reveal_table(view.shards[1])

    def test_shard_context_rejects_randomness_operations(self):
        """Shard contexts are reveal/charge only: drawing randomness from
        a worker thread would break the deterministic RNG streams."""
        runtime = MPCRuntime(seed=0)
        with runtime.parallel_protocol("query", 0, 2) as group:
            ctx = group.contexts[0]
            with pytest.raises(
                ProtocolError,
                match=r"share_array on protocol scope 'query' \(shard 1/2\)",
            ):
                ctx.share_array(np.zeros(2, dtype=np.uint32))
            with pytest.raises(ProtocolError, match="joint_uniform_u32"):
                ctx.joint_uniform_u32(1)

    def test_failing_shard_settles_siblings_and_releases_the_slot(self, monkeypatch):
        """A shard-scan failure propagates only after every sibling has
        settled, and the runtime's protocol slot is released."""
        vd = make_view_def()
        plan = lower_to_view_scan(dashboard_query(vd), vd)
        runtime = MPCRuntime(seed=0)
        view = populated_view(3)
        # One shard hands out too-narrow rows, so its scan raises (the
        # real shards cannot be made to: append checks the schema).
        bad = SharedTable.from_plain(
            Schema(("x",)),
            np.zeros((2, 1), dtype=np.uint32),
            np.ones(2, dtype=np.uint32),
            spawn(3, "bad"),
        )
        good = view.shards
        monkeypatch.setattr(
            MaterializedView,
            "shards",
            property(lambda self: [good[0], bad, good[2]]),
        )
        with pytest.raises(IndexError):
            ParallelScanExecutor().execute(runtime, 0, view, plan)
        assert runtime.runs[-1].name == "query"  # the failed run settled
        with runtime.protocol("after", 1):  # and the slot is free again
            pass


# -- end-to-end equivalence over randomized workloads --------------------------
def random_script(seed: int, n_steps: int = 6):
    gen = np.random.default_rng(seed)
    script = []
    for _ in range(n_steps):
        probe = gen.integers(
            1, 5, size=(int(gen.integers(0, 4)), 2)
        ).astype(np.uint32)
        driver = gen.integers(
            1, 5, size=(int(gen.integers(0, 4)), 2)
        ).astype(np.uint32)
        script.append((probe, driver))
    return script


def build_database(
    n_shards: int, scan_backend: str = "auto"
) -> IncShrinkDatabase:
    db = IncShrinkDatabase(
        total_epsilon=2000.0, seed=7, n_shards=n_shards, scan_backend=scan_backend
    )
    db.register_view(
        ViewRegistration(
            make_view_def("full"),
            mode="dp-timer",
            timer_interval=1,
            flush_interval=3,
            flush_size=4,
        )
    )
    db.register_view(
        ViewRegistration(make_view_def("audit"), mode="ep")
    )
    return db


def run_deployment(n_shards: int, seed: int, scan_backend: str = "auto"):
    db = build_database(n_shards, scan_backend)
    vd = make_view_def("full")
    queries = [
        LogicalQuery.for_view(vd, AggregateSpec.count()),
        dashboard_query(vd),
    ]
    answers = []
    for t, (probe, driver) in enumerate(random_script(seed), start=1):
        ts_col = np.full((len(probe), 1), t, dtype=np.uint32)
        probe = np.hstack([probe[:, :1], ts_col]) if len(probe) else probe
        driver_ts = np.full((len(driver), 1), t, dtype=np.uint32)
        driver = np.hstack([driver[:, :1], driver_ts]) if len(driver) else driver
        db.upload(
            t,
            {
                "orders": RecordBatch(PROBE_SCHEMA, probe.reshape(-1, 2)).padded_to(4),
                "shipments": RecordBatch(
                    DRIVER_SCHEMA, driver.reshape(-1, 2)
                ).padded_to(4),
            },
        )
        db.step(t)
        for q in queries:
            answers.append(db.query(q, t).answers)
    total_gates = sum(r.gates for r in db.runtime.runs)
    return db, answers, total_gates


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_shards", [2, 3, 8])
def test_sharded_equals_unsharded(seed, n_shards):
    """Byte-identical answers, identical gate totals, identical ε."""
    base_db, base_answers, base_gates = run_deployment(1, seed)
    db, answers, gates = run_deployment(n_shards, seed)
    assert answers == base_answers
    assert gates == base_gates
    assert db.realized_epsilon() == base_db.realized_epsilon()
    assert db.accountant.snapshot_state() == base_db.accountant.snapshot_state()
    # The sharded run actually sharded something.
    full_lengths = db.views["full"].view.shard_lengths()
    assert len(full_lengths) == n_shards
    assert sum(full_lengths) == len(base_db.views["full"].view)
    assert max(full_lengths) - min(full_lengths) <= 1


@pytest.mark.parametrize("n_shards", [2, 8])
def test_reshard_preserves_answers_and_epsilon(n_shards):
    db, answers, _ = run_deployment(1, seed=1)
    vd = make_view_def("full")
    before = db.query(dashboard_query(vd), 6)
    eps_before = db.realized_epsilon()
    db.reshard(n_shards)
    after = db.query(dashboard_query(vd), 6)
    assert after.answers == before.answers
    assert db.realized_epsilon() == eps_before
    assert db.views["full"].view.n_shards == n_shards


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_a_refused_shard_count_changes_nothing(bad):
    with pytest.raises(ConfigurationError, match="n_shards must be"):
        IncShrinkDatabase(n_shards=bad)
    db, _, _ = run_deployment(3, seed=1)
    views = {name: vr.view for name, vr in db.views.items()}
    before = {
        name: (v.shard_lengths(), v.content_version, v.append_epoch)
        for name, v in views.items()
    }
    with pytest.raises(ConfigurationError, match="n_shards must be"):
        db.reshard(bad)
    assert db.n_shards == 3
    assert {
        name: (v.shard_lengths(), v.content_version, v.append_epoch)
        for name, v in views.items()
    } == before


# -- execution backends: process pool ≡ thread pool ---------------------------
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_process_backend_equals_thread_backend(seed, n_shards):
    """The executor backend is invisible to everything but the host
    clock: byte-identical answers, identical gate totals, identical
    realized ε.  (With one shard the process executor deliberately
    resolves to the serial path — the matrix entry pins that fallback.)"""
    thread_db, thread_answers, thread_gates = run_deployment(
        n_shards, seed, scan_backend="thread"
    )
    process_db, process_answers, process_gates = run_deployment(
        n_shards, seed, scan_backend="process"
    )
    assert process_answers == thread_answers
    assert process_gates == thread_gates
    assert process_db.realized_epsilon() == thread_db.realized_epsilon()
    assert (
        process_db.accountant.snapshot_state()
        == thread_db.accountant.snapshot_state()
    )


def test_worker_crash_surfaces_and_pool_recovers():
    """SIGKILL-ing a shard worker mid-deployment fails the in-flight
    query with a clean ProtocolError (no hang, no wrong answer), and the
    discarded pool respawns transparently on the next query."""
    import os
    import signal
    import time as _time

    from repro.query.shard_workers import PROCESS_BACKEND

    db, answers, _ = run_deployment(4, seed=0, scan_backend="process")
    # A warm accumulator cache would answer the repeat queries below
    # without touching the worker pool at all (zero-delta scans submit
    # no tasks); disable it so every query exercises the pool.
    db.set_incremental(False)
    q = dashboard_query(make_view_def("full"))
    expected = db.query(q, 7).answers

    pids = PROCESS_BACKEND.worker_pids()
    assert pids, "the deployment above must have spawned the worker pool"
    os.kill(pids[0], signal.SIGKILL)
    _time.sleep(0.2)  # let the executor's management thread notice

    with pytest.raises(ProtocolError, match="worker process died"):
        db.query(q, 7)

    # The pool was discarded; the next query lazily respawns it and
    # answers identically.
    assert db.query(q, 7).answers == expected
    assert db.query(q, 7).answers == expected  # and stays healthy


class TestBackendSelection:
    def _view_with_rows(self, n_shards: int, n_rows: int) -> MaterializedView:
        vd = make_view_def()
        gen = np.random.default_rng(0)
        view = MaterializedView(vd.view_schema, n_shards=n_shards)
        rows = gen.integers(0, 8, size=(n_rows, vd.view_schema.width)).astype(
            np.uint32
        )
        flags = np.ones(n_rows, dtype=np.uint32)
        view.append(
            SharedTable.from_plain(vd.view_schema, rows, flags, spawn(2, "sel"))
        )
        return view

    def test_one_shard_always_serial(self):
        view = self._view_with_rows(1, 8)
        for backend in ("auto", "thread", "process"):
            assert ParallelScanExecutor(backend=backend).backend_for(view) == "thread"

    def test_forced_backend_honored_on_multi_shard_views(self):
        view = self._view_with_rows(4, 8)
        assert ParallelScanExecutor(backend="thread").backend_for(view) == "thread"
        assert ParallelScanExecutor(backend="process").backend_for(view) == "process"

    def test_auto_uses_shard_size_threshold_and_cpu_count(self, monkeypatch):
        import repro.query.parallel as parallel_mod

        # The rule this test used to pin — process workers above a shard
        # size on a multi-core host — lost to the in-process path at
        # every size measured: auto now resolves in-process whatever the
        # shard size, CPU count and request-lane threshold.
        view = self._view_with_rows(4, 64)
        for cpus in (1, 8):
            monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: cpus)
            for pool_min_rows in (0, 16, 1 << 30):
                monkeypatch.setattr(
                    parallel_mod, "POOL_MIN_DELTA_ROWS", pool_min_rows
                )
                executor = ParallelScanExecutor(backend="auto")
                assert executor.backend_for(view) == "thread"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            ParallelScanExecutor(backend="fork")

    def test_database_exposes_and_switches_backend(self):
        db = build_database(2, scan_backend="thread")
        assert db.scan_backend == "thread"
        db.set_scan_backend("process")
        assert db.scan_backend == "process"
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            db.set_scan_backend("fiber")


def test_plan_prices_shards_into_wall_clock():
    """Same gates, 1/workers the estimated seconds on a sharded view."""
    flat_db, _, _ = run_deployment(1, seed=2)
    sharded_db, _, _ = run_deployment(8, seed=2)
    q = dashboard_query(make_view_def("full"))
    flat_plan = flat_db.planner.plan(q)
    sharded_plan = sharded_db.planner.plan(q)
    assert flat_plan.estimated_gates == sharded_plan.estimated_gates
    workers = sharded_db.runtime.cost_model.effective_workers(8)
    assert sharded_plan.estimated_seconds == pytest.approx(
        flat_plan.estimated_seconds / workers
    )
    assert sharded_plan.n_shards == 8
