"""Where a view scan runs is invisible to everything but the clock.

``backend="auto"`` is the in-process path.  There, shards with nothing
past their watermark are answered without a call, and the rest run
inline on the calling thread while the public delta is below
``POOL_MIN_DELTA_ROWS`` and on the shared thread pool from there up.
These tests pin what is (and is not) handed to the pool, that the pool
is sized by CPU affinity, and that inline, pool, forced ``"process"``
and the 1-shard serial run agree on answers, per-shard accumulators,
:class:`~repro.query.incremental.ScanReport` and merged gate totals.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.query.parallel as parallel_mod
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.query.incremental import AccumulatorCache
from repro.query.parallel import ParallelScanExecutor
from repro.query.rewrite import lower_to_view_scan
from repro.query.shard_workers import shutdown_process_backend
from repro.server.sharding import ShardLayout
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView
from test_sharding_equivalence import dashboard_query, make_view_def

VD = make_view_def()
PLAN = lower_to_view_scan(dashboard_query(VD), VD)


def delta(gen, n_rows: int) -> SharedTable:
    rows = gen.integers(0, 8, size=(n_rows, VD.view_schema.width), dtype=np.uint32)
    flags = gen.integers(0, 2, size=n_rows, dtype=np.uint32)
    return SharedTable.from_plain(VD.view_schema, rows, flags, spawn(4, "d", n_rows))


class RecordingPool:
    """The real shared pool, counting what is handed to it."""

    def __init__(self, real) -> None:
        self.real = real
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return self.real.submit(*args, **kwargs)


@pytest.fixture
def pool(monkeypatch) -> RecordingPool:
    recorder = RecordingPool(parallel_mod._shared_pool(2))
    monkeypatch.setattr(parallel_mod, "_shared_pool", lambda _n: recorder)
    return recorder


class TestInlineOrPool:
    def test_small_and_zero_deltas_submit_nothing(self, pool, monkeypatch):
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 64)
        gen = np.random.default_rng(0)
        runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
        view = MaterializedView(VD.view_schema, layout=ShardLayout(4))
        executor = ParallelScanExecutor(max_workers=2)

        view.append(delta(gen, 63))  # cold, one row short of the constant
        _, _, cold = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        _, _, zero = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        view.append(delta(gen, 9))
        _, _, small = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert (cold.delta_rows, zero.delta_rows, small.delta_rows) == (63, 0, 9)
        assert zero.gates == 0
        assert pool.submitted == 0

    def test_large_delta_submits_only_shards_with_a_suffix(self, pool, monkeypatch):
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 64)
        gen = np.random.default_rng(1)
        runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
        view = MaterializedView(VD.view_schema, layout=ShardLayout(4))
        executor = ParallelScanExecutor(max_workers=2)

        view.append(delta(gen, 64))  # cold, at the constant: every shard
        executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert pool.submitted == 4
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 2)
        view.append(delta(gen, 2))  # lands on two of the four shards
        _, _, report = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert report.delta_rows == 2
        assert pool.submitted == 4 + 2

    def test_one_pending_shard_or_one_worker_stays_inline(self, pool, monkeypatch):
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 0)
        gen = np.random.default_rng(2)
        runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
        view = MaterializedView(VD.view_schema, layout=ShardLayout(4))
        view.append(delta(gen, 40))
        ParallelScanExecutor(max_workers=1).execute_detailed(
            runtime, 0, view, PLAN, cache
        )
        view.append(delta(gen, 1))  # a suffix on one shard only
        ParallelScanExecutor(max_workers=2).execute_detailed(
            runtime, 0, view, PLAN, cache
        )
        assert pool.submitted == 0

    def test_failing_pool_task_settles_siblings_and_releases_the_slot(
        self, monkeypatch
    ):
        """The pool-side twin of ``TestParallelScanExecutor::
        test_failing_shard_settles_siblings_and_releases_the_slot`` (whose
        small view now scans inline)."""
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 0)
        runtime = MPCRuntime(seed=0)
        view = MaterializedView(VD.view_schema, layout=ShardLayout(3))
        view.append(delta(np.random.default_rng(3), 12))
        view._shard_chunks[1] = [
            SharedTable.from_plain(
                Schema(("x",)),
                np.zeros((2, 1), dtype=np.uint32),
                np.ones(2, dtype=np.uint32),
                spawn(3, "bad"),
            )
        ]
        with pytest.raises(IndexError):
            ParallelScanExecutor(max_workers=4).execute(runtime, 0, view, PLAN)
        assert runtime.runs[-1].name == "query"
        with runtime.protocol("after", 1):
            pass


def test_pool_is_sized_by_cpu_affinity_not_cpu_count(monkeypatch):
    """A server pinned to 2 of 64 CPUs gets a 2-thread pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {3, 17}, raising=False)
    assert ParallelScanExecutor().max_workers == 2
    assert ParallelScanExecutor(max_workers=5).max_workers == 5
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda _pid: set(range(48)), raising=False
    )
    assert ParallelScanExecutor().max_workers == 32


# -- inline ≡ pool ≡ process ≡ 1-shard serial ------------------------------------
def staged_run(n_shards: int, backend: str):
    """cold → warm-small → warm-zero over one seeded view; per stage the
    answer, the ScanReport, the merged run's gates and the cached
    per-shard accumulators."""
    gen = np.random.default_rng(11)
    runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
    view = MaterializedView(VD.view_schema, layout=ShardLayout(n_shards))
    executor = ParallelScanExecutor(backend=backend)
    stages = []
    for appended in (37, 5, 0):  # cold, warm-small, warm-zero
        if appended:
            view.append(delta(gen, appended))
        answer, _seconds, report = executor.execute_detailed(
            runtime, 0, view, PLAN, cache
        )
        shards = [
            (acc.watermark, acc.counts.tolist(), acc.sums.tolist(), acc.gates)
            for acc in cache.lookup(view, PLAN).shards
        ]
        stages.append((answer, report, runtime.runs[-1].gates, shards))
    return stages


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_inline_pool_process_and_serial_agree(n_shards, monkeypatch):
    monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 1 << 40)
    inline = staged_run(n_shards, "auto")
    monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", 0)
    pooled = staged_run(n_shards, "auto")
    try:
        process = staged_run(n_shards, "process")
    finally:
        shutdown_process_backend()
    assert [r.mode for _, r, _, _ in inline] == ["cold", "warm", "warm"]
    assert [r.delta_rows for _, r, _, _ in inline] == [37, 5, 0]
    assert pooled == inline
    assert process == inline
    serial = staged_run(1, "auto")
    assert [stage[:3] for stage in inline] == [stage[:3] for stage in serial]
    for (_, _, _, shards), (_, _, _, [whole]) in zip(inline, serial):
        assert sum(s[0] for s in shards) == whole[0]
        assert np.sum([s[1] for s in shards], axis=0).tolist() == whole[1]
        assert sum(s[3] for s in shards) == whole[3]
