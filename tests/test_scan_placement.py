"""Where a view scan runs is invisible to everything but the clock.

``backend="auto"`` is the in-process path.  There, shards with nothing
past their watermark are answered without a kernel call, and below
``SPLIT_MIN_DELTA_ROWS`` unscanned rows the rest run one after the other
on the calling thread (larger scans split over a helper thread:
``tests/test_scan_split.py``).  These tests pin what is (and is not) handed to
the kernel and on which thread, that worker pools are sized by CPU
affinity, and that inline, forced ``"process"`` and the 1-shard serial
run agree on answers, per-shard accumulators,
:class:`~repro.query.incremental.ScanReport` and merged gate totals.
"""

from __future__ import annotations

import os
import threading

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
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView
from test_sharding_equivalence import dashboard_query, make_view_def

VD = make_view_def()
PLAN = lower_to_view_scan(dashboard_query(VD), VD)


def delta(gen, n_rows: int) -> SharedTable:
    rows = gen.integers(0, 8, size=(n_rows, VD.view_schema.width), dtype=np.uint32)
    flags = gen.integers(0, 2, size=n_rows, dtype=np.uint32)
    return SharedTable.from_plain(VD.view_schema, rows, flags, spawn(4, "d", n_rows))


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """``(thread, rows scanned)`` of every kernel call the executor makes."""
    calls = []
    kernel = parallel_mod.oblivious_multi_aggregate

    def recording(ctx, table, *args):
        calls.append((threading.current_thread(), len(table)))
        return kernel(ctx, table, *args)

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", recording)
    return calls


class PoisonedView(MaterializedView):
    """A view one of whose shards is too narrow for the plan's columns."""

    @property
    def shards(self):
        shards = super().shards
        shards[1] = SharedTable.from_plain(
            Schema(("x",)),
            np.zeros((2, 1), dtype=np.uint32),
            np.ones(2, dtype=np.uint32),
            spawn(3, "bad"),
        )
        return shards


class TestInline:
    def test_only_shards_with_a_suffix_reach_the_kernel(self, kernel_calls):
        gen = np.random.default_rng(0)
        runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
        view = MaterializedView(VD.view_schema, n_shards=4)
        executor = ParallelScanExecutor()

        view.append(delta(gen, 63))  # cold: every shard, all of it
        _, _, cold = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert [n for _, n in kernel_calls] == [16, 16, 16, 15]
        del kernel_calls[:]
        _, _, zero = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert kernel_calls == [] and zero.gates == 0
        view.append(delta(gen, 2))  # lands on two of the four shards
        _, _, small = executor.execute_detailed(runtime, 0, view, PLAN, cache)
        assert [n for _, n in kernel_calls] == [1, 1]
        assert (cold.delta_rows, zero.delta_rows, small.delta_rows) == (63, 0, 2)

    @pytest.mark.parametrize("threshold", [0, 1 << 40])
    def test_every_shard_runs_on_the_calling_thread(
        self, kernel_calls, monkeypatch, threshold
    ):
        """Whatever ``POOL_MIN_DELTA_ROWS`` says: it steers which thread
        a *server* hands the query to, not what the executor does."""
        monkeypatch.setattr(parallel_mod, "POOL_MIN_DELTA_ROWS", threshold)
        view = MaterializedView(VD.view_schema, n_shards=4)
        view.append(delta(np.random.default_rng(2), 40))
        ParallelScanExecutor().execute(MPCRuntime(seed=0), 0, view, PLAN)
        assert {t for t, _ in kernel_calls} == {threading.current_thread()}
        assert len(kernel_calls) == 4

    def test_failing_shard_releases_the_slot(self):
        """The multi-shard twin of ``TestParallelScanExecutor::
        test_failing_shard_settles_siblings_and_releases_the_slot``."""
        runtime = MPCRuntime(seed=0)
        view = PoisonedView(VD.view_schema, n_shards=3)
        view.append(delta(np.random.default_rng(3), 12))
        with pytest.raises(IndexError):
            ParallelScanExecutor().execute(runtime, 0, view, PLAN)
        assert runtime.runs[-1].name == "query"
        with runtime.protocol("after", 1):
            pass


def test_worker_pools_are_sized_by_cpu_affinity_not_cpu_count(monkeypatch):
    """A server pinned to 2 of 64 CPUs counts 2."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {3, 17}, raising=False)
    assert parallel_mod.usable_cpus() == 2
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda _pid: set(range(48)), raising=False
    )
    assert parallel_mod.usable_cpus() == 48


# -- inline ≡ process ≡ 1-shard serial ------------------------------------
def staged_run(n_shards: int, backend: str):
    """cold → warm-small → warm-zero over one seeded view; per stage the
    answer, the ScanReport, the merged run's gates and the cached
    per-shard accumulators."""
    gen = np.random.default_rng(11)
    runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
    view = MaterializedView(VD.view_schema, n_shards=n_shards)
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
def test_inline_process_and_serial_agree(n_shards):
    inline = staged_run(n_shards, "auto")
    try:
        process = staged_run(n_shards, "process")
    finally:
        shutdown_process_backend()
    assert [r.mode for _, r, _, _ in inline] == ["cold", "warm", "warm"]
    assert [r.delta_rows for _, r, _, _ in inline] == [37, 5, 0]
    assert process == inline
    serial = staged_run(1, "auto")
    assert [stage[:3] for stage in inline] == [stage[:3] for stage in serial]
    for (_, _, _, shards), (_, _, _, [whole]) in zip(inline, serial):
        assert sum(s[0] for s in shards) == whole[0]
        assert np.sum([s[1] for s in shards], axis=0).tolist() == whole[1]
        assert sum(s[3] for s in shards) == whole[3]
