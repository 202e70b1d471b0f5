"""A large scan splits its shards over two threads, and nothing else moves.

When a view scan's public delta reaches
:data:`~repro.query.parallel.SPLIT_MIN_DELTA_ROWS`, every other pending
shard runs on the scan helper thread and the rest on the calling thread;
a lone pending shard is cut at the midpoint of its suffix, the second
half on the helper.  These tests hold the split to the inline scan and
to the one-shard serial reference (answers, per-shard accumulators and
gates, merged gates and simulated seconds,
:class:`~repro.query.incremental.ScanReport`), pin which shards and
ranges run where, check that a failure on either half surfaces only
once both halves have stopped, and that ``DatabaseServer.stop()`` leaves
no helper thread behind.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.query.parallel as parallel_mod
from repro.common.errors import SecurityError
from repro.mpc.cost_model import DEFAULT_COST_MODEL
from repro.mpc.runtime import MPCRuntime
from repro.query.incremental import AccumulatorCache
from repro.query.parallel import ParallelScanExecutor, shutdown_scan_helper
from repro.server.runtime import DatabaseServer
from repro.storage.materialized_view import MaterializedView
from test_scan_placement import PLAN, VD, delta
from test_server_runtime import batches_at, build_database, count_query
from test_sharding_equivalence import serial_scan

#: The split bound the equivalence tests run at (the shipped one is
#: exercised by ``test_the_shipped_bound_splits_at_its_value``).
BOUND = 40


def helper_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name.startswith("scan-helper")
    ]


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Split as a 2-CPU host would, and leave no helper behind."""
    shutdown_scan_helper()
    monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 2)
    yield
    shutdown_scan_helper()


class KernelCalls(list):
    def __init__(self) -> None:
        super().__init__()
        self.blocks: list[int | None] = []


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """``(on the helper, shard index, rows scanned)`` of every kernel
    call; the block size each call asked for goes to ``calls.blocks``."""
    calls = KernelCalls()
    kernel = parallel_mod.oblivious_multi_aggregate

    def recording(ctx, table, *args):
        on_helper = threading.current_thread().name.startswith("scan-helper")
        calls.append((on_helper, ctx.shard[0], len(table)))
        calls.blocks.append(args[6] if len(args) > 6 else None)
        return kernel(ctx, table, *args)

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", recording)
    return calls


def staged_run(n_shards: int, bound: int, appends, monkeypatch):
    """One seeded view scanned cold, then warm after each further append;
    per stage the answer, the ScanReport, the merged run's gates and the
    cached per-shard accumulators."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", bound)
    gen = np.random.default_rng(11)
    runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
    view = MaterializedView(VD.view_schema, n_shards=n_shards)
    executor = ParallelScanExecutor()
    stages = []
    for appended in appends:
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
    return stages, view


# cold below / warm above the bound, and cold above / warm below; then a
# warm scan with nothing new.
APPENDS = [(BOUND - 1, BOUND, 0), (BOUND, BOUND - 1, 0)]


@pytest.mark.parametrize("appends", APPENDS)
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5])
def test_split_inline_and_serial_agree(n_shards, appends, monkeypatch, kernel_calls):
    split, view = staged_run(n_shards, BOUND, appends, monkeypatch)
    ran_on_helper = [on_helper for on_helper, _, _ in kernel_calls]
    del kernel_calls[:]
    inline, _ = staged_run(n_shards, 1 << 62, appends, monkeypatch)
    assert not any(on_helper for on_helper, _, _ in kernel_calls)
    assert split == inline
    assert [r.mode for _, r, _, _ in split] == ["cold", "warm", "warm"]
    assert [r.delta_rows for _, r, _, _ in split] == list(appends)
    # The stage at the bound split, at every shard count (a lone pending
    # shard in two halves).
    assert any(ran_on_helper)

    # The one-shard serial reference: the same answers at every stage,
    # and a cold scan's gates; per-shard accumulators sum to its one.
    runtime = MPCRuntime(seed=0)
    expected, _ = serial_scan(runtime, 0, view, PLAN)
    assert split[-1][0] == expected
    serial, _ = staged_run(1, 1 << 62, appends, monkeypatch)
    assert [stage[:3] for stage in split] == [stage[:3] for stage in serial]
    assert split[0][2] == serial[0][2] == sum(s[3] for s in split[0][3])
    for (_, _, _, shards), (_, _, _, [whole]) in zip(split, serial):
        assert sum(s[0] for s in shards) == whole[0]
        assert np.sum([s[1] for s in shards], axis=0).tolist() == whole[1]
        assert sum(s[3] for s in shards) == whole[3]


@pytest.mark.parametrize("n_shards", [2, 3, 4, 5])
def test_every_other_pending_shard_runs_on_the_helper(
    n_shards, monkeypatch, kernel_calls
):
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", BOUND)
    gen = np.random.default_rng(4)
    runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
    view = MaterializedView(VD.view_schema, n_shards=n_shards)
    executor = ParallelScanExecutor()
    view.append(delta(gen, 10 * n_shards + BOUND))
    executor.execute_detailed(runtime, 0, view, PLAN, cache)
    helper = sorted(i for on_helper, i, _ in kernel_calls if on_helper)
    caller = sorted(i for on_helper, i, _ in kernel_calls if not on_helper)
    assert (caller, helper) == (
        list(range(n_shards))[::2],
        list(range(n_shards))[1::2],
    )
    # Warm: only shards with a suffix are pending, and they alternate.
    del kernel_calls[:]
    view.append(delta(gen, BOUND))
    executor.execute_detailed(runtime, 0, view, PLAN, cache)
    pending = sorted(i for _, i, _ in kernel_calls)
    assert sorted(i for on_helper, i, _ in kernel_calls if on_helper) == pending[1::2]


def test_one_cpu_never_splits(monkeypatch, kernel_calls):
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", 0)
    monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 1)
    view = MaterializedView(VD.view_schema, n_shards=4)
    view.append(delta(np.random.default_rng(2), 40))
    ParallelScanExecutor().execute(MPCRuntime(seed=0), 0, view, PLAN)
    assert len(kernel_calls) == 4 and not any(c[0] for c in kernel_calls)
    assert helper_threads() == []


def test_the_shipped_bound_splits_at_its_value(kernel_calls):
    bound = parallel_mod.SPLIT_MIN_DELTA_ROWS
    gen = np.random.default_rng(6)
    view = MaterializedView(VD.view_schema, n_shards=4)
    view.append(delta(gen, bound - 1))
    executor = ParallelScanExecutor()
    executor.execute(MPCRuntime(seed=0), 0, view, PLAN)
    assert not any(on_helper for on_helper, _, _ in kernel_calls)
    del kernel_calls[:]
    view.append(delta(gen, 1))
    executor.execute(MPCRuntime(seed=0), 0, view, PLAN)
    assert [i for on_helper, i, _ in kernel_calls if on_helper] == [1, 3]


def test_a_split_scans_in_larger_blocks_and_inline_in_the_kernels(
    monkeypatch, kernel_calls
):
    """Both halves of a split pass :data:`SPLIT_BLOCK_ROWS`; an inline
    scan leaves the kernel at its own ``SCAN_BLOCK_ROWS``."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", BOUND)
    gen = np.random.default_rng(5)
    view = MaterializedView(VD.view_schema, n_shards=4)
    view.append(delta(gen, BOUND - 1))
    ParallelScanExecutor().execute(MPCRuntime(seed=0), 0, view, PLAN)
    assert kernel_calls.blocks == [None] * 4
    del kernel_calls[:], kernel_calls.blocks[:]
    view.append(delta(gen, 1))
    ParallelScanExecutor().execute(MPCRuntime(seed=0), 0, view, PLAN)
    assert {c[0] for c in kernel_calls} == {False, True}
    assert kernel_calls.blocks == [parallel_mod.SPLIT_BLOCK_ROWS] * 4


def test_the_block_size_changes_neither_answer_nor_charge():
    """The kernel at any block size folds and charges what it does at
    its own; a thread's scratch grows to the largest block it ran and
    serves smaller ones from the same buffer."""
    import repro.oblivious.filter as filter_mod

    view = MaterializedView(VD.view_schema, n_shards=1)
    view.append(delta(np.random.default_rng(9), 300))
    args = parallel_mod.scan_arguments(PLAN, VD.view_schema)
    runtime = MPCRuntime(seed=0)
    results = []
    for block_rows in (None, 1, 7, 64, 299, 300, 1 << 17, 64):
        with runtime.protocol("block", 0) as ctx:
            counts, sums = parallel_mod.oblivious_multi_aggregate(
                ctx, view.shards[0], *args, block_rows=block_rows
            )
        results.append((counts.tolist(), sums.tolist(), runtime.runs[-1].gates))
    assert results == [results[0]] * len(results)
    widest, _ = filter_mod._block_scratch(1)
    assert widest.shape[1] == 1 << 17


# -- the error path -----------------------------------------------------------
@pytest.mark.parametrize("failing_half", ["helper", "caller"])
def test_a_failing_half_surfaces_after_both_halves_stopped(
    failing_half, monkeypatch
):
    """The failing half raises at its first shard; the other half is
    still scanning for a while after.  ``execute_detailed`` raises only
    once that half has ended, and no shard context revealed after the
    scope closed."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", 0)
    kernel = parallel_mod.oblivious_multi_aggregate
    ended, late_reveals = [], []

    def kernel_with_a_fault(ctx, table, *args):
        on_helper = threading.current_thread().name.startswith("scan-helper")
        try:
            if on_helper == (failing_half == "helper"):
                raise RuntimeError(f"forced in the {failing_half}'s half")
            time.sleep(0.05)
            try:
                return kernel(ctx, table, *args)
            except SecurityError:
                late_reveals.append(ctx.shard)
                raise
        finally:
            ended.append(ctx.shard)

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", kernel_with_a_fault)
    runtime = MPCRuntime(seed=0)
    view = MaterializedView(VD.view_schema, n_shards=4)
    view.append(delta(np.random.default_rng(3), 40))
    executor = ParallelScanExecutor()
    with pytest.raises(RuntimeError, match=f"forced in the {failing_half}"):
        executor.execute_detailed(runtime, 0, view, PLAN)
    # Both halves stopped: the failing half at its first shard, the other
    # after scanning all of its own, each inside the open scope.
    assert sorted(s[0] for s in ended) == (
        [0, 1, 2] if failing_half == "helper" else [0, 1, 3]
    )
    assert late_reveals == []
    assert runtime._active is None and runtime.runs[-1].name == "query"

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", kernel)
    answer, _ = executor.execute(runtime, 1, view, PLAN)
    expected, _ = serial_scan(MPCRuntime(seed=0), 1, view, PLAN)
    assert answer == expected


def test_concurrent_split_scans_and_helper_shutdowns(monkeypatch):
    """More scanning threads than cores, each on its own runtime, with
    the helper shut down under them and a short switch interval: every
    scan answers, and answers what the serial reference does."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", 0)
    view = MaterializedView(VD.view_schema, n_shards=5)
    view.append(delta(np.random.default_rng(8), 200))
    expected, _ = serial_scan(MPCRuntime(seed=0), 0, view, PLAN)
    answers, errors = [], []

    def scanner() -> None:
        try:
            executor, runtime = ParallelScanExecutor(), MPCRuntime(seed=0)
            for _ in range(25):
                answers.append(executor.execute(runtime, 0, view, PLAN)[0])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def closer() -> None:
        for _ in range(25):
            shutdown_scan_helper()
            time.sleep(0.0005)

    threads = [threading.Thread(target=scanner) for _ in range(4)]
    threads.append(threading.Thread(target=closer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert answers == [expected] * 100


# -- the helper's lifecycle ---------------------------------------------------
def test_no_helper_thread_outlives_the_server(monkeypatch, kernel_calls):
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", 0)
    db = build_database()
    db.reshard(3)
    server = DatabaseServer(db).start()
    for t in (1, 2, 3):
        server.submit(t, batches_at(t))
    server.drain()
    answer = server.query(count_query(2)).answer
    assert any(on_helper for on_helper, _, _ in kernel_calls)
    assert len(helper_threads()) == 1
    server.stop()
    assert helper_threads() == []

    # A later scan in the same interpreter starts a fresh helper.
    again = DatabaseServer(db).start()
    assert again.query(count_query(2)).answer == answer
    again.stop()
    assert helper_threads() == []



# -- a lone pending shard splits in two ----------------------------------------
def _row_offset(table, shard) -> int:
    """Where ``table``'s rows begin within ``shard``: a range is a public
    slice of the shard, a face of the same buffer."""
    flags, base = table.flags.share0, shard.flags.share0
    offset = flags.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    return offset // base.strides[0]


@pytest.mark.parametrize("cached", [0, 9], ids=["cold", "warm"])
@pytest.mark.parametrize("suffix", [BOUND, BOUND + 1, 3 * BOUND + 1])
def test_a_lone_pending_shard_runs_as_two_contiguous_halves(
    suffix, cached, monkeypatch
):
    """At or above the bound, a one-shard view's suffix is cut at its
    midpoint: the first half on the calling thread, the second on the
    helper, each under its own context of the group, the two meeting
    exactly; answers, per-shard accumulators and the ScanReport are the
    inline scan's."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", BOUND)
    kernel = parallel_mod.oblivious_multi_aggregate

    def scanned(bound):
        monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", bound)
        gen = np.random.default_rng(12)
        view = MaterializedView(VD.view_schema, n_shards=1)
        executor, cache = ParallelScanExecutor(), AccumulatorCache()
        runtime = MPCRuntime(seed=0)
        if cached:
            view.append(delta(gen, cached))
            executor.execute_detailed(runtime, 0, view, PLAN, cache)
        view.append(delta(gen, suffix))
        calls = []

        def recording(ctx, table, *args):
            on_helper = threading.current_thread().name.startswith("scan-helper")
            offset = _row_offset(table, view.shards[0])
            calls.append((on_helper, ctx, offset, len(table)))
            return kernel(ctx, table, *args)

        monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", recording)
        answer, _seconds, report = executor.execute_detailed(
            runtime, 1, view, PLAN, cache
        )
        monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", kernel)
        (acc,) = cache.lookup(view, PLAN).shards
        state = (answer, report, acc.counts.tolist(), acc.sums.tolist(), acc.gates)
        return state, calls, runtime.runs[-1]

    split, calls, split_run = scanned(BOUND)
    calls.sort(key=lambda call: call[2])  # the halves run concurrently
    half = suffix // 2
    assert [(h, offset, n) for h, _ctx, offset, n in calls] == [
        (False, cached, half),
        (True, cached + half, suffix - half),
    ]
    assert calls[0][1] is not calls[1][1]
    assert [ctx.shard for _, ctx, _, _ in calls] == [(0, 1), (0, 1)]

    inline, inline_calls, inline_run = scanned(1 << 62)
    assert [(h, offset, n) for h, _ctx, offset, n in inline_calls] == [
        (False, cached, suffix)
    ]
    assert split == inline and split_run == inline_run
    assert split[1].delta_rows == suffix and split[1].cached_rows == cached


def _runs_of(n_shards: int, bound: int, appends, monkeypatch):
    """Every query's answer and :class:`ProtocolRun` over one seeded view,
    scanned after each append with an accumulator cache."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", bound)
    gen = np.random.default_rng(13)
    runtime, cache = MPCRuntime(seed=0), AccumulatorCache()
    view = MaterializedView(VD.view_schema, n_shards=n_shards)
    executor = ParallelScanExecutor()
    answers = []
    for t, appended in enumerate(appends):
        view.append(delta(gen, appended))
        answers.append(executor.execute(runtime, t, view, PLAN)[0])
        answers.append(executor.execute_detailed(runtime, t, view, PLAN, cache)[0])
    return answers, runtime.runs


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_split_answers_gates_and_seconds_are_the_inline_scans(
    n_shards, monkeypatch, kernel_calls
):
    """Cold and warm scans at every placement — split across shards, a
    lone pending shard in halves (the one-row appends, at a bound of
    one row), inline — answer alike and log equal runs: gates and
    simulated seconds, which stay priced by the view's shard count."""
    appends = (3 * BOUND + 1, 1, BOUND, 1)
    split, split_runs = _runs_of(n_shards, 1, appends, monkeypatch)
    assert any(on_helper for on_helper, _, _ in kernel_calls)
    del kernel_calls[:]
    inline, inline_runs = _runs_of(n_shards, 1 << 62, appends, monkeypatch)
    assert not any(on_helper for on_helper, _, _ in kernel_calls)
    assert split == inline
    assert split_runs == inline_runs
    assert [r.seconds for r in split_runs] == [
        DEFAULT_COST_MODEL.parallel_seconds(r.gates, n_shards) for r in split_runs
    ]


@pytest.mark.parametrize("failing_half", ["helper", "caller"])
def test_a_failing_half_of_a_lone_shard_surfaces_after_both_stopped(
    failing_half, monkeypatch
):
    """The one-shard split's error path: the failing half raises at
    once, the other is still scanning; the error surfaces only after it
    ended, inside the open scope."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_DELTA_ROWS", 0)
    kernel = parallel_mod.oblivious_multi_aggregate
    ended, late_reveals = [], []

    def kernel_with_a_fault(ctx, table, *args):
        on_helper = threading.current_thread().name.startswith("scan-helper")
        try:
            if on_helper == (failing_half == "helper"):
                raise RuntimeError(f"forced in the {failing_half}'s half")
            time.sleep(0.05)
            try:
                return kernel(ctx, table, *args)
            except SecurityError:
                late_reveals.append(ctx.shard)
                raise
        finally:
            ended.append(on_helper)

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", kernel_with_a_fault)
    runtime = MPCRuntime(seed=0)
    view = MaterializedView(VD.view_schema, n_shards=1)
    view.append(delta(np.random.default_rng(3), 41))
    executor = ParallelScanExecutor()
    with pytest.raises(RuntimeError, match=f"forced in the {failing_half}"):
        executor.execute_detailed(runtime, 0, view, PLAN)
    assert sorted(ended) == [False, True]
    assert late_reveals == []
    assert runtime._active is None and runtime.runs[-1].name == "query"

    monkeypatch.setattr(parallel_mod, "oblivious_multi_aggregate", kernel)
    answer, _ = executor.execute(runtime, 1, view, PLAN)
    expected, _ = serial_scan(MPCRuntime(seed=0), 1, view, PLAN)
    assert answer == expected
