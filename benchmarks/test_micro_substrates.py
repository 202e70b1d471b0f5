"""Micro-benchmarks of the MPC substrate operators.

These measure *wall-clock* performance of the simulator itself (unlike
the table/figure benches, whose interesting output is simulated
seconds).  They are true multi-round pytest-benchmark measurements.
"""

import numpy as np
import pytest

from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.filter import (
    fold_aggregates,
    oblivious_multi_aggregate,
    range_mask,
)
from repro.sharing.shared_value import SharedArray, SharedTable
from repro.storage.materialized_view import MaterializedView
from repro.oblivious.sort import (
    apply_network,
    composite_key,
    network_comparator_count,
    oblivious_sort,
)
from repro.oblivious.sort_merge_join import truncated_sort_merge_join


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_bench_sort_network_application(benchmark, n):
    """The executable specification (and the tied-key path)."""
    keys = spawn(0, "bench", n).integers(0, 2**32, size=n).astype(np.uint64)
    benchmark(apply_network, keys)
    # Sanity: comparator count follows the expected n·log²n trend.
    assert network_comparator_count(n) > n


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_bench_oblivious_sort_served_path(benchmark, n):
    """What a cache read or a join pays: the same key draw, position-
    tiebroken, so the keys are distinct and the sort is charge + argsort."""
    primary = spawn(0, "bench", n).integers(0, 2**32, size=n).astype(np.uint32)
    keys = composite_key(primary, np.arange(n, dtype=np.uint32))

    def sort():
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("sort") as ctx:
            return oblivious_sort(ctx, keys, [primary], payload_words=2)

    sorted_keys, [sorted_payload] = benchmark(sort)
    spec_keys, spec_perm = apply_network(keys)
    assert np.array_equal(sorted_keys, spec_keys)
    assert np.array_equal(sorted_payload, primary[spec_perm])


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_bench_oblivious_count_scan(benchmark, n):
    gen = spawn(1, "bench", n)
    rows = gen.integers(0, 100, size=(n, 4)).astype(np.uint32)
    table = SharedTable.from_plain(
        Schema(("a", "b", "c", "d")), rows, np.ones(n, dtype=np.uint32), gen
    )

    def scan():
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("q") as ctx:
            counts, _sums = oblivious_multi_aggregate(
                ctx, table, [], True, None, None
            )
            return int(counts[0])

    assert benchmark(scan) == n


#: The four query shapes of the ``bigview`` workloads, as kernel
#: arguments over the (pid, sale_ts, pid, return_ts)-like view schema:
#: every one filters on column 0; they differ in what they accumulate.
BIGVIEW_SHAPES = {
    "count": ((), True),
    "sum": ((3,), False),
    "count+sum+avg": ((3,), True),
    "count+sum-other": ((1,), True),
}


@pytest.mark.parametrize("kernel", ["blocked", "reference"])
@pytest.mark.parametrize("shape", list(BIGVIEW_SHAPES))
def test_bench_cold_scan_4x100k(benchmark, kernel, shape):
    """A cold ``bigview-adhoc`` query's scan, kernel alone: four 100k-row
    column-major shards, one never-repeating range clause on the key.
    ``reference`` is what the blocked kernel replaced and is still
    defined by — reveal every column of a row-major shard, then
    ``range_mask`` + ``fold_aggregates`` over the result."""
    n, k = 400_000, 4
    gen = spawn(4, "bench", n)
    rows = gen.integers(0, 1 << 24, size=(n, 4), dtype=np.uint32)
    flags = gen.integers(0, 2, size=n, dtype=np.uint32)
    schema = Schema(("a", "b", "c", "d"))
    view = MaterializedView(schema, n_shards=k)
    view.append(SharedTable.from_plain(schema, rows, flags, gen))
    shards = view.shards
    row_major = [
        SharedTable(
            schema,
            SharedArray(*map(np.ascontiguousarray, (t.rows.share0, t.rows.share1))),
            t.flags,
        )
        for t in shards
    ]
    sum_columns, need_count = BIGVIEW_SHAPES[shape]
    clauses = ((0, 1 << 22, 3 << 22),)
    runtime = MPCRuntime(seed=0)

    def blocked():
        with runtime.parallel_protocol("q", 0, k) as group:
            parts = [
                oblivious_multi_aggregate(
                    ctx, shard, sum_columns, need_count, None, None, clauses
                )
                for ctx, shard in zip(group.contexts, shards)
            ]
        return sum(int(c[0]) for c, _ in parts), sum(
            int(s[0, 0]) for _, s in parts if s.size
        )

    def reference():
        count = total = 0
        with runtime.parallel_protocol("q", 0, k) as group:
            for ctx, shard in zip(group.contexts, row_major):
                plain, live = ctx.reveal_table(shard)
                live = live & range_mask(plain, clauses)
                counts, sums = fold_aggregates(
                    plain, live, sum_columns, need_count, None, None
                )
                count += int(counts[0])
                total += int(sums[0, 0]) if sums.size else 0
        return count, total

    count, total = benchmark(blocked if kernel == "blocked" else reference)
    live = flags.astype(bool) & (rows[:, 0] >= 1 << 22) & (rows[:, 0] <= 3 << 22)
    assert count == (int(live.sum()) if need_count else 0)
    if sum_columns:
        assert total == int(rows[live, sum_columns[0]].sum(dtype=np.uint64))


@pytest.mark.parametrize(
    "sum_columns, group_column, group_domain",
    [((3,), None, None), ((3, 1), 0, (0, 1, 2, 3))],
    ids=["count+sum", "4cells-count+2sum"],
)
def test_bench_fold_aggregates(benchmark, sum_columns, group_column, group_domain):
    """The accumulation half of the view scan, one 100k-row shard at
    50 % selectivity: a COUNT+SUM, and 4 GROUP BY cells × COUNT+2 SUM."""
    n = 100_000
    gen = spawn(3, "bench", n)
    rows = gen.integers(0, 2**32, size=(n, 4), dtype=np.uint32)
    rows[:, 0] = gen.integers(0, 4, size=n)
    live = gen.integers(0, 2, size=n).astype(bool)

    counts, sums = benchmark(
        fold_aggregates, rows, live, sum_columns, True, group_column, group_domain
    )
    assert int(counts.sum()) == int(live.sum())
    assert int(sums[:, 0].sum()) == int(rows[live, 3].sum(dtype=np.uint64))


@pytest.mark.parametrize("window", [64, 256])
def test_bench_truncated_smj(benchmark, window):
    gen = spawn(2, "bench", window)
    probe = np.column_stack(
        [gen.integers(1, 50, size=window), gen.integers(0, 10, size=window)]
    ).astype(np.uint32)
    driver = np.column_stack(
        [gen.integers(1, 50, size=16), gen.integers(5, 15, size=16)]
    ).astype(np.uint32)

    def join():
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("j") as ctx:
            return truncated_sort_merge_join(
                ctx,
                probe, np.ones(window, dtype=bool), 0, np.full(window, 10),
                driver, np.ones(16, dtype=bool), 0, np.full(16, 10),
                2,
                lambda p, d: 0 <= int(d[1]) - int(p[1]) <= 10,
            )

    result = benchmark(join)
    assert len(result.rows) == 2 * 16


def cpdb_served_join_inputs(n_windows: int = 1):
    """One Transform's join inputs as ``cpdb-heavy`` serves them.

    The cpdb stream at the benchmark's scale 2.5 pads allegations to 25
    and awards to 60 rows per step; the probe side is the b/ω = 2 uploads
    still active, the driver side the newest award batch.  ``n_windows``
    repeats the probe window (fresh draws) to reach the wide shape a
    longer budget would serve: 40 windows ≈ 2 000 probe rows.
    """
    from repro.workload.cpdb import make_cpdb_workload

    workload = make_cpdb_workload(seed=4, n_steps=2 * n_windows + 6, scale=2.5)
    steps = workload.steps
    probe_batches = [s.probe for s in steps[-2 * n_windows :]]
    driver = steps[-1].driver
    probe_rows = np.vstack([b.rows for b in probe_batches])
    probe_flags = np.concatenate([b.is_real for b in probe_batches])
    vd = workload.view_def
    return dict(
        probe_rows=probe_rows, probe_flags=probe_flags,
        probe_key_col=vd.probe_key_col,
        probe_caps=np.full(len(probe_rows), vd.budget),
        driver_rows=driver.rows, driver_flags=driver.is_real,
        driver_key_col=vd.driver_key_col,
        driver_caps=np.full(len(driver.rows), vd.budget),
        omega=vd.omega, pair_predicate=vd.pair_predicate,
    )


@pytest.mark.parametrize("kernel", ["array-pass", "loop-oracle"])
@pytest.mark.parametrize("n_windows", [1, 40], ids=["50x60", "2000x60"])
def test_bench_truncated_join_served_shape(benchmark, kernel, n_windows):
    """Transform's join at the served cpdb shape, ω = 10 and the cpdb
    window predicate: the array-pass kernel beside the per-driver loop it
    replaced (the oracle ``tests/test_join_vectorized.py`` keeps)."""
    from test_join_vectorized import _loop_sort_merge_join

    impl = (
        truncated_sort_merge_join if kernel == "array-pass" else _loop_sort_merge_join
    )
    kwargs = cpdb_served_join_inputs(n_windows)
    runtime = MPCRuntime(seed=0)

    def join():
        with runtime.protocol("j") as ctx:
            return impl(ctx, **kwargs), ctx.gates

    result, gates = benchmark(join)
    with runtime.protocol("oracle") as ctx:
        want = _loop_sort_merge_join(ctx, **kwargs)
        assert gates == ctx.gates
    assert np.array_equal(result.rows, want.rows)
    assert np.array_equal(result.flags, want.flags)
    assert result.real_count > 0


@pytest.mark.parametrize("kernel", ["partition", "composite-key-oracle"])
def test_bench_cache_read_served_shape(benchmark, kernel):
    """One Figure 3 cache read at the ``cpdb-heavy`` shape: 5 700 cached
    rows of four words, about 1 % real, a DP-sized read of 40.  The
    stable-partition kernel beside the composite-key ``oblivious_sort``
    read it replaced (the oracle ``tests/test_cache_read.py`` keeps);
    both must fetch and keep identical shares for identical gates."""
    from test_cache_read import oracle_sorted_read

    from repro.storage.secure_cache import SecureCache

    n, schema = 5_700, Schema(("a", "b", "c", "d"))
    gen = spawn(5, "bench", n)
    rows = gen.integers(0, 2**32, size=(n, 4), dtype=np.uint32)
    content = SharedTable.from_plain(schema, rows, gen.random(n) < 0.01, gen)

    def read(impl, runtime):
        cache = SecureCache(schema)
        cache.append(content)
        with runtime.protocol("read") as ctx:
            fetched, *counts = impl(cache, ctx, 40)
        return fetched, counts, cache.table, runtime.runs

    def partition(cache, ctx, size):
        return cache.sorted_read(ctx, size)

    impl = partition if kernel == "partition" else oracle_sorted_read
    other = oracle_sorted_read if kernel == "partition" else partition
    benchmark(read, impl, MPCRuntime(seed=0))
    got = read(impl, MPCRuntime(seed=0))
    want = read(other, MPCRuntime(seed=0))
    assert got[1] == want[1] and got[1][0] == 40
    assert got[3] == want[3]
    for a, b in ((got[0], want[0]), (got[2], want[2])):
        for x, y in ((a.rows, b.rows), (a.flags, b.flags)):
            assert np.array_equal(x.share0, y.share0)
            assert np.array_equal(x.share1, y.share1)


def test_bench_stats_frame_after_long_stream(benchmark):
    """One ``stats`` frame's payload (``DatabaseServer.observability()``)
    after 1 000 steps of the tpcds stream with one tenant ε-release per
    step.  It is built from running ledgers, so this reads like the same
    benchmark after 10 steps; rebuilding Theorem 3's per-record map and
    walking the accountant's events made it ~65 ms here and linear in
    the stream."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )
    from repro.server.runtime import DatabaseServer

    deployment = build_multiview_deployment(
        MultiViewRunConfig(dataset="tpcds", n_steps=1000, seed=1)
    )
    db = deployment.database
    db.set_tenant_budgets({"analyst": 1.0e6})
    for step in deployment.workload.steps:
        db.upload(step.time, deployment.upload_items(step))
        db.step(step.time)
        db.query(deployment.step_queries[3], step.time, epsilon=0.01, tenant="analyst")
    payload = benchmark(DatabaseServer(db).observability)
    assert payload["tenants"]["analyst"]["epsilon_spent"] == db.query_epsilon()
    assert payload["realized_epsilon"] == db.realized_epsilon() > 10.0
