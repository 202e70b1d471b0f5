"""Micro-benchmarks of the MPC substrate operators.

These measure *wall-clock* performance of the simulator itself (unlike
the table/figure benches, whose interesting output is simulated
seconds).  They are true multi-round pytest-benchmark measurements.
"""

import numpy as np
import pytest

from repro.common.rng import spawn
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.filter import fold_aggregates, oblivious_multi_aggregate
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
    rows = spawn(1, "bench", n).integers(0, 100, size=(n, 4)).astype(np.uint32)
    flags = np.ones(n, dtype=bool)

    def scan():
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("q") as ctx:
            counts, _sums = oblivious_multi_aggregate(
                ctx, rows, flags, [], True, None, None, None, 4
            )
            return int(counts[0])

    assert benchmark(scan) == n


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
