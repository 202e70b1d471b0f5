"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Cache flush on/off — flushing bounds Shrink's oblivious-sort input
   (and therefore its simulated time) at the price of extra dummy rows
   in the view (Theorem 5's s·kT/f term).
2. Truncated sort-merge vs nested-loop join — identical output, very
   different circuit sizes (Example 5.1 vs Algorithm 4).
3. Joint vs trusted-curator noise — identical distribution; the joint
   sampler exists for trust reasons, not statistical ones.
"""

import numpy as np
import pytest
from conftest import emit

from repro.common.rng import spawn
from repro.dp.laplace import laplace_noise
from repro.experiments.harness import RunConfig, run_experiment
from repro.experiments.reporting import format_table
from repro.mpc.joint_noise import laplace_from_u32


def test_ablation_cache_flush(benchmark):
    def run_pair():
        with_flush = run_experiment(
            RunConfig(dataset="cpdb", mode="dp-timer", n_steps=120, flush_interval=30)
        )
        without = run_experiment(
            RunConfig(dataset="cpdb", mode="dp-timer", n_steps=120, flush_interval=10_000)
        )
        return with_flush, without

    with_flush, without = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    emit(
        format_table(
            "Ablation: cache flush (CPDB, sDPTimer)",
            ["variant", "avg Shrink (s)", "avg view rows", "avg L1"],
            [
                ["flush every 30", with_flush.summary.avg_shrink_seconds,
                 with_flush.summary.avg_view_size_rows, with_flush.summary.avg_l1_error],
                ["no flush", without.summary.avg_shrink_seconds,
                 without.summary.avg_view_size_rows, without.summary.avg_l1_error],
            ],
        )
    )
    # Flushing keeps the cache (and hence Shrink's sort) small …
    assert with_flush.summary.avg_shrink_seconds < without.summary.avg_shrink_seconds
    # … at the cost of extra dummy rows parked in the view.
    assert with_flush.summary.avg_view_size_rows > without.summary.avg_view_size_rows


def test_ablation_join_impl(benchmark):
    def run_pair():
        smj = run_experiment(
            RunConfig(dataset="tpcds", mode="ep", n_steps=40, join_impl="sort-merge")
        )
        nlj = run_experiment(
            RunConfig(dataset="tpcds", mode="ep", n_steps=40, join_impl="nested-loop")
        )
        return smj, nlj

    smj, nlj = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    emit(
        format_table(
            "Ablation: truncated join circuit (TPC-ds, EP mode)",
            ["operator", "avg Transform (s)", "avg L1"],
            [
                ["sort-merge (Ex. 5.1)", smj.summary.avg_transform_seconds,
                 smj.summary.avg_l1_error],
                ["nested-loop (Alg. 4)", nlj.summary.avg_transform_seconds,
                 nlj.summary.avg_l1_error],
            ],
        )
    )
    # Same answers, different circuits.
    assert smj.summary.avg_l1_error == nlj.summary.avg_l1_error == 0
    assert nlj.summary.avg_transform_seconds > 2 * smj.summary.avg_transform_seconds


def test_ablation_noise_source(benchmark):
    """Joint (in-MPC) noise vs trusted-curator noise: same law."""

    def sample():
        gen = spawn(0, "ablate")
        local = laplace_noise(gen, 2.0, size=60_000)
        zs = gen.integers(0, 2**32, size=60_000, dtype=np.uint32)
        joint = np.asarray([laplace_from_u32(z, 2.0) for z in zs])
        return local, joint

    local, joint = benchmark.pedantic(sample, rounds=1, iterations=1)
    quantiles = [0.05, 0.25, 0.5, 0.75, 0.95]
    rows = [
        [f"q{int(q*100)}", float(np.quantile(local, q)), float(np.quantile(joint, q))]
        for q in quantiles
    ]
    emit(
        format_table(
            "Ablation: trusted-curator vs joint noise quantiles (Lap(2))",
            ["quantile", "local", "joint"],
            rows,
        )
    )
    for q in quantiles:
        assert np.quantile(local, q) == pytest.approx(np.quantile(joint, q), abs=0.15)
