"""Incremental-execution baseline — BENCH_incremental.json.

The acceptance numbers of the incremental scan subsystem
(:mod:`repro.query.incremental`), measured two ways:

* **engine-level cold vs warm** — one fixed synthetic view per (backend,
  delta fraction): a cold full scan populates the accumulator cache, a
  delta of ``fraction × VIEW_ROWS`` rows is appended, and the warm
  rescan is compared against a cold rescan of the *grown* view.  The
  warm scan must return byte-identical answers, charge **exactly**
  ``delta_rows × per_row_gates`` (the suffix, nothing more), and beat
  the cold rescan by ≥ 5× in simulated gates at deltas ≤ 5% of the view
  — the headline O(n) → O(delta) claim;
* **database-level hit rates** — a dashboard-style repeated query mix
  against a small deployment, recording the accumulator cache's
  hit/miss/eviction gauges and the (validity-keyed) plan cache's hit
  rate.

The recorded JSON is the regression baseline future PRs must beat (or
at least not quietly lose).
"""

from __future__ import annotations

import time as _time
from pathlib import Path

import numpy as np
from conftest import emit

from repro.common.rng import spawn
from repro.core.view_def import JoinViewDefinition
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import AggregateSpec, GroupBySpec, LogicalQuery
from repro.query.incremental import AccumulatorCache
from repro.query.parallel import ParallelScanExecutor
from repro.query.rewrite import lower_to_view_scan
from repro.query.shard_workers import shutdown_process_backend
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_incremental.json"

BACKENDS = ("thread", "process")
N_SHARDS = 4
#: Large enough that the per-scan numpy kernel time is measurable.
#: Both backends are forced: ``auto`` never selects the process pool.
VIEW_ROWS = 200_000
#: Appended suffix sizes, as fractions of the original view.
DELTA_FRACTIONS = (0.01, 0.05)
#: The acceptance bar: warm speedup at deltas <= 5% of the view.
MIN_WARM_SPEEDUP = 5.0

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))


def _view_def() -> JoinViewDefinition:
    return JoinViewDefinition(
        name="bench",
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


def _dashboard(vd: JoinViewDefinition) -> LogicalQuery:
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        AggregateSpec.avg_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (0, 1, 2, 3)),
    )


def _random_table(gen, n_rows: int, schema: Schema) -> SharedTable:
    rows = gen.integers(0, 8, size=(n_rows, schema.width)).astype(np.uint32)
    flags = gen.integers(0, 2, size=n_rows).astype(np.uint32)
    return SharedTable.from_plain(schema, rows, flags, spawn(5, "inc", n_rows))


def _fixed_view(gen) -> MaterializedView:
    vd = _view_def()
    view = MaterializedView(vd.view_schema, n_shards=N_SHARDS)
    view.append(
        _random_table(gen, VIEW_ROWS, vd.view_schema), count_as_update=False
    )
    return view


def _timed_scan(executor, runtime, view, plan, cache):
    t0 = _time.perf_counter()
    answer, sim_seconds, report = executor.execute_detailed(
        runtime, 0, view, plan, cache
    )
    return answer, sim_seconds, report, _time.perf_counter() - t0


def _engine_records() -> list[dict]:
    vd = _view_def()
    plan = lower_to_view_scan(_dashboard(vd), vd)
    records = []
    try:
        for backend in BACKENDS:
            executor = ParallelScanExecutor(backend=backend)
            for fraction in DELTA_FRACTIONS:
                gen = np.random.default_rng(42)
                view = _fixed_view(gen)
                cache = AccumulatorCache()
                runtime = MPCRuntime(seed=0)
                # Warm-up (publishes shared memory / spawns the pool),
                # then the cold scan that populates the cache.
                executor.execute_detailed(runtime, 0, view, plan, None)
                _, cold_sim, cold_rep, cold_host = _timed_scan(
                    executor, runtime, view, plan, cache
                )

                delta_rows = int(VIEW_ROWS * fraction)
                view.append(
                    _random_table(gen, delta_rows, vd.view_schema),
                    count_as_update=False,
                )

                warm_answer, warm_sim, warm_rep, warm_host = _timed_scan(
                    executor, runtime, view, plan, cache
                )
                # Cold rescan of the identically grown view (no cache).
                ref_answer, ref_sim, ref_rep, ref_host = _timed_scan(
                    executor, MPCRuntime(seed=0), view, plan, None
                )

                records.append(
                    {
                        "backend": backend,
                        "resolved_backend": executor.backend_for(view),
                        "n_shards": N_SHARDS,
                        "view_rows": VIEW_ROWS,
                        "delta_fraction": fraction,
                        "delta_rows": delta_rows,
                        "cold_gates": ref_rep.gates,
                        "warm_gates": warm_rep.gates,
                        "warm_saved_gates": warm_rep.saved_gates,
                        "cold_simulated_seconds": ref_sim,
                        "warm_simulated_seconds": warm_sim,
                        "warm_speedup_simulated": ref_rep.gates
                        / warm_rep.gates,
                        "cold_host_seconds": ref_host,
                        "warm_host_seconds": warm_host,
                        "warm_host_speedup": ref_host / warm_host,
                        "answers_match_cold": warm_answer == ref_answer,
                        "per_row_gates": cold_rep.gates // cold_rep.total_rows,
                        "warm_mode": warm_rep.mode,
                        "warm_delta_rows_reported": warm_rep.delta_rows,
                    }
                )
    finally:
        shutdown_process_backend()
    return records


def _database_hit_rates() -> dict:
    """Dashboard-style repeat mix against a small live deployment."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )

    config = MultiViewRunConfig(
        dataset="tpcds", n_steps=12, seed=13, query_every=12
    )
    deployment = build_multiview_deployment(config)
    db = deployment.database
    for step in deployment.workload.steps:
        db.upload(step.time, deployment.upload_items(step))
        db.step(step.time)
    vd = deployment.workload.view_def
    t = deployment.workload.steps[-1].time
    mix = [
        _dashboard_for(vd),
        LogicalQuery.for_view(vd, AggregateSpec.count()),
    ]
    for _ in range(20):
        for q in mix:
            db.query(q, t)
    return {
        "accumulator_cache": db.incremental_cache_stats(),
        "plan_cache_hit_rate": db.planner.hit_rate,
    }


def _dashboard_for(vd: JoinViewDefinition) -> LogicalQuery:
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of(vd.driver_table, vd.driver_ts),
        AggregateSpec.avg_of(vd.driver_table, vd.driver_ts),
    )


def _run_incremental() -> dict:
    records = _engine_records()
    db_rates = _database_hit_rates()
    return {
        "benchmark": "incremental_query",
        "view_rows": VIEW_ROWS,
        "n_shards": N_SHARDS,
        "delta_fractions": list(DELTA_FRACTIONS),
        "records": records,
        # Headline: warm speedup at the largest delta fraction <= 5%.
        "warm_speedup_at_5pct": min(
            r["warm_speedup_simulated"]
            for r in records
            if r["delta_fraction"] <= 0.05
        ),
        **db_rates,
    }


def test_bench_incremental_query(benchmark, record_bench):
    result = benchmark.pedantic(_run_incremental, rounds=1, iterations=1)

    for record in result["records"]:
        # Warm scans are byte-identical to a cold rescan of the same
        # grown view, on both backends.
        assert record["answers_match_cold"], record
        assert record["warm_mode"] == "warm", record
        # The warm gate bill is exactly the suffix: delta_rows times the
        # flat per-row rate — O(delta), not O(n).
        assert record["warm_delta_rows_reported"] == record["delta_rows"]
        assert (
            record["warm_gates"]
            == record["per_row_gates"] * record["delta_rows"]
        ), record
        # And the skipped prefix is fully accounted as savings.
        assert (
            record["warm_gates"] + record["warm_saved_gates"]
            == record["cold_gates"]
        ), record

    # The acceptance bar: >= 5x simulated speedup whenever the delta is
    # <= 5% of the view rows.
    assert result["warm_speedup_at_5pct"] >= MIN_WARM_SPEEDUP

    # The repeated dashboard mix keeps both caches hot.
    assert result["accumulator_cache"]["hit_rate"] > 0.5
    assert result["plan_cache_hit_rate"] > 0.5

    note = record_bench(BENCH_PATH, result)

    lines = [
        f"incremental execution baseline ({result['view_rows']} view rows, "
        f"{result['n_shards']} shards)"
    ]
    for r in result["records"]:
        lines.append(
            f"  {r['backend']:>7} delta {r['delta_fraction']:>4.0%}: "
            f"{r['cold_gates']} cold -> {r['warm_gates']} warm gates "
            f"({r['warm_speedup_simulated']:.1f}x simulated, "
            f"{r['warm_host_speedup']:.1f}x host), answers identical: "
            f"{r['answers_match_cold']}"
        )
    lines.append(
        f"  accumulator cache: {result['accumulator_cache']}; "
        f"plan cache hit rate {result['plan_cache_hit_rate']:.2f}"
    )
    lines.append(f"  -> {note}")
    emit("\n".join(lines))
