"""Query-compiler latency baseline — BENCH_query.json.

Extends the perf trajectory started by ``BENCH_serving.json`` with the
query compiler's headline numbers, measured on a tiny multi-view
deployment (the shared harness builder):

* **single-scan amortization** — a 3-aggregate query (COUNT + SUM + AVG)
  answered in one padded view scan vs the same three aggregates issued
  as sequential single-aggregate queries, in both simulated QET (gate
  model, deterministic) and wall clock;
* **ε invariance** — pre-noise querying leaves the realized ε untouched;
* **plan cache** — hit rate over a repeated dashboard-style mix;
* a GROUP BY data point (one scan, all groups).

The recorded JSON is the regression baseline future PRs must beat (or at
least not quietly lose).
"""

from __future__ import annotations

import time as _time
from pathlib import Path

from conftest import emit

from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.query.ast import (
    AggregateSpec,
    GroupBySpec,
    LogicalQuery,
)
from repro.query.planner import VIEW_SCAN

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_query.json"

DATASET = "tpcds"
N_STEPS = 24
WALL_REPEATS = 20


def _build():
    config = MultiViewRunConfig(
        dataset=DATASET, n_steps=N_STEPS, seed=13, query_every=N_STEPS
    )
    deployment = build_multiview_deployment(config)
    for step in deployment.workload.steps:
        deployment.database.upload(step.time, deployment.upload_items(step))
        deployment.database.step(step.time)
    return deployment


def _wall(db, query, time_at) -> float:
    t0 = _time.perf_counter()
    for _ in range(WALL_REPEATS):
        db.query(query, time_at)
    return (_time.perf_counter() - t0) / WALL_REPEATS


def _run_query_latency() -> dict:
    deployment = _build()
    db = deployment.database
    vd = deployment.workload.view_def
    t = deployment.workload.steps[-1].time

    count = AggregateSpec.count()
    total = AggregateSpec.sum_of(vd.driver_table, vd.driver_ts)
    average = AggregateSpec.avg_of(vd.driver_table, vd.driver_ts)
    multi = LogicalQuery.for_view(vd, count, total, average)
    singles = [LogicalQuery.for_view(vd, agg) for agg in (count, total, average)]

    eps_before = db.realized_epsilon()
    multi_result = db.query(multi, t)
    assert multi_result.plan.kind == VIEW_SCAN
    single_results = [db.query(q, t) for q in singles]

    multi_qet = multi_result.observation.qet_seconds
    singles_qet = sum(r.observation.qet_seconds for r in single_results)
    speedup_simulated = singles_qet / multi_qet

    multi_wall = _wall(db, multi, t)
    singles_wall = sum(_wall(db, q, t) for q in singles)
    speedup_wall = singles_wall / multi_wall

    eps_after = db.realized_epsilon()

    # GROUP BY: every group of a small public domain in one scan.
    domain = tuple(range(8))
    grouped = db.query(
        LogicalQuery.for_view(
            vd, count, total, group_by=GroupBySpec(vd.probe_table, vd.probe_key, domain)
        ),
        t,
    )

    # Plan-cache hit rate over a dashboard-style repeated mix.
    db.planner.cache_hits = db.planner.cache_misses = 0
    for _ in range(25):
        for q in (multi, *singles):
            db.query(q, t)
    cache = db.planner.cache_info()
    hit_rate = cache["hits"] / (cache["hits"] + cache["misses"])

    return {
        "benchmark": "query_latency",
        "dataset": DATASET,
        "steps": N_STEPS,
        "aggregates": 3,
        "multi_scan_qet_seconds": multi_qet,
        "sequential_scans_qet_seconds": singles_qet,
        "speedup_simulated": speedup_simulated,
        "multi_scan_wall_seconds": multi_wall,
        "sequential_scans_wall_seconds": singles_wall,
        "speedup_wall": speedup_wall,
        "group_by_cells": len(domain),
        "group_by_qet_seconds": grouped.observation.qet_seconds,
        "plan_cache_hit_rate": hit_rate,
        "realized_epsilon_before_queries": eps_before,
        "realized_epsilon_after_queries": eps_after,
    }


def test_bench_query_latency(benchmark, record_bench):
    result = benchmark.pedantic(_run_query_latency, rounds=1, iterations=1)

    # The acceptance bar of the compiler refactor: one scan computing
    # three aggregates beats three sequential scans by ≥ 1.5× in the
    # deterministic gate model (wall clock is reported alongside).
    assert result["speedup_simulated"] >= 1.5
    assert (
        result["realized_epsilon_after_queries"]
        == result["realized_epsilon_before_queries"]
    ), "pre-noise queries must not move the privacy ledger"
    assert result["plan_cache_hit_rate"] > 0.9

    note = record_bench(BENCH_PATH, result)

    emit(
        "query compiler latency baseline\n"
        f"  3-aggregate single scan : {result['multi_scan_qet_seconds']:.6f} s QET "
        f"(simulated), {result['multi_scan_wall_seconds']*1e3:.2f} ms wall\n"
        f"  3 sequential scans      : {result['sequential_scans_qet_seconds']:.6f} s "
        f"QET, {result['sequential_scans_wall_seconds']*1e3:.2f} ms wall\n"
        f"  speedup                 : {result['speedup_simulated']:.2f}x simulated, "
        f"{result['speedup_wall']:.2f}x wall\n"
        f"  GROUP BY ({result['group_by_cells']} cells)      : "
        f"{result['group_by_qet_seconds']:.6f} s QET in one scan\n"
        f"  plan cache hit rate     : {result['plan_cache_hit_rate']:.2%}\n"
        f"  -> {note}"
    )
