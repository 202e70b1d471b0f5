"""Micro-benchmarks of the multi-view query planner.

Two claims the multi-view refactor rests on:

1. routing is *free* relative to serving — planning a query costs
   orders of magnitude less wall-clock than the single padded view scan
   it picks, so a planner in front of every query adds no measurable
   latency;
2. routing is *faithful* — whenever the gate-cost model says the view
   scan (resp. NM join) is cheaper, the planner picks it, and the
   simulated execution times agree with that ranking.
"""

import time as _time

import numpy as np
import pytest

from repro.common.rng import spawn
from repro.common.types import Schema
from repro.core.view_def import JoinViewDefinition
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import LogicalQuery
from repro.query.executor import execute_nm_query
from repro.query.parallel import ParallelScanExecutor
from repro.query.planner import NM_JOIN, VIEW_SCAN, ViewCandidate, plan_query
from repro.query.rewrite import lower_to_view_scan
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView
from repro.storage.outsourced_table import OutsourcedTable

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))


def _view_def(name: str) -> JoinViewDefinition:
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
        omega=1,
        budget=10,
    )


def _count_query() -> LogicalQuery:
    return LogicalQuery.for_view(_view_def("any"))


def _materialized_view(vd: JoinViewDefinition, n_rows: int) -> MaterializedView:
    view = MaterializedView(vd.view_schema)
    gen = spawn(0, "plan-bench", n_rows)
    rows = gen.integers(0, 50, size=(n_rows, vd.view_schema.width)).astype(np.uint32)
    flags = (gen.random(n_rows) < 0.3).astype(np.uint32)
    view.append(SharedTable.from_plain(vd.view_schema, rows, flags, gen))
    return view


def _store(schema: Schema, name: str, n_rows: int, seed: int) -> OutsourcedTable:
    store = OutsourcedTable(schema, name)
    gen = spawn(seed, "plan-bench-store", n_rows)
    rows = gen.integers(0, 50, size=(n_rows, 2)).astype(np.uint32)
    flags = np.ones(n_rows, dtype=np.uint32)
    store.append_batch(SharedTable.from_plain(schema, rows, flags, gen), 1)
    return store


def test_bench_planner_routing_overhead(benchmark):
    """Planning must be negligible next to the view scan it routes to."""
    vd = _view_def("hot")
    candidates = [
        ViewCandidate(_view_def("hot"), 4096),
        ViewCandidate(_view_def("warm"), 8192),
        ViewCandidate(_view_def("cold"), 16384),
    ]
    model = MPCRuntime(seed=0).cost_model
    query = _count_query()

    plan = benchmark(
        plan_query, query, candidates, 50_000, 50_000, model, True, 1.0
    )
    assert plan.kind == VIEW_SCAN
    assert plan.view_name == "hot"

    # Wall-clock the single view scan the plan chose (4096 padded slots).
    runtime = MPCRuntime(seed=0)
    view = _materialized_view(vd, 4096)
    t0 = _time.perf_counter()
    ParallelScanExecutor().execute(runtime, 1, view, plan.view_query)
    scan_wall = _time.perf_counter() - t0

    planner_wall = benchmark.stats.stats.median
    assert planner_wall < scan_wall, (
        f"planner median {planner_wall * 1e6:.1f}µs should be well under one "
        f"view scan ({scan_wall * 1e6:.1f}µs)"
    )


@pytest.mark.parametrize(
    "view_rows,store_rows,expected",
    [(128, 2048, VIEW_SCAN), (65536, 64, NM_JOIN)],
)
def test_planner_agrees_with_simulated_execution(view_rows, store_rows, expected):
    """Whenever the cost model ranks one path cheaper, the planner picks
    it — and actually executing both paths confirms the ranking."""
    vd = _view_def("v")
    runtime = MPCRuntime(seed=1)
    query = _count_query()
    plan = plan_query(
        query,
        [ViewCandidate(vd, view_rows)],
        store_rows,
        store_rows,
        runtime.cost_model,
    )
    assert plan.kind == expected

    view = _materialized_view(vd, view_rows)
    probe_store = _store(PROBE_SCHEMA, "orders", store_rows, seed=2)
    driver_store = _store(DRIVER_SCHEMA, "shipments", store_rows, seed=3)
    _, scan_seconds = ParallelScanExecutor().execute(
        runtime, 1, view, lower_to_view_scan(query, vd)
    )
    _, nm_seconds = execute_nm_query(
        runtime, 1, probe_store, driver_store, vd, query
    )
    simulated_winner = VIEW_SCAN if scan_seconds <= nm_seconds else NM_JOIN
    assert simulated_winner == expected
