"""Shard-scaling baseline of the parallel scan engine — BENCH_shard.json.

Runs the same 3-aggregate GROUP BY dashboard scan over one fixed
synthetic view at 1/2/4/8 shards, under **both** execution backends
(in-process, shard after shard on the calling thread; and the
shared-memory process pool), and records, per (backend, shard count):

* the **simulated wall clock** — the cost model's parallelism-aware
  estimate ``gates / (throughput × effective_workers)``, the number the
  planner prices shard counts with and experiments report as protocol
  runtime (the repo-wide definition of a protocol's wall clock);
* the **simulated throughput** (gates per simulated second) the lanes
  sustain together;
* the **measured host seconds** of the Python simulation itself plus
  the **measured wall-clock speedup vs the 1-shard serial baseline** of
  the same backend.  The view is sized to be genuinely CPU-bound
  (~0.6M rows, tens of milliseconds of numpy kernel per scan) so the
  measured numbers mean something.  The speedup/monotonicity
  *assertions* are gated on the host actually having ≥ 4 usable cores:
  the process backend cannot beat serial on a single-core runner, and
  pretending otherwise would just bake flakiness into CI.  The recorded
  JSON always carries the honest measurements and the ``host_cpus``
  they were taken on;
* the equivalence checks — byte-identical answers and identical gate
  totals at every shard count and backend — which hold **everywhere**,
  single-core hosts included, and are asserted unconditionally.

Plus the snapshot size delta between a 1-shard and a 4-shard deployment
of the same state (the v2 format stores per-shard tables — the delta is
bookkeeping, not data).

The recorded JSON is the regression baseline future PRs must beat (or at
least not quietly lose).
"""

from __future__ import annotations

import tempfile
import time as _time
from pathlib import Path

import numpy as np
from conftest import emit

from repro.common.rng import spawn
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import AggregateSpec, GroupBySpec, LogicalQuery
from repro.query.parallel import ParallelScanExecutor, usable_cpus
from repro.query.rewrite import lower_to_view_scan
from repro.query.shard_workers import shutdown_process_backend
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.server.persistence import snapshot_database
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

SHARD_COUNTS = (1, 2, 4, 8)
BACKENDS = ("thread", "process")
#: Large enough that one scan is milliseconds of numpy kernel time
#: (CPU-bound).  "thread" is the in-process path — inline, so its
#: measured host time does not fall with the shard count; only the
#: simulated wall clock does.  Both backends are forced: ``auto`` never
#: selects the process pool.
VIEW_ROWS = 600_000
WALL_REPEATS = 3
#: Measured-speedup assertions need real cores to be meaningful.
MIN_CPUS_FOR_SPEEDUP_ASSERTS = 4

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


def _fixed_view(n_shards: int) -> MaterializedView:
    """The benchmark view: VIEW_ROWS identical synthetic rows, scattered."""
    vd = _view_def()
    gen = np.random.default_rng(42)
    rows = gen.integers(0, 8, size=(VIEW_ROWS, vd.view_schema.width)).astype(
        np.uint32
    )
    flags = gen.integers(0, 2, size=VIEW_ROWS).astype(np.uint32)
    table = SharedTable.from_plain(vd.view_schema, rows, flags, spawn(5, "bench"))
    view = MaterializedView(vd.view_schema, n_shards=n_shards)
    view.append(table, count_as_update=False)
    return view


def _snapshot_bytes(n_shards: int, tmp_dir: str) -> int:
    """Snapshot one identically-fed deployment at the given shard count."""
    db = IncShrinkDatabase(total_epsilon=100.0, seed=3, n_shards=n_shards)
    db.register_view(ViewRegistration(_view_def(), mode="ep"))
    gen = np.random.default_rng(8)
    for t in (1, 2, 3):
        probe = gen.integers(0, 4, size=(6, 2)).astype(np.uint32)
        driver = gen.integers(0, 4, size=(6, 2)).astype(np.uint32)
        db.upload(
            t,
            {
                "orders": RecordBatch(PROBE_SCHEMA, probe).padded_to(8),
                "shipments": RecordBatch(DRIVER_SCHEMA, driver).padded_to(8),
            },
        )
        db.step(t)
    info = snapshot_database(db, Path(tmp_dir) / f"shards-{n_shards}.snap")
    return info.bytes_written


def _run_shard_scaling() -> dict:
    vd = _view_def()
    plan = lower_to_view_scan(_dashboard(vd), vd)

    records = []
    baseline_answer = None
    baseline_gates = None
    baseline_sim_wall = None
    try:
        for backend in BACKENDS:
            executor = ParallelScanExecutor(backend=backend)
            baseline_measured = None
            for k in SHARD_COUNTS:
                runtime = MPCRuntime(seed=0)
                view = _fixed_view(k)
                # Warm up: publish shared memory / spawn the pool outside
                # the timed region (both are once-per-deployment costs).
                answer, sim_wall = executor.execute(runtime, 0, view, plan)
                t0 = _time.perf_counter()
                for _ in range(WALL_REPEATS):
                    answer, sim_wall = executor.execute(runtime, 0, view, plan)
                measured = (_time.perf_counter() - t0) / WALL_REPEATS
                gates = runtime.runs[-1].gates
                if baseline_answer is None:
                    baseline_answer, baseline_gates, baseline_sim_wall = (
                        answer,
                        gates,
                        sim_wall,
                    )
                if k == 1:
                    baseline_measured = measured
                records.append(
                    {
                        "backend": backend,
                        "resolved_backend": executor.backend_for(view),
                        "n_shards": k,
                        "effective_workers": runtime.cost_model.effective_workers(k),
                        "total_gates": gates,
                        "simulated_wall_seconds": sim_wall,
                        "simulated_throughput_gates_per_s": gates / sim_wall,
                        "measured_host_seconds": measured,
                        "wall_clock_speedup_vs_1_shard": baseline_sim_wall
                        / sim_wall,
                        "measured_wall_clock_speedup_vs_1_shard": baseline_measured
                        / measured,
                        "answers_match_1_shard": answer == baseline_answer,
                        "gates_match_1_shard": gates == baseline_gates,
                        "shard_rows": list(view.shard_lengths()),
                    }
                )
    finally:
        shutdown_process_backend()

    with tempfile.TemporaryDirectory() as tmp_dir:
        snap_1 = _snapshot_bytes(1, tmp_dir)
        snap_4 = _snapshot_bytes(4, tmp_dir)

    by_key = {(r["backend"], r["n_shards"]): r for r in records}
    host_cpus = usable_cpus()
    return {
        "benchmark": "shard_scaling",
        "view_rows": VIEW_ROWS,
        "group_by_cells": 4,
        "aggregates": 3,
        "host_cpus": host_cpus,
        # Too few cores to assert measured speedups: the recorded
        # measured_* numbers are informational only on this host, and the
        # speedup/monotonicity asserts below were skipped.  Baseline
        # comparisons should not treat degraded-host measurements as a
        # regression (or an improvement) against a full-host baseline.
        "degraded_host": host_cpus < MIN_CPUS_FOR_SPEEDUP_ASSERTS,
        "records": records,
        # Headline: the parallelism-aware wall-clock speedup at 4 shards
        # (the acceptance bar of the sharding refactor: >= 2x).
        "wall_clock_speedup_4_shards": by_key[("thread", 4)][
            "wall_clock_speedup_vs_1_shard"
        ],
        "wall_clock_speedup_8_shards": by_key[("thread", 8)][
            "wall_clock_speedup_vs_1_shard"
        ],
        # Headline of the process backend: the *measured* speedup at 4
        # shards (the acceptance bar of the multi-core backend: >= 2.5x
        # on a host with >= 4 cores).
        "measured_speedup_process_4_shards": by_key[("process", 4)][
            "measured_wall_clock_speedup_vs_1_shard"
        ],
        "snapshot_bytes_1_shard": snap_1,
        "snapshot_bytes_4_shards": snap_4,
        "snapshot_bytes_delta": snap_4 - snap_1,
    }


def test_bench_shard_scaling(benchmark, record_bench):
    result = benchmark.pedantic(_run_shard_scaling, rounds=1, iterations=1)

    # Equivalence at every (backend, shard count): same answers, same
    # total gates.  These hold on any host, single-core included.
    for record in result["records"]:
        assert record["answers_match_1_shard"], record
        assert record["gates_match_1_shard"], record
        shard_rows = record["shard_rows"]
        assert sum(shard_rows) == result["view_rows"]
        assert max(shard_rows) - min(shard_rows) <= 1
        # Simulated seconds are backend-independent by construction.
        thread_twin = next(
            r
            for r in result["records"]
            if r["backend"] == "thread" and r["n_shards"] == record["n_shards"]
        )
        assert record["simulated_wall_seconds"] == thread_twin[
            "simulated_wall_seconds"
        ]

    # The acceptance bar of the sharding refactor: >= 2x *simulated*
    # wall-clock speedup at 4 shards over 1 shard on the benchmark view.
    assert result["wall_clock_speedup_4_shards"] >= 2.0
    # Simulated wall clock is monotone non-increasing in the shard count.
    for backend in BACKENDS:
        walls = [
            r["simulated_wall_seconds"]
            for r in result["records"]
            if r["backend"] == backend
        ]
        assert all(a >= b for a, b in zip(walls, walls[1:]))

    # Measured speedups need real cores; on fewer the records stay
    # informational (a single-core host cannot overlap shard scans).
    if result["degraded_host"]:
        import warnings

        warnings.warn(
            f"host has only {result['host_cpus']} usable cpus (< "
            f"{MIN_CPUS_FOR_SPEEDUP_ASSERTS}): measured-speedup assertions "
            "skipped; BENCH_shard.json is marked degraded_host=true",
            stacklevel=1,
        )
    if result["host_cpus"] >= MIN_CPUS_FOR_SPEEDUP_ASSERTS:
        process_walls = [
            r["measured_host_seconds"]
            for r in result["records"]
            if r["backend"] == "process"
            and r["n_shards"] <= result["host_cpus"]
        ]
        assert all(a >= b for a, b in zip(process_walls, process_walls[1:])), (
            "measured host seconds must decrease monotonically with shard "
            f"count under the process backend, got {process_walls}"
        )
        assert result["measured_speedup_process_4_shards"] >= 2.5

    # The per-shard snapshot layout costs bookkeeping, not data: the
    # 4-shard snapshot stays within 25% of the single-shard one.
    assert result["snapshot_bytes_delta"] < 0.25 * result["snapshot_bytes_1_shard"]

    note = record_bench(BENCH_PATH, result)

    lines = [
        "parallel shard-scaling baseline "
        f"({result['view_rows']} view rows, 3 aggregates x 4 groups, "
        f"{result['host_cpus']} host cpus)"
    ]
    for r in result["records"]:
        lines.append(
            f"  {r['backend']:>7} x{r['n_shards']}: "
            f"{r['simulated_wall_seconds']:.4f} s simulated "
            f"({r['wall_clock_speedup_vs_1_shard']:.2f}x), "
            f"{r['measured_host_seconds']*1e3:.1f} ms host "
            f"({r['measured_wall_clock_speedup_vs_1_shard']:.2f}x measured), "
            f"gates+answers identical: "
            f"{r['gates_match_1_shard'] and r['answers_match_1_shard']}"
        )
    lines.append(
        f"  snapshot bytes: {result['snapshot_bytes_1_shard']} (1 shard) -> "
        f"{result['snapshot_bytes_4_shards']} (4 shards, "
        f"delta {result['snapshot_bytes_delta']})"
    )
    lines.append(f"  -> {note}")
    emit("\n".join(lines))
