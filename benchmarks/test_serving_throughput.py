"""Serving-runtime throughput baseline — the repo's first perf trajectory.

Unlike the table/figure benchmarks (which reproduce *simulated* paper
numbers), this one measures the **wall clock** of the serving runtime
itself: how fast the background ingestion loop advances the stream while
concurrent read sessions query, and how long a full snapshot/restore
cycle takes.  Under ``--benchmark-only`` the measured rates are written
to ``BENCH_serving.json`` at the repo root so future PRs optimizing the
hot paths have a recorded baseline to beat.

Correctness is asserted alongside the timing: the database restored
from the mid-run snapshot must answer the registered queries with the
byte-identical values and report the byte-identical realized ε — the
no-double-spend acceptance criterion of the persistence layer.
"""

from __future__ import annotations

import json
import math
import threading
import time as _time
from pathlib import Path

from conftest import emit

from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.server.persistence import restore_database
from repro.server.runtime import DatabaseServer

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

DATASET = "tpcds"
N_STEPS = 32
CLIENTS = 3
QUERY_EVERY = 4


def _run_serving(tmp_path: Path) -> dict:
    config = MultiViewRunConfig(
        dataset=DATASET, n_steps=N_STEPS, seed=11, query_every=QUERY_EVERY
    )
    deployment = build_multiview_deployment(config)
    snapshot_path = str(tmp_path / "serving-bench.snap")
    server = DatabaseServer(deployment.database, snapshot_path=snapshot_path)
    server.start()

    stop = threading.Event()
    client_errors: list[BaseException] = []

    def client_loop(session):
        try:
            while not stop.is_set():
                if server.last_time:
                    for query in deployment.step_queries:
                        # time=None binds the watermark under the read lock
                        session.query(query, time=None)
                stop.wait(0.0005)
        except BaseException as exc:
            client_errors.append(exc)

    threads = [
        threading.Thread(
            target=client_loop, args=(server.session(f"bench-{i}"),), daemon=True
        )
        for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for step in deployment.workload.steps:
        server.submit(step.time, deployment.upload_items(step))
    server.drain()
    stop.set()
    for t in threads:
        t.join()
    assert not client_errors, client_errors

    # Snapshot + restore latency, with the equivalence check inline.
    t0 = _time.perf_counter()
    info = server.snapshot()
    snapshot_seconds = _time.perf_counter() - t0

    t0 = _time.perf_counter()
    restored = restore_database(snapshot_path)
    restore_seconds = _time.perf_counter() - t0

    db = server.database
    final_time = server.last_time
    original = [
        db.query(q, final_time).answer for q in deployment.step_queries
    ]
    recovered = [
        restored.database.query(q, final_time).answer
        for q in deployment.step_queries
    ]
    assert recovered == original, "restored answers must be byte-identical"
    assert restored.database.realized_epsilon() == db.realized_epsilon()

    # The same observability surface the network `stats` frame serves
    # (ServingStats.to_dict() + watermark, shard count, realized ε).
    observability = server.observability()
    server.stop()
    stats = server.stats
    return {
        "benchmark": "serving_throughput",
        "dataset": DATASET,
        "steps": N_STEPS,
        "clients": CLIENTS,
        "uploads": stats.uploads,
        "queries": stats.queries,
        "uploads_per_second": stats.uploads_per_second(),
        "queries_per_second": stats.queries_per_second(),
        "snapshot_seconds": snapshot_seconds,
        "restore_seconds": restore_seconds,
        "snapshot_bytes": info.bytes_written,
        "realized_epsilon": db.realized_epsilon(),
        "observability": observability,
    }


def test_bench_serving_throughput(benchmark, tmp_path, record_bench):
    result = benchmark.pedantic(
        _run_serving, args=(tmp_path,), rounds=1, iterations=1
    )

    # A serving runtime that cannot outpace one upload per simulated step
    # per second would be useless; these floors are loose sanity bounds,
    # not targets (the recorded JSON is the real trajectory).
    assert result["uploads_per_second"] > 1.0
    assert result["queries_per_second"] > 1.0
    assert result["queries"] >= CLIENTS  # every session got answers
    assert result["snapshot_seconds"] < 60.0
    assert result["restore_seconds"] < 60.0
    # One observability contract across surfaces: the recorded gauges
    # are exactly what the network `stats` frame reports.
    for key in ("queue_depth", "queue_capacity", "shard_rows", "query_epsilon"):
        assert key in result["observability"]
    assert result["observability"]["last_time"] == N_STEPS

    note = record_bench(BENCH_PATH, result)

    emit(
        "serving throughput baseline (wall clock)\n"
        f"  ingestion : {result['uploads']} uploads in total, "
        f"{result['uploads_per_second']:.1f} uploads/s\n"
        f"  queries   : {result['queries']} answered across {CLIENTS} "
        f"sessions, {result['queries_per_second']:.1f} queries/s\n"
        f"  snapshot  : {result['snapshot_bytes']} bytes in "
        f"{result['snapshot_seconds']*1000:.1f} ms\n"
        f"  restore   : {result['restore_seconds']*1000:.1f} ms "
        "(byte-identical answers + realized epsilon verified)\n"
        f"  -> {note}"
    )


# -- multi-tenant serving scenario ---------------------------------------------
TENANT_WEIGHTS = {"heavy": 8, "steady": 4, "light": 2, "rare": 1}
QUERY_EPSILON = 0.01


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _run_multi_tenant(tmp_path: Path) -> dict:
    from repro.net import protocol as wire
    from repro.net.client import IncShrinkClient
    from repro.net.server import NetworkServer
    from repro.tenancy import Tenant, TenantRegistry

    config = MultiViewRunConfig(
        dataset=DATASET, n_steps=16, seed=11, query_every=QUERY_EVERY
    )
    deployment = build_multiview_deployment(config)
    server = DatabaseServer(deployment.database)
    server.start()
    for step in deployment.workload.steps:
        server.submit(step.time, deployment.upload_items(step))
    server.drain()

    # Every analyst gets exactly the budget its skewed traffic needs;
    # "rare" gets one query less than it will ask for, so the scenario
    # also exercises a live budget-exhausted refusal under load.
    rounds = 6
    budgets = {
        tid: weight * rounds * QUERY_EPSILON
        for tid, weight in TENANT_WEIGHTS.items()
    }
    budgets["rare"] -= QUERY_EPSILON
    registry = TenantRegistry(
        [
            Tenant(tid, f"{tid}-token", role="analyst", epsilon_budget=budgets[tid])
            for tid in TENANT_WEIGHTS
        ]
    )
    latencies: dict[str, list[float]] = {tid: [] for tid in TENANT_WEIGHTS}
    refused: dict[str, int] = {tid: 0 for tid in TENANT_WEIGHTS}
    errors: list[BaseException] = []

    with NetworkServer(server, registry=registry) as net:
        host, port = net.address

        def analyst_loop(tid: str) -> None:
            try:
                with IncShrinkClient(
                    host, port, tenant=tid, token=f"{tid}-token"
                ) as client:
                    query = deployment.step_queries[0]
                    for _ in range(TENANT_WEIGHTS[tid] * rounds):
                        t0 = _time.perf_counter()
                        try:
                            client.query(query, epsilon=QUERY_EPSILON)
                        except wire.RemoteError as exc:
                            if exc.code != wire.ERR_BUDGET_EXHAUSTED:
                                raise
                            refused[tid] += 1
                        latencies[tid].append(_time.perf_counter() - t0)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=analyst_loop, args=(tid,), daemon=True)
            for tid in TENANT_WEIGHTS
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledgers = net.server.database.tenant_epsilons()
        global_spend = net.server.database.query_epsilon()
    server.stop()
    assert not errors, errors

    per_tenant = {
        tid: {
            "queries": len(latencies[tid]),
            "refused": refused[tid],
            "epsilon_spent": ledgers.get(tid, 0.0),
            "epsilon_budget": budgets[tid],
            "p50_ms": _percentile(latencies[tid], 0.50) * 1000,
            "p95_ms": _percentile(latencies[tid], 0.95) * 1000,
        }
        for tid in TENANT_WEIGHTS
    }
    return {
        "benchmark": "multi_tenant_serving",
        "dataset": DATASET,
        "tenants": len(TENANT_WEIGHTS),
        "weights": dict(TENANT_WEIGHTS),
        "rounds": rounds,
        "query_epsilon": QUERY_EPSILON,
        "global_query_epsilon": global_spend,
        "ledger_sum": sum(ledgers.values()),
        "per_tenant": per_tenant,
    }


def test_bench_multi_tenant_serving(benchmark, tmp_path, record_bench):
    result = benchmark.pedantic(
        _run_multi_tenant, args=(tmp_path,), rounds=1, iterations=1
    )
    per_tenant = result["per_tenant"]

    # Skewed traffic really is skewed: the heavy tenant asked for 8x
    # the rare tenant's load, and everyone got answers.
    assert per_tenant["heavy"]["queries"] == 8 * result["rounds"]
    assert per_tenant["rare"]["queries"] == 1 * result["rounds"]
    for tid, entry in per_tenant.items():
        assert entry["p50_ms"] > 0
        assert entry["p95_ms"] >= entry["p50_ms"]

    # ε isolation: each ledger holds precisely what its tenant released
    # (refused queries spent nothing) — compared in the ledger's own
    # accumulation order, so equality is bitwise, not approximate — and
    # the ledgers sum to the global query spend (up to float
    # re-association across tenants): attribution never distorts
    # composition.
    for tid, entry in per_tenant.items():
        served = entry["queries"] - entry["refused"]
        assert entry["epsilon_spent"] == sum(
            [result["query_epsilon"]] * served
        )
        assert entry["epsilon_spent"] <= entry["epsilon_budget"] + 1e-9
    assert math.isclose(
        result["ledger_sum"], result["global_query_epsilon"],
        rel_tol=0.0, abs_tol=1e-9,
    )

    # The under-budgeted tenant hit its cap; nobody else was refused.
    assert per_tenant["rare"]["refused"] == 1
    assert all(
        per_tenant[tid]["refused"] == 0 for tid in ("heavy", "steady", "light")
    )

    # Merge alongside the single-tenant baseline in the recorded JSON.
    doc = {}
    if BENCH_PATH.exists():
        doc = json.loads(BENCH_PATH.read_text(encoding="utf8"))
    if doc.get("benchmark") == "serving_throughput":
        doc = {"serving_throughput": doc}
    doc["multi_tenant"] = result
    note = record_bench(BENCH_PATH, doc)

    lines = [
        "multi-tenant serving (4 analysts, 8:4:2:1 skew, real TCP)",
    ]
    for tid in TENANT_WEIGHTS:
        entry = per_tenant[tid]
        lines.append(
            f"  {tid:<7}: {entry['queries']:>3} queries, "
            f"p50 {entry['p50_ms']:.1f} ms, p95 {entry['p95_ms']:.1f} ms, "
            f"eps {entry['epsilon_spent']:.4f}/{entry['epsilon_budget']:.4f}"
            + (f", {entry['refused']} refused" if entry["refused"] else "")
        )
    lines.append(
        f"  ledgers sum to the global query spend exactly "
        f"({result['ledger_sum']:.4f})\n  -> {note}"
    )
    emit("\n".join(lines))
