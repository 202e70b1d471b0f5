"""Sharded serving: a 4-shard database through its full life cycle.

Drives a 4-shard :class:`~repro.server.runtime.DatabaseServer` through

1. **ingest** — owners stream padded batches into the background loop;
   every view places its rows round-robin across 4 shards;
2. **checkpoint** — a mid-stream snapshot (format v2) captures the shard
   layout alongside shares, ledgers, and RNG streams;
3. **resume** — a second server restores from the snapshot and continues
   the remaining stream exactly where the first stopped;
4. **parallel query** — read sessions answer a 3-aggregate GROUP BY
   dashboard query, executed one shard per worker thread and priced at
   1/4 of the serial wall clock by the cost model.

Run:  PYTHONPATH=src python examples/sharded_serving.py
"""

import tempfile
from pathlib import Path

from repro.experiments.harness import (
    MultiViewRunConfig,
    build_multiview_deployment,
)
from repro.query.ast import AggregateSpec, LogicalQuery
from repro.server.runtime import DatabaseServer

N_SHARDS = 4
N_STEPS = 32
STOP_AFTER = 16  # checkpoint boundary: the resume continues from here


def dashboard_query(deployment) -> LogicalQuery:
    """COUNT + SUM + AVG over the canonical join — one parallel scan."""
    vd = deployment.workload.view_def
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of(vd.driver_table, vd.driver_ts),
        AggregateSpec.avg_of(vd.driver_table, vd.driver_ts),
    )


def feed(server, deployment, steps) -> None:
    for step in steps:
        server.submit(step.time, deployment.upload_items(step))
    server.drain()


def shard_report(db) -> str:
    return "\n".join(
        f"    {name:<22} {vr.mode:<9} shards={vr.view.shard_lengths()}"
        for name, vr in db.views.items()
    )


def main() -> None:
    snapshot = Path(tempfile.mkdtemp()) / "sharded.snap"
    config = MultiViewRunConfig(
        dataset="tpcds", n_steps=N_STEPS, seed=11, n_shards=N_SHARDS
    )
    deployment = build_multiview_deployment(config)

    # 1. ingest the first half of the stream through the background loop
    server = DatabaseServer(deployment.database, snapshot_path=str(snapshot))
    server.metadata["example"] = "sharded_serving"
    server.start()
    first_half = [s for s in deployment.workload.steps if s.time <= STOP_AFTER]
    feed(server, deployment, first_half)
    print(f"ingested {server.last_time}/{N_STEPS} steps into {N_SHARDS} shards:")
    print(shard_report(server.database))

    # 2. checkpoint at a step boundary and stop (simulating a restart)
    server.stop(final_snapshot=True)
    print(f"\ncheckpointed to {snapshot.name} "
          f"(a {server.stats.last_snapshot_kind} of "
          f"{server.stats.last_snapshot_bytes} bytes; it carries "
          f"n_shards={server.database.n_shards})")

    # 3. resume in a "fresh process" and continue the stream
    resumed = DatabaseServer.resume(str(snapshot))
    resumed.start()
    rest = [
        s for s in deployment.workload.steps if s.time > resumed.last_time
    ]
    feed(resumed, deployment, rest)
    db = resumed.database
    print(f"\nresumed from step {STOP_AFTER}, ingested through "
          f"{resumed.last_time}; layout survived: n_shards={db.n_shards}")

    # 4. parallel queries from concurrent read sessions
    query = dashboard_query(deployment)
    sessions = [resumed.session(f"analyst-{i}") for i in range(2)]
    results = [s.query(query) for s in sessions]
    result = results[0]
    assert all(r.answers == result.answers for r in results)
    workers = db.runtime.cost_model.effective_workers(db.n_shards)
    print(f"\ndashboard query: plan={result.plan.kind} -> "
          f"{result.plan.view_name} x {result.plan.n_shards} shards")
    print(f"  columns : {result.answers.columns}")
    print(f"  answers : {result.answers.rows[0]}")
    print(f"  truth   : {result.logical_answers.rows[0]}")
    print(f"  QET     : {result.observation.qet_seconds:.4f} s simulated "
          f"({workers} parallel lanes; a 1-shard deployment would take "
          f"{result.observation.qet_seconds * workers:.4f} s)")
    print(f"  realized epsilon: {db.realized_epsilon():.4f} "
          f"<= {config.total_epsilon} (unchanged by sharding)")

    resumed.stop()


if __name__ == "__main__":
    main()
