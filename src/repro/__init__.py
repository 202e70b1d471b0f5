"""IncShrink reproduction (SIGMOD 2022).

A view-based secure outsourced growing database built from incremental
MPC (Transform-and-Shrink) and differential privacy, together with every
substrate it needs — XOR secret sharing, a simulated gate-costed 2PC
runtime, oblivious operators, DP mechanisms — and the paper's complete
evaluation harness.

Everything is one deployment shape (§2.2, Fig. 1): an
:class:`IncShrinkDatabase` hosts one or more materialized join views,
each declared by a :class:`ViewRegistration` (definition, Shrink policy
and its knobs); owners ``upload`` padded batches, the servers ``step``
Transform → Shrink → flush, and every ``query`` — a
:class:`LogicalQuery` — goes through one planner and one oblivious scan.
The paper's single-view deployment is the one-view case::

    from repro import IncShrinkDatabase, LogicalQuery, ViewRegistration
    from repro.workload import make_tpcds_workload

    wl = make_tpcds_workload(seed=1, n_steps=60)
    vd = wl.view_def
    db = IncShrinkDatabase(total_epsilon=1.5)
    db.register_view(ViewRegistration(vd, mode="dp-timer"))
    for step in wl.steps:
        db.upload(step.time, {vd.probe_table: step.probe,
                              vd.driver_table: step.driver})
        db.step(step.time)
        print(db.query(LogicalQuery.for_view(vd), step.time).observation)

:class:`DatabaseServer` serves a database concurrently and
:class:`NetworkServer` over TCP; :func:`run_experiment` replays the
paper's experiments on the same API.
"""

from ._lazy import lazy_exports

__version__ = "1.5.0"

__all__ = [
    "MetricSummary",
    "QueryObservation",
    "RecordBatch",
    "Schema",
    "JoinViewDefinition",
    "SDPANT",
    "SDPTimer",
    "MultiViewRunConfig",
    "MultiViewRunResult",
    "RunConfig",
    "RunResult",
    "run_experiment",
    "run_multiview_experiment",
    "CostModel",
    "MPCRuntime",
    "IncShrinkClient",
    "NetworkServer",
    "RemoteQueryResult",
    "AggregateSpec",
    "GroupBySpec",
    "LogicalQuery",
    "QueryAnswer",
    "DatabaseServer",
    "IncShrinkDatabase",
    "ReadSession",
    "ViewRegistration",
    "restore_database",
    "snapshot_database",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common.metrics": ("MetricSummary", "QueryObservation"),
    ".common.types": ("RecordBatch", "Schema"),
    ".core.view_def": ("JoinViewDefinition",),
    ".core.shrink_ant": ("SDPANT",),
    ".core.shrink_timer": ("SDPTimer",),
    ".experiments.harness": (
        "MultiViewRunConfig",
        "MultiViewRunResult",
        "RunConfig",
        "RunResult",
        "run_experiment",
        "run_multiview_experiment",
    ),
    ".mpc.cost_model": ("CostModel",),
    ".mpc.runtime": ("MPCRuntime",),
    ".net.client": ("IncShrinkClient",),
    ".net.server": ("NetworkServer",),
    ".net.protocol": ("RemoteQueryResult",),
    ".query.ast": ("AggregateSpec", "GroupBySpec", "LogicalQuery", "QueryAnswer"),
    ".server.database": ("IncShrinkDatabase", "ViewRegistration"),
    ".server.runtime": ("DatabaseServer", "ReadSession"),
    ".server.persistence": ("restore_database", "snapshot_database"),
})
