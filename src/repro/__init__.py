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

from .common import MetricSummary, QueryObservation, RecordBatch, Schema
from .core import JoinViewDefinition, SDPANT, SDPTimer
from .experiments.harness import (
    MultiViewRunConfig,
    MultiViewRunResult,
    RunConfig,
    RunResult,
    run_experiment,
    run_multiview_experiment,
)
from .mpc import CostModel, MPCRuntime
from .net import IncShrinkClient, NetworkServer, RemoteQueryResult
from .query import (
    AggregateSpec,
    GroupBySpec,
    LogicalQuery,
    QueryAnswer,
)
from .server import (
    DatabaseServer,
    IncShrinkDatabase,
    ReadSession,
    ViewRegistration,
    restore_database,
    snapshot_database,
)

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
