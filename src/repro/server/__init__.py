"""Server layer: the multi-view IncShrink database and its runtime.

Hosts N materialized join views over shared outsourced base tables,
schedules one Transform per shared table pair per step, routes logical
queries through a cost-based planner, and composes privacy across views
through a single accountant.  On top of the passive database sit the
serving runtime (:class:`DatabaseServer` — background ingestion,
concurrent read sessions) and the persistence layer
(:func:`snapshot_database` / :func:`restore_database` — a directory
of hash-chained files per checkpoint, resumed byte-identically).
"""

from .._lazy import lazy_exports

__all__ = [
    "DP_MODES",
    "MODES",
    "DatabaseQueryResult",
    "IncShrinkDatabase",
    "ViewRegistration",
    "ViewRuntime",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "RestoredDatabase",
    "SnapshotInfo",
    "restore_database",
    "snapshot_database",
    "DatabasePlanner",
    "DatabaseServer",
    "DrainTimeout",
    "ReadSession",
    "ReadWriteLock",
    "ServingStats",
    "WouldBlock",
    "DatabaseStepReport",
    "StepReport",
    "StepScheduler",
    "TransformGroup",
    "transform_signature",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "..storage.chain": ("SNAPSHOT_MAGIC", "SNAPSHOT_VERSION"),
    ".database": (
        "DP_MODES",
        "MODES",
        "DatabaseQueryResult",
        "IncShrinkDatabase",
        "ViewRegistration",
        "ViewRuntime",
    ),
    ".persistence": (
        "RestoredDatabase",
        "SnapshotInfo",
        "restore_database",
        "snapshot_database",
    ),
    ".planner": ("DatabasePlanner",),
    ".runtime": (
        "DatabaseServer",
        "DrainTimeout",
        "ReadSession",
        "ReadWriteLock",
        "ServingStats",
        "WouldBlock",
    ),
    ".scheduler": (
        "DatabaseStepReport",
        "StepReport",
        "StepScheduler",
        "TransformGroup",
        "transform_signature",
    ),
})
