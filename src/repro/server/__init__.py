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

from ..storage.chain import SNAPSHOT_MAGIC, SNAPSHOT_VERSION
from .database import (
    DP_MODES,
    MODES,
    DatabaseQueryResult,
    IncShrinkDatabase,
    ViewRegistration,
    ViewRuntime,
)
from .persistence import (
    RestoredDatabase,
    SnapshotInfo,
    restore_database,
    snapshot_database,
)
from .planner import DatabasePlanner
from .runtime import (
    DatabaseServer,
    DrainTimeout,
    ReadSession,
    ReadWriteLock,
    ServingStats,
    WouldBlock,
)
from .scheduler import (
    DatabaseStepReport,
    StepReport,
    StepScheduler,
    TransformGroup,
    transform_signature,
)

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
