"""Query layer: the logical AST, logical→view lowering, planning, execution."""

from .ast import (
    AggregateSpec,
    And,
    ColumnEquals,
    ColumnRange,
    GroupBySpec,
    LogicalJoinQuery,
    LogicalQuery,
    QueryAnswer,
    ScanAggregate,
    ScanClause,
    ViewScanPlan,
    predicate_clauses,
)
from .executor import aggregate_plain, execute_nm_query
from .parallel import ParallelScanExecutor
from .planner import (
    NM_JOIN,
    VIEW_SCAN,
    QueryPlan,
    ViewCandidate,
    multi_scan_gates,
    plan_query,
)
from .rewrite import can_answer, lower_to_view_scan

__all__ = [
    "AggregateSpec",
    "And",
    "ColumnEquals",
    "ColumnRange",
    "GroupBySpec",
    "LogicalJoinQuery",
    "LogicalQuery",
    "QueryAnswer",
    "ScanAggregate",
    "ScanClause",
    "ViewScanPlan",
    "predicate_clauses",
    "aggregate_plain",
    "execute_nm_query",
    "ParallelScanExecutor",
    "NM_JOIN",
    "VIEW_SCAN",
    "QueryPlan",
    "ViewCandidate",
    "multi_scan_gates",
    "plan_query",
    "can_answer",
    "lower_to_view_scan",
]
