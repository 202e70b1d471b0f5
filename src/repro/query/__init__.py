"""Query layer: the logical AST, logical→view lowering, planning, execution."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ast": (
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
    ),
    ".executor": ("aggregate_plain", "execute_nm_query"),
    ".parallel": ("ParallelScanExecutor",),
    ".planner": (
        "NM_JOIN",
        "VIEW_SCAN",
        "QueryPlan",
        "ViewCandidate",
        "multi_scan_gates",
        "plan_query",
    ),
    ".rewrite": ("can_answer", "lower_to_view_scan"),
})
