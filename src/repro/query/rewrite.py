"""Logical-to-view query rewriting (the paper's q̃_t from q_t).

IncShrink registers a view per *pre-specified* query class; an incoming
logical query is answerable from a view exactly when its join structure
(tables, keys, timestamp window) matches the view definition.  The
rewriter checks that match and **lowers** the
:class:`~repro.query.ast.LogicalQuery` to one
:class:`~repro.query.ast.ViewScanPlan` — every aggregate resolved onto
its prefixed view column, the GROUP BY key and residual predicate
likewise — so the executor can answer everything in a single padded
scan.  A mismatch is an error — the paper's framework does not fall back
to NM silently.  Cost-based routing across many registered views (with
an explicit NM fallback) lives one layer up, in
:mod:`repro.query.planner` and :mod:`repro.server.planner`.
"""

from __future__ import annotations

from functools import lru_cache

from ..common.errors import SchemaError
from ..core.view_def import JoinViewDefinition
from .ast import (
    LogicalQuery,
    ScanAggregate,
    ScanClause,
    ViewScanPlan,
    predicate_clauses,
)


def can_answer(query: LogicalQuery, view: JoinViewDefinition) -> bool:
    """Whether ``view`` materializes exactly ``query``'s join."""
    join = query.join
    return (
        join.probe_table == view.probe_table
        and join.driver_table == view.driver_table
        and join.probe_key == view.probe_key
        and join.driver_key == view.driver_key
        and join.probe_ts == view.probe_ts
        and join.driver_ts == view.driver_ts
        and join.window_lo == view.window_lo
        and join.window_hi == view.window_hi
    )


def view_column(table: str, column: str, view: JoinViewDefinition) -> str:
    """Map one logical ``table.column`` onto its prefixed view column."""
    if table == view.probe_table:
        name = f"p_{column}"
    elif table == view.driver_table:
        name = f"d_{column}"
    else:
        raise SchemaError(
            f"table {table!r} is neither side of the join "
            f"({view.probe_table} ⋈ {view.driver_table})"
        )
    view.view_schema.index(name)  # raises SchemaError if absent
    return name


@lru_cache(maxsize=4096)
def lower_to_view_scan(query: LogicalQuery, view: JoinViewDefinition) -> ViewScanPlan:
    """Lower a logical query to the single padded scan that answers it.

    Every aggregate, the GROUP BY key, and every predicate clause is
    resolved onto the view's prefixed columns; the resulting
    :class:`~repro.query.ast.ViewScanPlan` is self-contained (plus the
    public view name) and hashable, so planners can cache it.  Lowering
    is purely structural (no live sizes), so it is itself memoized over
    the frozen ``(query, view)`` pair — replanning a hot query shape
    against the same registered views costs a cache lookup.
    """
    if not can_answer(query, view):
        raise SchemaError(
            f"view {view.name!r} does not materialize the join of query "
            f"({query.probe_table} ⋈ {query.driver_table}); register a "
            "matching view first"
        )
    aggregates = tuple(
        ScanAggregate(
            kind=agg.kind,
            name=agg.output_name,
            column=(
                None
                if agg.kind == "count"
                else view_column(agg.table, agg.column, view)
            ),
        )
        for agg in query.aggregates
    )
    group_column = group_domain = None
    if query.group_by is not None:
        group_column = view_column(query.group_by.table, query.group_by.column, view)
        group_domain = query.group_by.domain
    clauses = tuple(
        ScanClause(
            column=view_column(clause.table, clause.column, view),
            lo=clause.bounds()[0],
            hi=clause.bounds()[1],
        )
        for clause in predicate_clauses(query.predicate)
    )
    return ViewScanPlan(
        view_name=view.name,
        aggregates=aggregates,
        group_column=group_column,
        group_domain=group_domain,
        clauses=clauses,
    )
