"""Secure query execution over views and outsourced stores.

Two execution paths, mirroring the paper's evaluation candidates:

* **view scan** — one padded oblivious pass over the materialized view;
  cost is linear in the view's *total* (real + dummy) size, which is why
  EP's bloated views answer slowly and the DP views answer fast;
* **non-materialization (NM)** — a full oblivious sort-merge join over
  the entire outsourced tables, recomputed per query.

The unified entry points are :func:`execute_view_scan` (one padded scan
answering **every** aggregate and **every** GROUP BY cell of a lowered
:class:`~repro.query.ast.ViewScanPlan` at once) and
:func:`execute_nm_query` (the NM counterpart over a
:class:`~repro.query.ast.LogicalQuery`).  The historical
single-aggregate executors remain as the registered-view shim path.

All return the answer together with the simulated QET.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import SchemaError
from ..core.view_def import JoinViewDefinition
from ..mpc.runtime import MPCRuntime
from ..oblivious.filter import (
    fold_aggregates,
    oblivious_count,
    oblivious_multi_aggregate,
    oblivious_sum,
    range_mask,
)
from ..oblivious.sort_merge_join import (
    oblivious_join_count,
    oblivious_join_multi_aggregate,
    oblivious_join_sum,
)
from ..storage.materialized_view import MaterializedView
from ..storage.outsourced_table import OutsourcedTable
from .ast import (
    LogicalJoinQuery,
    LogicalQuery,
    QueryAnswer,
    ViewCountQuery,
    ViewScanPlan,
    ViewSumQuery,
    as_logical,
    predicate_clauses,
)


def clause_mask(
    clauses, schema, rows: np.ndarray
) -> np.ndarray | None:
    """Boolean mask of rows passing every lowered interval clause.

    Shared by the secure scan and the plaintext ground-truth path so the
    two can never drift; returns None when there is nothing to filter.
    """
    return range_mask(
        rows, [(schema.index(c.column), c.lo, c.hi) for c in clauses]
    )


def assemble_answer(
    aggregates,  # sequence of (kind, name, sum_slot | None)
    group_keys: tuple[int, ...] | None,
    counts: np.ndarray,
    sums: np.ndarray,
) -> QueryAnswer:
    """Fold raw (counts, sums) accumulators into a :class:`QueryAnswer`.

    COUNT/SUM cells stay exact integers; AVG cells are SUM/COUNT floats
    (0.0 for an empty group) computed from the *same* shared accumulators
    — both execution paths assemble through here, so view-scan and NM
    answers agree bit-for-bit on identical pre-noise aggregates.
    """
    rows = []
    n_groups = 1 if group_keys is None else len(group_keys)
    for g in range(n_groups):
        row: list[float] = []
        for kind, _name, slot in aggregates:
            if kind == "count":
                row.append(int(counts[g]))
            elif kind == "sum":
                row.append(int(sums[g, slot]))
            else:  # avg
                count = int(counts[g])
                row.append(float(int(sums[g, slot]) / count) if count else 0.0)
        rows.append(tuple(row))
    return QueryAnswer(
        columns=tuple(name for _kind, name, _slot in aggregates),
        group_keys=group_keys,
        rows=tuple(rows),
    )


def aggregate_plain(
    plan: ViewScanPlan, schema, rows: np.ndarray
) -> QueryAnswer:
    """Plaintext evaluation of a lowered plan (ground-truth scoring).

    Applies the same clause masks, grouping, and aggregate assembly as
    :func:`execute_view_scan`, but over plaintext rows (the logical
    mirror's truncation-free join) and without a protocol scope — this is
    the ``q_t(D_t)`` side of the paper's L1 error, generalized to the
    unified AST.
    """
    sum_columns = plan.sum_view_columns
    aggregates = [
        (
            agg.kind,
            agg.name,
            sum_columns.index(agg.column) if agg.column is not None else None,
        )
        for agg in plan.aggregates
    ]
    mask = clause_mask(plan.clauses, schema, rows)
    if mask is None:
        mask = np.ones(len(rows), dtype=bool)
    counts, sums = fold_aggregates(
        rows,
        mask,
        [schema.index(c) for c in sum_columns],
        need_count=True,
        group_column=(
            schema.index(plan.group_column) if plan.group_column else None
        ),
        group_domain=plan.group_domain,
    )
    return assemble_answer(aggregates, plan.group_domain, counts, sums)


def execute_view_scan(
    runtime: MPCRuntime,
    time: int,
    view: MaterializedView,
    plan: ViewScanPlan,
) -> tuple[QueryAnswer, float]:
    """Answer a lowered query plan in **one** padded oblivious scan.

    However many aggregates, GROUP BY cells, and predicate clauses the
    plan carries, the view's padded rows are touched exactly once;
    returns ``(answer, QET)``.
    """
    schema = view.schema
    sum_columns = plan.sum_view_columns
    aggregates = [
        (
            agg.kind,
            agg.name,
            sum_columns.index(agg.column) if agg.column is not None else None,
        )
        for agg in plan.aggregates
    ]
    with runtime.protocol("query", time) as ctx:
        rows, flags = ctx.reveal_table(view.table)
        mask = clause_mask(plan.clauses, schema, rows)
        counts, sums = oblivious_multi_aggregate(
            ctx,
            rows,
            flags,
            [schema.index(c) for c in sum_columns],
            plan.need_count,
            schema.index(plan.group_column) if plan.group_column else None,
            plan.group_domain,
            mask,
            schema.width,
            plan.predicate_words,
        )
        seconds = ctx.seconds
    return assemble_answer(aggregates, plan.group_domain, counts, sums), seconds


def execute_nm_query(
    runtime: MPCRuntime,
    time: int,
    probe_store: OutsourcedTable,
    driver_store: OutsourcedTable,
    view_def: JoinViewDefinition,
    query: LogicalQuery | LogicalJoinQuery,
) -> tuple[QueryAnswer, float]:
    """NM fallback for a unified query: one oblivious join, all aggregates.

    Recomputes the full sort-merge join over the outsourced stores and
    folds every aggregate of every group inside the circuit — the same
    single-pass amortization as the view scan, against the paper's
    recompute-per-query baseline.
    """
    lq = as_logical(query)

    def _side_col(table: str, column: str) -> tuple[str, int]:
        if table == view_def.probe_table:
            return ("left", view_def.probe_schema.index(column))
        if table == view_def.driver_table:
            return ("right", view_def.driver_schema.index(column))
        raise SchemaError(
            f"table {table!r} is neither side of the join "
            f"({view_def.probe_table} ⋈ {view_def.driver_table})"
        )

    sum_specs = [_side_col(t, c) for t, c in lq.sum_columns]
    aggregates = [
        (
            agg.kind,
            agg.output_name,
            (
                lq.sum_columns.index((agg.table, agg.column))
                if agg.kind in ("sum", "avg")
                else None
            ),
        )
        for agg in lq.aggregates
    ]
    group_spec = group_domain = None
    if lq.group_by is not None:
        group_spec = _side_col(lq.group_by.table, lq.group_by.column)
        group_domain = lq.group_by.domain
    clause_specs = [
        (*_side_col(clause.table, clause.column), *clause.bounds())
        for clause in predicate_clauses(lq.predicate)
    ]

    probe = probe_store.full_table()
    driver = driver_store.full_table()
    with runtime.protocol("query-nm", time) as ctx:
        p_rows, p_flags = ctx.reveal_table(probe)
        d_rows, d_flags = ctx.reveal_table(driver)
        counts, sums = oblivious_join_multi_aggregate(
            ctx,
            p_rows,
            p_flags,
            view_def.probe_key_col,
            d_rows,
            d_flags,
            view_def.driver_key_col,
            sum_specs=sum_specs,
            need_count=lq.need_count,
            group_spec=group_spec,
            group_domain=group_domain,
            clause_specs=clause_specs,
            pair_predicate=view_def.pair_predicate,
        )
        seconds = ctx.seconds
    return assemble_answer(aggregates, group_domain, counts, sums), seconds


def execute_view_count(
    runtime: MPCRuntime,
    time: int,
    view: MaterializedView,
    query: ViewCountQuery,
) -> tuple[int, float]:
    """Answer a COUNT over the materialized view; returns (answer, QET)."""
    with runtime.protocol("query", time) as ctx:
        rows, flags = ctx.reveal_table(view.table)
        mask = None
        if query.predicate is not None and len(rows):
            mask = query.predicate(rows)
        count = oblivious_count(
            ctx,
            rows,
            flags,
            mask,
            view.schema.width,
            query.predicate_words,
        )
        seconds = ctx.seconds
    return count, seconds


def execute_view_sum(
    runtime: MPCRuntime,
    time: int,
    view: MaterializedView,
    query: ViewSumQuery,
) -> tuple[int, float]:
    """Answer a SUM over one view column; returns (answer, QET)."""
    with runtime.protocol("query", time) as ctx:
        rows, flags = ctx.reveal_table(view.table)
        mask = None
        if query.predicate is not None and len(rows):
            mask = query.predicate(rows)
        total = oblivious_sum(
            ctx,
            rows,
            flags,
            view.schema.index(query.column),
            mask,
            view.schema.width,
            query.predicate_words,
        )
        seconds = ctx.seconds
    return total, seconds


def execute_nm_count(
    runtime: MPCRuntime,
    time: int,
    probe_store: OutsourcedTable,
    driver_store: OutsourcedTable,
    view_def: JoinViewDefinition,
) -> tuple[int, float]:
    """NM baseline: recompute the whole join obliviously for this query."""
    probe = probe_store.full_table()
    driver = driver_store.full_table()
    with runtime.protocol("query-nm", time) as ctx:
        p_rows, p_flags = ctx.reveal_table(probe)
        d_rows, d_flags = ctx.reveal_table(driver)
        count = oblivious_join_count(
            ctx,
            p_rows,
            p_flags,
            view_def.probe_key_col,
            d_rows,
            d_flags,
            view_def.driver_key_col,
            view_def.pair_predicate,
        )
        seconds = ctx.seconds
    return count, seconds


def execute_nm_sum(
    runtime: MPCRuntime,
    time: int,
    probe_store: OutsourcedTable,
    driver_store: OutsourcedTable,
    view_def: JoinViewDefinition,
    sum_table: str,
    sum_column: str,
) -> tuple[int, float]:
    """NM baseline for SUM: recompute the join, accumulate one column.

    ``sum_table``/``sum_column`` name the logical column being summed —
    the same terms a :class:`~repro.query.ast.LogicalJoinSumQuery`
    carries, resolved here against the join sides.
    """
    if sum_table == view_def.probe_table:
        value_side, value_col = "left", view_def.probe_schema.index(sum_column)
    elif sum_table == view_def.driver_table:
        value_side, value_col = "right", view_def.driver_schema.index(sum_column)
    else:
        raise SchemaError(
            f"sum_table {sum_table!r} is neither side of the join "
            f"({view_def.probe_table} ⋈ {view_def.driver_table})"
        )
    probe = probe_store.full_table()
    driver = driver_store.full_table()
    with runtime.protocol("query-nm", time) as ctx:
        p_rows, p_flags = ctx.reveal_table(probe)
        d_rows, d_flags = ctx.reveal_table(driver)
        total = oblivious_join_sum(
            ctx,
            p_rows,
            p_flags,
            view_def.probe_key_col,
            d_rows,
            d_flags,
            view_def.driver_key_col,
            value_side,
            value_col,
            view_def.pair_predicate,
        )
        seconds = ctx.seconds
    return total, seconds
