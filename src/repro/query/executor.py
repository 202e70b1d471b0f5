"""Secure query execution over views and outsourced stores.

Two execution paths, mirroring the paper's evaluation candidates:

* **view scan** — one padded oblivious pass over the materialized view;
  cost is linear in the view's *total* (real + dummy) size, which is why
  EP's bloated views answer slowly and the DP views answer fast;
* **non-materialization (NM)** — a full oblivious sort-merge join over
  the entire outsourced tables, recomputed per query.

View scans run through
:class:`~repro.query.parallel.ParallelScanExecutor` (one kernel call per
shard, optionally incremental) on the arguments :func:`scan_arguments`
derives and the answer :func:`assemble_answer` builds;
:func:`execute_nm_query` here is the NM counterpart over a
:class:`~repro.query.ast.LogicalQuery`.  Either answers **every**
aggregate and **every** GROUP BY cell at once and returns the answer
together with the simulated QET.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import SchemaError
from ..core.view_def import JoinViewDefinition
from ..mpc.runtime import MPCRuntime
from ..oblivious.filter import fold_aggregates, range_mask
from ..oblivious.sort_merge_join import oblivious_join_multi_aggregate
from ..storage.outsourced_table import OutsourcedTable
from .ast import LogicalQuery, QueryAnswer, ViewScanPlan, predicate_clauses


def clause_mask(
    clauses, schema, rows: np.ndarray
) -> np.ndarray | None:
    """Boolean mask of plaintext rows passing every lowered interval clause.

    The predicate of the plaintext ground-truth path and of the scan
    kernel's test oracle; returns None when there is nothing to filter.
    """
    return range_mask(
        rows, [(schema.index(c.column), c.lo, c.hi) for c in clauses]
    )


def scan_arguments(plan: ViewScanPlan, schema) -> tuple:
    """``plan`` lowered onto column positions of ``schema``.

    The arguments of :func:`~repro.oblivious.filter.oblivious_multi_aggregate`
    after the protocol scope and the table — ``(sum_columns, need_count,
    group_column, group_domain, clause_specs, predicate_words)`` — as
    every backend hands them to the kernel: plain ints and tuples, no
    plan or schema objects.
    """
    return (
        tuple(schema.index(c) for c in plan.sum_view_columns),
        plan.need_count,
        schema.index(plan.group_column) if plan.group_column else None,
        plan.group_domain,
        tuple((schema.index(c.column), int(c.lo), int(c.hi)) for c in plan.clauses),
        plan.predicate_words,
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
    the oblivious view scan, but over plaintext rows (the logical
    mirror's truncation-free join) and without a protocol scope — this is
    the ``q_t(D_t)`` side of the paper's L1 error, generalized to the
    unified AST.
    """
    mask = clause_mask(plan.clauses, schema, rows)
    if mask is None:
        mask = np.ones(len(rows), dtype=bool)
    counts, sums = fold_aggregates(
        rows,
        mask,
        [schema.index(c) for c in plan.sum_view_columns],
        need_count=True,
        group_column=(
            schema.index(plan.group_column) if plan.group_column else None
        ),
        group_domain=plan.group_domain,
    )
    return assemble_answer(plan.aggregate_slots, plan.group_domain, counts, sums)


def execute_nm_query(
    runtime: MPCRuntime,
    time: int,
    probe_store: OutsourcedTable,
    driver_store: OutsourcedTable,
    view_def: JoinViewDefinition,
    query: LogicalQuery,
) -> tuple[QueryAnswer, float]:
    """NM execution of a query: one oblivious join, all aggregates.

    Recomputes the full sort-merge join over the outsourced stores and
    folds every aggregate of every group inside the circuit — the same
    single-pass amortization as the view scan, against the paper's
    recompute-per-query baseline.
    """

    def _side_col(table: str, column: str) -> tuple[str, int]:
        if table == view_def.probe_table:
            return ("left", view_def.probe_schema.index(column))
        if table == view_def.driver_table:
            return ("right", view_def.driver_schema.index(column))
        raise SchemaError(
            f"table {table!r} is neither side of the join "
            f"({view_def.probe_table} ⋈ {view_def.driver_table})"
        )

    sum_specs = [_side_col(t, c) for t, c in query.sum_columns]
    aggregates = [
        (
            agg.kind,
            agg.output_name,
            (
                query.sum_columns.index((agg.table, agg.column))
                if agg.kind in ("sum", "avg")
                else None
            ),
        )
        for agg in query.aggregates
    ]
    group_spec = group_domain = None
    if query.group_by is not None:
        group_spec = _side_col(query.group_by.table, query.group_by.column)
        group_domain = query.group_by.domain
    clause_specs = [
        (*_side_col(clause.table, clause.column), *clause.bounds())
        for clause in predicate_clauses(query.predicate)
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
            need_count=query.need_count,
            group_spec=group_spec,
            group_domain=group_domain,
            clause_specs=clause_specs,
            band=view_def.band,
        )
        seconds = ctx.seconds
    return assemble_answer(aggregates, group_domain, counts, sums), seconds
