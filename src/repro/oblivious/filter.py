"""Oblivious selection (Appendix A.1.1) and padded aggregate scans.

Selection has stability 1 — each input row appears at most once in the
output — so no truncation machinery is needed.  Obliviousness is achieved
by returning *all* input rows and only flipping the ``isView`` bit: rows
failing the predicate become dummies.  The output size therefore equals
the (public) input size and nothing about the predicate's selectivity
leaks.

The aggregate scan is the query-side workhorse: every query in the
paper's evaluation is a COUNT over the materialized view, evaluated by
one padded linear pass that touches every row (real or dummy) exactly
once.  :func:`oblivious_multi_aggregate` is that pass for any query:
**one** scan folds any number of COUNT/SUM accumulators across any
number of public GROUP BY cells, paying the row-touch cost once and only
per-accumulator gates on top — the single-scan amortization the query
compiler is built on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mpc.runtime import ProtocolContext


def oblivious_select(
    ctx: ProtocolContext,
    rows: np.ndarray,
    flags: np.ndarray,
    predicate_mask: np.ndarray,
    payload_words: int,
    predicate_words: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a selection predicate without changing the array size.

    ``predicate_mask`` is the plaintext evaluation of the predicate inside
    the protocol scope; the returned flag column is the AND of the input
    reality flags and the mask.  Charges one padded scan.
    """
    n = len(rows)
    ctx.charge_scan(n, payload_words, predicate_words)
    mask = np.asarray(predicate_mask, dtype=bool)
    if len(mask) != n:
        raise ValueError(f"predicate mask length {len(mask)} != row count {n}")
    return rows, np.asarray(flags, dtype=bool) & mask


def range_mask(
    rows: np.ndarray, clause_specs: Sequence[tuple[int, int, int]]
) -> np.ndarray | None:
    """Rows passing every ``(column, lo, hi)`` closed-interval clause.

    The predicate half of the scan kernel, shared by every backend
    (:func:`repro.query.executor.clause_mask` lowers plan clauses onto
    it; shard workers receive the triples pre-lowered).  Returns None
    when there is nothing to filter.
    """
    if not clause_specs or not len(rows):
        return None
    mask = None
    for column, lo, hi in clause_specs:
        # Rows are row-major, so a column view is strided; comparing a
        # contiguous copy costs a fraction of comparing in place.
        values = np.ascontiguousarray(rows[:, column])
        passed = values >= np.uint32(lo)
        passed &= values <= np.uint32(hi)
        if mask is None:
            mask = passed
        else:
            mask &= passed
    return mask


def fold_aggregates(
    rows: np.ndarray,
    live: np.ndarray,
    sum_columns: Sequence[int],
    need_count: bool,
    group_column: int | None,
    group_domain: Sequence[int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The accumulation semantics of one multi-aggregate pass.

    Pure (no protocol scope, no charging): folds ``live`` rows into per
    GROUP-BY-cell count and per-column sum accumulators.  Both the
    oblivious scan (:func:`oblivious_multi_aggregate`) and the
    plaintext ground-truth path (:func:`repro.query.executor.
    aggregate_plain`) delegate here, so served answers and the logical
    answers the L1 error compares against can never drift.

    A sum is the column times the 0/1 selection, reduced in ``uint64``
    — the circuit's own "payload × isView", so even non-zero dummy
    padding cannot skew the result.  The product stays in the column's
    dtype (a 0/1 factor cannot overflow) and the reduction widens, so
    each accumulator is the same element of Z_{2^64} as widening first
    and summing the selected rows.
    """
    grouped = group_column is not None
    n_groups = len(group_domain) if grouped else 1
    counts = np.zeros(n_groups, dtype=np.int64)
    sums = np.zeros((n_groups, len(sum_columns)), dtype=np.uint64)
    if len(rows) == 0:
        return counts, sums
    rows = np.asarray(rows)
    # One contiguous copy per distinct summed column (see range_mask);
    # a COUNT-only scan — the paper's whole workload — copies nothing.
    columns = {c: np.ascontiguousarray(rows[:, c]) for c in set(sum_columns)}
    if grouped:
        keys = rows[:, group_column].astype(np.uint32)
        selections = [
            live & (keys == np.uint32(value)) for value in group_domain
        ]
    else:
        selections = [live]
    for g, sel in enumerate(selections):
        if need_count:
            counts[g] = np.count_nonzero(sel)
        for s, c in enumerate(sum_columns):
            sums[g, s] = np.multiply(columns[c], sel).sum(dtype=np.uint64)
    return counts, sums


def oblivious_multi_aggregate(
    ctx: ProtocolContext,
    rows: np.ndarray,
    flags: np.ndarray,
    sum_columns: Sequence[int],
    need_count: bool,
    group_column: int | None,
    group_domain: Sequence[int] | None,
    predicate_mask: np.ndarray | None,
    payload_words: int,
    predicate_words: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold counts and column sums over groups in **one** padded scan.

    Returns ``(counts, sums)`` with ``counts.shape == (n_groups,)`` and
    ``sums.shape == (n_groups, len(sum_columns))``; ungrouped scans are
    the ``n_groups == 1`` case.  Every row — real or dummy — is touched
    exactly once, whatever the number of accumulators: that is where the
    view-size/efficiency trade-off of the paper comes from, a view
    bloated with dummy tuples (EP) pays for them on *every* query.  The
    charge is one padded scan (a lone COUNT pays exactly that) plus
    :meth:`~repro.mpc.cost_model.CostModel.aggregate_slot_gates` per row
    for the extra accumulators — 64 gates for a lone SUM's wider
    accumulator, sized for the worst case in Z_{2^64} — and the
    oblivious group routing.
    """
    grouped = group_column is not None
    if grouped and not group_domain:
        raise ValueError("grouped scan needs a non-empty public domain")
    n_groups = len(group_domain) if grouped else 1
    n = len(rows)
    ctx.charge_scan(n, payload_words, predicate_words)
    ctx.charge_gates(
        n
        * ctx.cost_model.aggregate_slot_gates(
            need_count, len(sum_columns), n_groups, grouped
        )
    )
    live = np.asarray(flags, dtype=bool)
    if predicate_mask is not None:
        live = live & np.asarray(predicate_mask, dtype=bool)
    return fold_aggregates(
        rows, live, sum_columns, need_count, group_column, group_domain
    )
