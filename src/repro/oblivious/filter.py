"""Padded aggregate scans.

The aggregate scan is the query-side workhorse: every query in the
paper's evaluation is a COUNT over the materialized view, evaluated by
one padded linear pass that touches every row (real or dummy) exactly
once.  :func:`oblivious_multi_aggregate` is that pass for any query:
**one** scan folds any number of COUNT/SUM accumulators across any
number of public GROUP BY cells, paying the row-touch cost once and only
per-accumulator gates on top — the single-scan amortization the query
compiler is built on.  It is the only function that accumulates over
*shares*; :func:`range_mask` and :func:`fold_aggregates` are the same
semantics over plaintext rows — the ground-truth evaluator's kernel and
the oracle the share kernel is tested against.

The pass is a handful of numpy calls per block, each over every row of
the block, and their number depends only on the block's public size and
the plan: the protocol scope recombines the plan's columns and derives
the live mask by comparing the two flag shares (no flag word is
recombined), and each range clause is one wrapped subtract and one
compare.  Fewer calls per block is the whole per-row constant of a cold
scan on the host, and, when a scan runs on two threads, fewer hand-offs
of the interpreter lock between them.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..mpc.runtime import ProtocolContext
from ..sharing.shared_value import SharedTable

#: Rows per block of the scan kernel: 128 KiB per revealed column, so a
#: block's columns, flags and selections stay cache-resident between the
#: handful of passes made over them.  A caller that scans on two threads
#: at once passes larger blocks (``block_rows``); ``docs/SHARDING.md``
#: ("Execution backends") says why.
SCAN_BLOCK_ROWS = 1 << 15

_SCRATCH = threading.local()


def range_mask(
    rows: np.ndarray, clause_specs: Sequence[tuple[int, int, int]]
) -> np.ndarray | None:
    """Rows passing every ``(column, lo, hi)`` closed-interval clause.

    The predicate over plaintext rows
    (:func:`repro.query.executor.clause_mask` lowers plan clauses onto
    it) — what :func:`oblivious_multi_aggregate` evaluates block by
    block over shares.  Returns None when there is nothing to filter.
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

    Pure (no protocol scope, no charging): folds ``live`` plaintext
    rows into per GROUP-BY-cell count and per-column sum accumulators.
    The plaintext ground-truth path
    (:func:`repro.query.executor.aggregate_plain`) evaluates through
    here, and :func:`oblivious_multi_aggregate` is held equal to it over
    a full reveal (``tests/test_scan_kernel.py``), so served answers and
    the logical answers the L1 error compares against cannot drift.

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


def _block_scratch(
    n_columns: int, block_rows: int = SCAN_BLOCK_ROWS
) -> tuple[np.ndarray, np.ndarray]:
    """This thread's block buffers, reused across blocks, shards, queries.

    ``words`` has a row per revealed column, one for a clause's shifted
    column and one for a sum's ``payload × selection`` products;
    ``masks`` holds the live, per-group and clause selections.  Their
    size depends on the largest block and the most columns a plan has
    read on this thread — never on a shard's length — and no two
    threads share them.
    """
    words = getattr(_SCRATCH, "words", None)
    if (
        words is None
        or words.shape[0] < n_columns + 2
        or words.shape[1] < block_rows
    ):
        shape = (
            max(n_columns + 2, 0 if words is None else words.shape[0]),
            max(block_rows, 0 if words is None else words.shape[1]),
        )
        words = np.empty(shape, dtype=np.uint32)
        _SCRATCH.words = words
        _SCRATCH.masks = np.empty((3, shape[1]), dtype=bool)
    return words, _SCRATCH.masks


def oblivious_multi_aggregate(
    ctx: ProtocolContext,
    table: SharedTable,
    sum_columns: Sequence[int],
    need_count: bool,
    group_column: int | None,
    group_domain: Sequence[int] | None,
    clause_specs: Sequence[tuple[int, int, int]] = (),
    predicate_words: int = 1,
    block_rows: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold counts and column sums over groups in **one** padded scan.

    ``table`` is the secret-shared relation to scan — a view shard, or
    a range of one past a cached watermark — and ``clause_specs`` the
    ``(column, lo, hi)`` closed intervals every counted row must pass.
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
    oblivious group routing; it is made once, over ``len(table)``,
    before any word is recombined.

    The pass itself walks the table in blocks of ``block_rows`` rows
    (:data:`SCAN_BLOCK_ROWS` by default; the answer and the charge do
    not depend on the size).  Per block the protocol scope
    (:meth:`~repro.mpc.runtime.ProtocolContext.reveal_columns`)
    recombines **only** the clause, sum and group columns into
    per-thread scratch and writes the live mask straight from the two
    flag shares (``f0 != f1``), and the selections are evaluated there:
    each clause is one wrapped subtract and one compare,
    ``(x − lo) mod 2^32 ≤ hi − lo`` (no row passes when ``hi < lo``).
    A COUNT behind one range makes six numpy calls per block, and a
    SUM three more; which calls are made depends only on the block's
    public size and the plan.  The block's counts (in Z) and sums (in
    Z_{2^64}) are added to the accumulators — the same
    order-independent additions :func:`range_mask` +
    :func:`fold_aggregates` perform over the whole table at once, which
    stay as the plaintext definition and the test oracle.  Any
    :class:`~repro.sharing.shared_value.SharedTable` works; one whose
    columns are contiguous (a view shard) is scanned at memory speed, a
    row-major one through strided reads.
    """
    grouped = group_column is not None
    if grouped and not group_domain:
        raise ValueError("grouped scan needs a non-empty public domain")
    n_groups = len(group_domain) if grouped else 1
    n = len(table)
    ctx.charge_scan(n, table.schema.width, predicate_words)
    ctx.charge_gates(
        n
        * ctx.cost_model.aggregate_slot_gates(
            need_count, len(sum_columns), n_groups, grouped
        )
    )
    counts = np.zeros(n_groups, dtype=np.int64)
    sums = np.zeros((n_groups, len(sum_columns)), dtype=np.uint64)
    columns = sorted(
        {column for column, _lo, _hi in clause_specs}.union(
            sum_columns, (group_column,) if grouped else ()
        )
    )
    slot = {column: j for j, column in enumerate(columns)}
    shifted_slot, product_slot = len(columns), len(columns) + 1
    # ``lo <= x <= hi`` is ``(x - lo) mod 2^32 <= hi - lo`` for hi >= lo;
    # an empty interval (span None) passes nothing.
    bounds = [
        (slot[column], np.uint32(lo), None if hi < lo else np.uint32(hi - lo))
        for column, lo, hi in clause_specs
    ]
    block_rows = block_rows or SCAN_BLOCK_ROWS
    words, masks = _block_scratch(len(columns), block_rows)
    for start in range(0, n, block_rows):
        m = min(block_rows, n - start)
        live, selected, passed = masks[0, :m], masks[1, :m], masks[2, :m]
        ctx.reveal_columns(table, columns, start, start + m, words, live)
        shifted = words[shifted_slot, :m]
        for j, lo, span in bounds:
            if span is None:
                live.fill(False)
                continue
            np.subtract(words[j, :m], lo, out=shifted)
            live &= np.less_equal(shifted, span, out=passed)
        products = words[product_slot, :m]
        for g in range(n_groups):
            if grouped:
                np.equal(
                    words[slot[group_column], :m],
                    np.uint32(group_domain[g]),
                    out=selected,
                )
                selected &= live
            else:
                selected = live
            if need_count:
                counts[g] += np.count_nonzero(selected)
            for s, column in enumerate(sum_columns):
                # payload × isView, as in fold_aggregates: the product
                # stays in the column's dtype, the reduction widens.  (A
                # scan is fewer than 2^32 rows of 32-bit words, so these
                # additions cannot leave Z_{2^64}'s first lap.)
                np.multiply(words[slot[column], :m], selected, out=products)
                sums[g, s] += products.sum(dtype=np.uint64)
    return counts, sums
