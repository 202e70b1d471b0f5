"""Regression: the 0/1-multiply scan kernel ≡ the gather kernel it replaced.

``fold_aggregates`` used to widen the summed columns into an ``(n, k)``
``uint64`` copy and gather each accumulator's rows with a boolean index;
``clause_mask`` (and its pre-lowered twin inside ``scan_share_suffix``)
compared on strided column views starting from ``np.ones``.  The kernel
now copies each column it reads once, compares on the copy, counts with
``count_nonzero`` and sums ``column × selection`` — and must return the
same elements of Z and Z_{2^64}, in the same dtypes and shapes, and
charge the same gates.  The reference implementations below are verbatim
copies of the replaced code.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import Schema
from repro.mpc.cost_model import CostModel
from repro.mpc.runtime import WorkerShardContext
from repro.oblivious.filter import fold_aggregates
from repro.query.executor import clause_mask
from repro.query.shard_workers import scan_share_suffix

WIDTH = 4
SCHEMA = Schema(("a", "b", "c", "d"))
GROUP_DOMAIN = (0, 1, 2, 5)
Clause = namedtuple("Clause", "column lo hi")


# -- reference implementations, verbatim from the replaced code ---------------
def _ref_fold_aggregates(
    rows, live, sum_columns, need_count, group_column, group_domain
):
    grouped = group_column is not None
    n_groups = len(group_domain) if grouped else 1
    counts = np.zeros(n_groups, dtype=np.int64)
    sums = np.zeros((n_groups, len(sum_columns)), dtype=np.uint64)
    if len(rows) == 0:
        return counts, sums
    summed = (
        np.asarray(rows)[:, list(sum_columns)].astype(np.uint64)
        if sum_columns
        else None
    )
    if grouped:
        keys = np.asarray(rows, dtype=np.uint32)[:, group_column]
        selections = [
            live & (keys == np.uint32(value)) for value in group_domain
        ]
    else:
        selections = [live]
    for g, sel in enumerate(selections):
        if need_count:
            counts[g] = int(sel.sum())
        for s in range(len(sum_columns)):
            sums[g, s] = summed[sel, s].sum(dtype=np.uint64)
    return counts, sums


def _ref_clause_mask(clauses, schema, rows):
    if not clauses or not len(rows):
        return None
    mask = np.ones(len(rows), dtype=bool)
    for clause in clauses:
        values = rows[:, schema.index(clause.column)]
        mask &= (values >= np.uint32(clause.lo)) & (
            values <= np.uint32(clause.hi)
        )
    return mask


def _ref_scan_share_suffix(
    rows0, rows1, flags0, flags1, sum_indices, need_count, group_column,
    group_domain, clause_specs, payload_words, predicate_words, cost_model,
):
    rows = rows0 ^ rows1
    flags = (flags0 ^ flags1).astype(bool)
    n_suffix = len(rows)
    mask = None
    if clause_specs and n_suffix:
        mask = np.ones(n_suffix, dtype=bool)
        for col, lo, hi in clause_specs:
            values = rows[:, col]
            mask &= (values >= np.uint32(lo)) & (values <= np.uint32(hi))
    ctx = WorkerShardContext(cost_model)
    # oblivious_multi_aggregate's charge and fold, around the reference fold
    grouped = group_column is not None
    n_groups = len(group_domain) if grouped else 1
    ctx.charge_scan(n_suffix, payload_words, predicate_words)
    ctx.charge_gates(
        n_suffix
        * cost_model.aggregate_slot_gates(
            need_count, len(sum_indices), n_groups, grouped
        )
    )
    live = flags if mask is None else flags & mask
    counts, sums = _ref_fold_aggregates(
        rows, live, list(sum_indices), need_count, group_column, group_domain
    )
    return counts, sums, ctx.gates


# -- generators -----------------------------------------------------------------
def _rows(gen, n: int, dtype) -> np.ndarray:
    """Full-range 32-bit values; column 0 drawn near the group domain."""
    rows = gen.integers(0, 1 << 32, size=(n, WIDTH), dtype=np.uint64)
    rows[:, 0] = gen.integers(0, 7, size=n)
    if n:
        rows[gen.integers(0, n), 1] = (1 << 32) - 1  # the ring's top element
    return rows.astype(dtype)


def _live(gen, n: int, kind: str) -> np.ndarray:
    if kind == "none":
        return np.zeros(n, dtype=bool)
    if kind == "all":
        return np.ones(n, dtype=bool)
    return gen.integers(0, 2, size=n).astype(bool)


def _assert_same(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


sizes = st.one_of(
    st.sampled_from([0, 1, 2, 4095, 4096, 4097]), st.integers(0, 4097)
)
sum_column_lists = st.lists(st.integers(0, WIDTH - 1), min_size=0, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    dtype=st.sampled_from([np.uint32, np.int64, np.uint64]),
    grouped=st.booleans(),
    sum_columns=sum_column_lists,
    need_count=st.booleans(),
    live_kind=st.sampled_from(["none", "all", "random"]),
)
def test_fold_aggregates_equals_gather_reference(
    seed, n, dtype, grouped, sum_columns, need_count, live_kind
):
    gen = np.random.default_rng(seed)
    rows = _rows(gen, n, dtype)
    live = _live(gen, n, live_kind)
    args = (
        rows, live, sum_columns, need_count,
        0 if grouped else None, GROUP_DOMAIN if grouped else None,
    )
    before = rows.copy()
    _assert_same(fold_aggregates(*args), _ref_fold_aggregates(*args))
    np.testing.assert_array_equal(rows, before)  # the scan never writes its input


def test_fold_aggregates_sums_wrap_in_the_ring():
    """Values near the top of Z_{2^64}: the product stays exact in the
    column's own dtype and the accumulator wraps as the gather's did."""
    n = 4096
    rows = np.full((n, 2), (1 << 64) - 3, dtype=np.uint64)
    live = np.ones(n, dtype=bool)
    args = (rows, live, (1, 1), True, None, None)
    got = fold_aggregates(*args)
    _assert_same(got, _ref_fold_aggregates(*args))
    assert int(got[1][0, 0]) == (n * ((1 << 64) - 3)) % (1 << 64)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    dtype=st.sampled_from([np.uint32, np.int64, np.uint64]),
    n_clauses=st.integers(0, 3),
)
def test_clause_mask_equals_strided_reference(seed, n, dtype, n_clauses):
    gen = np.random.default_rng(seed)
    rows = _rows(gen, n, dtype)
    clauses = []
    for _ in range(n_clauses):
        lo, hi = sorted(int(v) for v in gen.integers(0, 1 << 32, size=2))
        if gen.integers(0, 4) == 0:
            lo, hi = hi, lo  # an empty interval passes nothing
        clauses.append(Clause(SCHEMA.fields[gen.integers(0, WIDTH)], lo, hi))
    before = rows.copy()
    got = clause_mask(clauses, SCHEMA, rows)
    want = _ref_clause_mask(clauses, SCHEMA, rows)
    np.testing.assert_array_equal(rows, before)
    if want is None:
        assert got is None
    else:
        _assert_same([got], [want])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    start=st.integers(0, 4200),
    grouped=st.booleans(),
    sum_indices=sum_column_lists,
    need_count=st.booleans(),
    n_clauses=st.integers(0, 2),
)
def test_scan_share_suffix_equals_reference_kernel(
    seed, n, start, grouped, sum_indices, need_count, n_clauses
):
    """Random shares, any suffix (empty included), clause-free plans
    included: same accumulators, same gate charge."""
    gen = np.random.default_rng(seed)
    rows = _rows(gen, n, np.uint32)
    flags = gen.integers(0, 2, size=n, dtype=np.uint32)
    rows1 = gen.integers(0, 1 << 32, size=rows.shape, dtype=np.uint32)
    flags1 = gen.integers(0, 1 << 32, size=n, dtype=np.uint32)
    start = min(start, n)
    clause_specs = tuple(
        (int(gen.integers(0, WIDTH)), *sorted(int(v) for v in gen.integers(0, 1 << 32, size=2)))
        for _ in range(n_clauses)
    )
    args = (
        (rows ^ rows1)[start:], rows1[start:],
        (flags ^ flags1)[start:], flags1[start:],
        tuple(sum_indices), need_count,
        0 if grouped else None, GROUP_DOMAIN if grouped else None,
        clause_specs, WIDTH, 1 + n_clauses, CostModel(),
    )
    got = scan_share_suffix(*args)
    want = _ref_scan_share_suffix(*args)
    _assert_same(got[:2], want[:2])
    assert got[2] == want[2]
