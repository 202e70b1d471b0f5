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

The second half holds the kernel that scans *shares* —
``oblivious_multi_aggregate``, which walks a ``SharedTable`` in blocks
and recombines only the columns a plan reads — equal to ``range_mask`` +
``fold_aggregates`` over a full ``reveal_table``: the plaintext
definition it must never drift from.
"""

from __future__ import annotations

import threading
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.oblivious.filter as filter_mod
from repro.common.errors import SecurityError
from repro.common.types import Schema
from repro.mpc.cost_model import CostModel
from repro.mpc.runtime import MPCRuntime, WorkerShardContext
from repro.oblivious.filter import (
    SCAN_BLOCK_ROWS,
    fold_aggregates,
    oblivious_multi_aggregate,
    range_mask,
)
from repro.query.ast import ScanAggregate, ViewScanPlan
from repro.query.executor import clause_mask
from repro.query.incremental import AccumulatorCache, ShardAccumulator
from repro.query.parallel import ParallelScanExecutor
from repro.query.shard_workers import scan_share_suffix
from repro.sharing.shared_value import SharedArray, SharedTable
from repro.storage.materialized_view import MaterializedView

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


# -- the blocked kernel over shares ≡ range_mask + fold_aggregates over a reveal --
BLOCK = SCAN_BLOCK_ROWS
TOP = (1 << 32) - 1


def _shared_table(gen, n: int, width: int, column_major: bool, domain) -> SharedTable:
    """Random shares of random rows; dummies carry payload like real rows.

    Column 0 is drawn near ``domain`` (so groups are hit, and missed),
    the rest over the full ring with a run of top elements.  Column-major
    tables are faces over buffers with spare capacity, as a view shard's.
    """
    plain = gen.integers(0, 1 << 32, size=(n, width), dtype=np.uint32)
    plain[:, 0] = gen.integers(0, max(domain) + 2, size=n)
    if n and width > 1:
        plain[: max(1, n // 3), 1] = TOP
    flags = gen.integers(0, 2, size=n, dtype=np.uint32)
    flags[flags == 1] = gen.integers(1, 1 << 32, size=int(flags.sum()))  # any non-zero word
    halves = []
    for words in (plain, flags):
        mask = gen.integers(0, 1 << 32, size=words.shape, dtype=np.uint32)
        pair = []
        for half in (mask, words ^ mask):
            if column_major:
                buffer = np.zeros(words.shape[::-1][:-1] + (n + 5,), dtype=np.uint32)
                buffer[..., :n] = half.T
                half = buffer[..., :n].T
            pair.append(half)
        halves.append(SharedArray(*pair))
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    return SharedTable(schema, *halves)


class ChargeLog(list):
    """Every ``charge_gates`` call made on a context, in order."""

    def attach(self, ctx):
        charge = ctx.charge_gates

        def recording(gates):
            self.append(int(gates))
            charge(gates)

        ctx.charge_gates = recording
        return ctx


def _reference(ctx, table, sum_columns, need_count, group_column, group_domain,
               clause_specs, predicate_words):
    """The definition: reveal everything, mask, fold — and the same charges."""
    rows, flags = ctx.reveal_table(table)
    n = len(rows)
    n_groups = len(group_domain) if group_column is not None else 1
    ctx.charge_scan(n, table.schema.width, predicate_words)
    ctx.charge_gates(
        n * ctx.cost_model.aggregate_slot_gates(
            need_count, len(sum_columns), n_groups, group_column is not None
        )
    )
    mask = range_mask(rows, clause_specs)
    live = flags if mask is None else flags & mask
    return fold_aggregates(
        rows, live, sum_columns, need_count, group_column, group_domain
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
    width=st.integers(1, 6),
    column_major=st.booleans(),
    n_clauses=st.integers(0, 3),
    sum_picks=st.lists(st.integers(0, 5), min_size=0, max_size=3),
    need_count=st.booleans(),
    domain=st.one_of(
        st.none(),
        st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
    ),
    start_pick=st.integers(0, 1 << 30),
)
def test_blocked_kernel_is_the_reference(
    seed, n, width, column_major, n_clauses, sum_picks, need_count, domain,
    start_pick,
):
    gen = np.random.default_rng(seed)
    shard = _shared_table(gen, n, width, column_major, domain or (6,))
    # a suffix past a watermark: 0 <= start <= n, whole shard when 0
    start = start_pick % (n + 1)
    table = shard.take(slice(start, None)) if start else shard
    clause_specs = []
    for _ in range(n_clauses):
        lo, hi = sorted(int(v) for v in gen.integers(0, 1 << 32, size=2))
        kind = int(gen.integers(0, 4))
        if kind == 0:
            lo, hi = hi, lo  # passes nothing
        elif kind == 1:
            lo, hi = 0, TOP  # passes everything
        clause_specs.append((int(gen.integers(0, width)), lo, hi))
    args = (
        tuple(c % width for c in sum_picks),  # repeats allowed
        need_count,
        0 if domain else None,
        tuple(domain) if domain else None,
        tuple(clause_specs),
        1 + n_clauses,
    )
    runtime = MPCRuntime(seed=0)
    got_charges, want_charges = ChargeLog(), ChargeLog()
    with runtime.protocol("kernel") as ctx:
        got = oblivious_multi_aggregate(got_charges.attach(ctx), table, *args)
        got_gates = ctx.gates
    with runtime.protocol("reference") as ctx:
        want = _reference(want_charges.attach(ctx), table, *args)
        want_gates = ctx.gates
    _assert_same(got, want)
    assert got_charges == want_charges and got_gates == want_gates


#: Clause shapes at the edges of the wrapped-subtract range test
#: ``(x - lo) mod 2^32 <= hi - lo``: the whole ring, one point, an empty
#: interval (``hi < lo``, which must pass nothing rather than wrap), and
#: intervals touching either end of the ring.
CLAUSE_EDGES = ("whole", "point", "empty", "top", "bottom", "random")


def _edge_clause(gen, kind: str, column: int) -> tuple[int, int, int]:
    value = int(gen.choice([0, 1, 2, 5, 6, TOP - 1, TOP]))
    if kind == "whole":
        return column, 0, TOP
    if kind == "point":
        return column, value, value
    if kind == "empty":
        return column, max(value, 1), max(value, 1) - 1
    if kind == "top":
        return column, TOP - int(gen.integers(0, 8)), TOP
    if kind == "bottom":
        return column, 0, int(gen.integers(0, 8))
    lo, hi = sorted(int(v) for v in gen.integers(0, 1 << 32, size=2))
    return column, lo, hi


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 9, BLOCK + 3]),
    clauses=st.lists(
        st.tuples(st.sampled_from(CLAUSE_EDGES), st.integers(0, 3)), max_size=3
    ),
    sum_picks=st.lists(st.integers(0, 3), max_size=3),
    need_count=st.booleans(),
    grouped=st.booleans(),
    block_rows=st.sampled_from([None, 1, 4, 64]),
)
def test_kernel_edges_are_the_definition_on_every_context(
    seed, n, clauses, sum_picks, need_count, grouped, block_rows
):
    """Clauses at the ring's edges, two on one column, on a summed column
    or on the GROUP BY column (column 0), over flag shares whose words
    are random in every bit: the kernel's counts, sums, dtypes and
    charges are ``range_mask`` + ``fold_aggregates``'s, and a process
    worker's :class:`WorkerShardContext` answers and charges the same."""
    gen = np.random.default_rng(seed)
    domain = (0, 1, 2, 5)
    table = _shared_table(gen, n, WIDTH, True, domain)
    clause_specs = tuple(_edge_clause(gen, kind, column) for kind, column in clauses)
    args = (
        tuple(sum_picks),
        need_count,
        0 if grouped else None,
        domain if grouped else None,
        clause_specs,
        1 + len(clause_specs),
    )
    runtime = MPCRuntime(seed=0)
    got_charges, want_charges = ChargeLog(), ChargeLog()
    with runtime.protocol("kernel") as ctx:
        got = oblivious_multi_aggregate(
            got_charges.attach(ctx), table, *args, block_rows=block_rows
        )
        got_gates = ctx.gates
    with runtime.protocol("reference") as ctx:
        want = _reference(want_charges.attach(ctx), table, *args)
        want_gates = ctx.gates
    _assert_same(got, want)
    assert got_charges == want_charges and got_gates == want_gates

    worker = WorkerShardContext(runtime.cost_model)
    _assert_same(
        oblivious_multi_aggregate(worker, table, *args, block_rows=block_rows), want
    )
    assert worker.gates == want_gates


def test_closed_scope_is_refused_before_any_word_is_recombined(monkeypatch):
    gen = np.random.default_rng(0)
    table = _shared_table(gen, 50, 3, True, (1, 2))
    runtime = MPCRuntime(seed=0)
    with runtime.protocol("done") as ctx:
        pass
    touched = []
    monkeypatch.setattr(
        "repro.mpc.runtime._recombine_columns",
        lambda *args: touched.append(args),
    )
    with pytest.raises(SecurityError, match="already closed"):
        oblivious_multi_aggregate(ctx, table, (1,), True, None, None, ((0, 0, 5),))
    scratch = np.zeros((2, 50), dtype=np.uint32)
    with pytest.raises(SecurityError, match="reveal_columns on protocol scope 'done'"):
        ctx.reveal_columns(table, (1,), 0, 50, scratch)
    assert touched == [] and not scratch.any()


def test_threads_scanning_different_shards_never_share_scratch():
    """Two scans forced to be mid-block at the same moment."""
    gen = np.random.default_rng(1)
    tables = [_shared_table(gen, 2 * BLOCK + 11, 3, True, (1, 2)) for _ in range(2)]
    args = ((1, 2), True, 0, (1, 2, 7), ((1, 5, TOP - 5),), 2)
    runtime = MPCRuntime(seed=0)
    barrier = threading.Barrier(2, timeout=30)
    results, scratches = [None, None], [None, None]

    def scan(i, ctx):
        reveal = ctx.reveal_columns

        def in_step(table, columns, start, stop, out, live):
            scratches[i] = out
            reveal(table, columns, start, stop, out, live)
            barrier.wait()  # both blocks revealed, neither folded yet

        ctx.reveal_columns = in_step
        results[i] = oblivious_multi_aggregate(ctx, tables[i], *args)

    with runtime.parallel_protocol("query", 0, 2) as group:
        threads = [
            threading.Thread(target=scan, args=(i, group.contexts[i]))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
    assert not np.shares_memory(scratches[0], scratches[1])
    with runtime.protocol("reference") as ctx:
        for table, got in zip(tables, results):
            _assert_same(got, _reference(ctx, table, *args))
    # within one thread the buffers are reused, not reallocated
    first, _ = filter_mod._block_scratch(3)
    again, _ = filter_mod._block_scratch(2)
    assert first is again


def test_kernel_allocates_nothing_proportional_to_the_shard():
    """Scratch is sized by the block and the plan's columns alone."""
    gen = np.random.default_rng(2)
    table = _shared_table(gen, 6 * BLOCK, 4, True, (1, 2))
    args = ((1, 3), True, 0, (1, 2), ((2, 7, TOP),), 2)
    runtime = MPCRuntime(seed=0)
    with runtime.protocol("warm-up") as ctx:
        oblivious_multi_aggregate(ctx, table, *args)
    with runtime.protocol("measured") as ctx:
        tracemalloc.start()
        oblivious_multi_aggregate(ctx, table, *args)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    # numpy's 64 KiB cast buffer for the widening sum is the whole of it;
    # one revealed column of this table alone would be 768 KiB.
    assert peak < 100_000


def test_sums_wrap_in_the_ring_where_they_can():
    """One scan cannot reach 2^64 (fewer than 2^32 rows of 32-bit words),
    so the kernel's own additions never wrap; the warm merge of a cached
    prefix accumulator with the suffix just folded can, and must wrap
    exactly as the one-pass Z_{2^64} fold would."""
    gen = np.random.default_rng(7)
    schema = Schema(("c0", "c1"))
    plan = ViewScanPlan("v", (ScanAggregate("sum", "s", "c1"),))
    view = MaterializedView(schema, n_shards=2)
    cache, runtime = AccumulatorCache(), MPCRuntime(seed=0)
    near_top = np.uint64((1 << 64) - 5)
    cache.store(  # a prefix of zero rows whose sums sit just under 2^64
        view,
        plan,
        [
            ShardAccumulator(0, np.zeros(1, np.int64), np.full((1, 1), near_top), 0)
            for _ in range(2)
        ],
    )
    rows = np.full((6, 2), TOP, dtype=np.uint32)
    view.append(SharedTable.from_plain(schema, rows, np.ones(6, np.uint32), gen))
    answer, _, report = ParallelScanExecutor().execute_detailed(
        runtime, 0, view, plan, cache
    )
    assert report.mode == "warm" and report.delta_rows == 6
    assert answer.rows == (((2 * ((1 << 64) - 5) + 6 * TOP) % (1 << 64),),)
