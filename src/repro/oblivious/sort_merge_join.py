"""b-truncated oblivious sort-merge join (paper Example 5.1).

Workflow, exactly as Figure 2 sketches it:

1. Union the two input tables (tagging each row with its side) and
   obliviously sort by the join attribute, breaking ties so the probe
   side orders before the driver side.
2. Linearly scan the sorted, merged table.  Whenever a driver tuple is
   visited, join it against the probe tuples of the same key group that
   satisfy the pair predicate and still have contribution allowance.
3. After visiting each driver tuple, emit exactly ``ω`` output slots —
   real joins first, dummies after; surplus genuine joins are truncated.

The output array size is therefore ``ω × |driver input|``, a public
quantity; the real cardinality stays hidden inside the isView bits.

**What is charged** is that circuit: one oblivious sort of the union, one
probe per member of a live driver's equal-key group (dummies included),
one padded emit per output slot.  **What is computed** is its result, in
one pass over that sort's output.  The sort key is the join key in its
high word and the tiebreak (side tag over position) in its low word, and
the sort carries only the isView bits, so a row's side, position and key
are read back from the two words of its sorted key.  The sorted union
already lists each key's live probes in position order ahead of its
drivers, so a live driver's candidates are one contiguous slice of the
live probe slots: four ``searchsorted`` calls find every driver's key
run (the probe charge, one call) and its slice.  Drivers arrive sorted
by key, so their matcher rounds are ranked in place and the flat pairs
are laid out round by round from the start.  The pair predicate is
evaluated once over them (through the owner's ``pair_predicate_batch``
when it has one, else per pair); a pair it rejects is closed, not
removed.  The two-sided truncation and the padded emission are
:func:`~repro.oblivious.join_common.match_runs` and
:func:`~repro.oblivious.join_common.emit_padded`.  The gate total of a
join equals, to the gate, what visiting the drivers one by one charged.

This module also provides the *untruncated* NM aggregate kernel
:func:`oblivious_join_multi_aggregate` used by the non-materialization
baseline, which recomputes the full join per query and aggregates inside
the circuit: one sort-and-scan folding any number of COUNT/SUM
accumulators over any number of public GROUP BY cells in a single pass.
It never builds a pair.  Every NM join is key equality plus a timestamp
band (:data:`Band`), so it is *factorized*: one side is the anchor (the
GROUP BY side, else the probe side); the other side's rows are sorted
once by ``(key << 32) | ts``; each anchor row (visited in that same
order, so the searches probe ascending) finds where its key and its
band ``[ts + lo, ts + hi]`` (clamped to ``[0, 2^32 − 1]``) start and end
in the partners with ``searchsorted``; and prefix sums over the
sorted partners turn those positions into the anchor's partner count and
partner-side SUMs (wrapping uint64, ``P[end] − P[start]``), while an
anchor-side SUM is ``value × count``.  Each anchor row then lands in its
GROUP BY cell.  Host time and memory are sized by the two tables, not by
the pairs.  The charges are still the pair circuit's: the same sort and
scan, and one probe plus the per-pair slot gates per live same-key
candidate pair — a count read from key-only bounds over the same sorted
array, so it varies with the data (ROADMAP item 6 re-prices it).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ..common.errors import ProtocolError
from ..mpc.runtime import ProtocolContext
from .join_common import (
    JoinResult,
    emit_padded,
    match_runs,
    run_pairs,
    sorted_round_major,
)
from .sort import charge_oblivious_sort, oblivious_sort

#: Rows per side :func:`truncated_sort_merge_join` accepts: the sort key's
#: 32-bit tiebreak word holds the side tag above a 24-bit position.
MAX_SIDE_ROWS = 1 << 24

#: The driver side's tag in that word: the bit above the position.
_DRIVER_TAG = 1 << 24

#: Where a uint64's low and high uint32 words sit in memory.
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)

#: Predicate over candidate pairs: receives the probe row and driver row
#: (1-D uint32 arrays) and returns whether the pair truly joins beyond key
#: equality (e.g. the "returned within 10 days" temporal condition).
PairPredicate = Callable[[np.ndarray, np.ndarray], bool]

#: A pair predicate as data, ``(left_ts_col, right_ts_col, lo, hi)``: the
#: pair ``(l, r)`` joins beyond key equality when
#: ``lo <= r[right_ts_col] − l[left_ts_col] <= hi`` (see
#: :attr:`repro.core.view_def.JoinViewDefinition.band`).
Band = tuple[int, int, int, int]

#: Largest timestamp: row words are uint32.
_TS_MAX = (1 << 32) - 1


def _words(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 32-bit words of uint64 ``keys``, as views."""
    halves = keys.view(np.uint32)
    return halves[_LOW::2], halves[_HIGH::2]


@lru_cache(maxsize=8)
def _tiebreak(n_probe: int, n_driver: int) -> np.ndarray:
    """The sort keys' low words for a union of these side sizes: the side
    tag above each row's position on its side (read-only, shared)."""
    words = np.arange(n_probe + n_driver, dtype=np.uint32)
    words[n_probe:] += np.uint32(_DRIVER_TAG - n_probe)
    words.flags.writeable = False
    return words


def _predicate_keep_mask(
    pair_predicate: PairPredicate,
    probe_rows: np.ndarray,
    driver_rows: np.ndarray,
) -> np.ndarray:
    """Evaluate ``pair_predicate`` over aligned candidate pair arrays.

    ``probe_rows[k]`` is paired with ``driver_rows[k]``.  When the
    predicate is a bound ``pair_predicate`` method whose owner also
    exposes ``pair_predicate_batch`` (e.g.
    :class:`~repro.core.view_def.JoinViewDefinition`), the vectorized
    form is used; otherwise it falls back to per-pair calls.  Both paths
    return the same boolean mask — the batch hook is a speed contract,
    not a semantic one.
    """
    owner = getattr(pair_predicate, "__self__", None)
    if owner is not None and getattr(pair_predicate, "__func__", None) is getattr(
        type(owner), "pair_predicate", None
    ):
        batch = getattr(owner, "pair_predicate_batch", None)
        if batch is not None:
            return np.asarray(batch(probe_rows, driver_rows), dtype=bool)
    return np.fromiter(
        (bool(pair_predicate(p, d)) for p, d in zip(probe_rows, driver_rows)),
        dtype=bool,
        count=len(probe_rows),
    )


def truncated_sort_merge_join(
    ctx: ProtocolContext,
    probe_rows: np.ndarray,
    probe_flags: np.ndarray,
    probe_key_col: int,
    probe_caps: np.ndarray,
    driver_rows: np.ndarray,
    driver_flags: np.ndarray,
    driver_key_col: int,
    driver_caps: np.ndarray,
    omega: int,
    pair_predicate: PairPredicate | None = None,
    output_left: str = "probe",
) -> JoinResult:
    """Join driver rows against probe rows with ω-truncation.

    The *driver* side is the newly uploaded batch whose arrival triggered
    this Transform invocation; every driver slot ``i`` owns output rows
    ``[i·ω, (i+1)·ω)``.  The *probe* side is the still-active (budgeted)
    window of the other table.  Output columns are
    ``probe || driver`` when ``output_left == "probe"`` (the default,
    matching "T1 records are ordered before T2"), else ``driver || probe``.

    Obliviousness: the sort is a fixed network over the public union size;
    the scan visits every merged tuple once; the output size is fixed.
    Charges: one oblivious sort of the union, one probe per other member
    of each live driver's equal-key group, one padded emit per output slot.
    """
    n_probe, w_probe = probe_rows.shape
    n_driver, w_driver = driver_rows.shape
    out_width = w_probe + w_driver
    if max(n_probe, n_driver) > MAX_SIDE_ROWS:
        raise ProtocolError(
            f"sort-merge join takes at most {MAX_SIDE_ROWS} rows per side "
            f"(the position tiebreak is 24 bits), got {n_probe} probe and "
            f"{n_driver} driver rows"
        )

    # --- 1. oblivious sort of the tagged union --------------------------
    # Key high, tiebreak low: the side tag (probe 0 before driver 1) above
    # the row's position on its side.  The keys are distinct, so the sort
    # is one permutation; it carries the rows' isView bits along.
    sort_keys = np.empty(n_probe + n_driver, dtype=np.uint64)
    tiebreak, key = _words(sort_keys)
    key[:n_probe] = probe_rows[:, probe_key_col]
    key[n_probe:] = driver_rows[:, driver_key_col]
    tiebreak[:] = _tiebreak(n_probe, n_driver)
    union_payload_words = max(w_probe, w_driver) + 2  # rows + side tag + flag
    sorted_keys, [live] = oblivious_sort(
        ctx,
        sort_keys,
        [np.concatenate((probe_flags, driver_flags)).astype(bool, copy=False)],
        union_payload_words,
    )

    # --- 2. linear scan: candidate pairs of every live driver -------------
    # One pass over the sorted union: each key's rows form one run, its
    # probes (in position order) ahead of its drivers (in the order the
    # circuit visits them).  Dummy rows never join.
    tiebreak, sorted_union_keys = _words(sorted_keys)
    is_probe = tiebreak < _DRIVER_TAG
    probe_slots = (live & is_probe).nonzero()[0]
    driver_slots = (live & ~is_probe).nonzero()[0]
    live_keys = sorted_union_keys[driver_slots]

    # Each live driver is tested against its whole equal-key run of the
    # union (dummies included, itself excluded) ...
    run_lo = sorted_union_keys.searchsorted(live_keys, side="left")
    run_hi = sorted_union_keys.searchsorted(live_keys, side="right")
    ctx.charge_join_probes(int((run_hi - run_lo).sum()) - driver_slots.size, out_width)

    # ... and pairs with the live probes of that run, which all sit ahead
    # of it: a contiguous slice of the live probe slots.  The drivers are
    # listed in the matcher's round-major order before the pairs are laid
    # out, so each round's pairs come out contiguous.
    first = probe_slots.searchsorted(run_lo)
    counts = probe_slots.searchsorted(driver_slots) - first
    drivers = tiebreak[driver_slots].astype(np.int64) - _DRIVER_TAG
    by_round, bounds = sorted_round_major(live_keys)
    if by_round is not None:
        drivers, first, counts = drivers[by_round], first[by_round], counts[by_round]
    # A probe slot's tiebreak is its row's position (side tag 0).
    pair_probe = tiebreak[probe_slots[run_pairs(first, counts)]]
    pair_driver = drivers.repeat(counts)
    keep = None
    if pair_predicate is not None and pair_probe.size:
        keep = _predicate_keep_mask(
            pair_predicate, probe_rows[pair_probe], driver_rows[pair_driver]
        )
    match = match_runs(
        drivers, counts, bounds, pair_driver, pair_probe, keep, omega,
        driver_caps, probe_caps,
    )

    # --- 3. fixed-size padded emission -----------------------------------
    ctx.charge_scan(n_driver * omega, out_width)
    return emit_padded(probe_rows, driver_rows, omega, output_left, match)


def oblivious_join_multi_aggregate(
    ctx: ProtocolContext,
    left_rows: np.ndarray,
    left_flags: np.ndarray,
    left_key_col: int,
    right_rows: np.ndarray,
    right_flags: np.ndarray,
    right_key_col: int,
    sum_specs: Sequence[tuple[str, int]] = (),
    need_count: bool = True,
    group_spec: tuple[str, int] | None = None,
    group_domain: Sequence[int] | None = None,
    clause_specs: Sequence[tuple[str, int, int, int]] = (),
    band: Band | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Untruncated NM join folding every aggregate in one sort-and-scan.

    The non-materialization baseline's unified query kernel: over the
    tagged union of both full tables it accumulates — for every
    qualifying pair — a count and one 64-bit sum per entry of
    ``sum_specs`` (each ``(side, column)`` with side ``"left"`` or
    ``"right"``), routed into the GROUP BY cell selected by
    ``group_spec``/``group_domain`` (pairs outside the public domain are
    excluded; a duplicated domain value routes to its last slot).
    ``clause_specs`` are residual interval predicates
    ``(side, column, lo, hi)``; ``band`` is the join's own condition
    beyond key equality (the temporal window).  With none, every
    same-key pair joins.

    Returns ``(counts, sums)`` shaped like
    :func:`repro.oblivious.filter.oblivious_multi_aggregate`.  Nothing
    but the final aggregates leaves the protocol — but the circuit grows
    with the whole database, which is precisely the redundant-computation
    overhead IncShrink's materialized view removes.  Charges: one
    oblivious sort of the union, one probe per live same-key candidate
    pair, per-pair accumulator/routing gates via
    :meth:`~repro.mpc.cost_model.CostModel.aggregate_slot_gates`, one
    padded scan of the union.  The answer is computed factorized (see
    the module docstring): no pair is ever enumerated.
    """
    grouped = group_spec is not None
    if grouped and not group_domain:
        raise ValueError("grouped aggregation needs a non-empty public domain")
    n_groups = len(group_domain) if grouped else 1
    n_left, w_left = left_rows.shape if left_rows.size else (0, left_rows.shape[1])
    n_right, w_right = right_rows.shape if right_rows.size else (0, right_rows.shape[1])
    out_width = w_left + w_right

    # The circuit sorts the tagged union; the accumulators below are
    # commutative, so the simulator charges that sort and never needs
    # its order.
    payload_words = max(w_left, w_right) + 2
    charge_oblivious_sort(ctx, n_left + n_right, payload_words)

    # The anchor side is the GROUP BY side (its rows pick the cell), else
    # the left (probe) side; every row of the other side is a partner.
    anchor_left = not grouped or group_spec[0] == "left"
    sides = (
        (left_rows, left_flags, left_key_col, n_left),
        (right_rows, right_flags, right_key_col, n_right),
    )
    (a_rows, a_flags, a_key, a_n), (p_rows, p_flags, p_key, p_n) = (
        sides if anchor_left else sides[::-1]
    )
    if band is None:
        a_ts_col = p_ts_col = None
    else:
        a_ts_col, p_ts_col = (band[0], band[1]) if anchor_left else (band[1], band[0])

    def _by_key_ts(rows: np.ndarray, n: int, key_col: int, ts_col: int | None):
        """The order of ``rows`` by ``(key << 32) | ts`` (by key alone
        without a band) and those words sorted.  Ties need no order: a
        search never splits a run of equal words."""
        words = rows[:n, key_col].astype(np.uint64) << np.uint64(32)
        if ts_col is not None:
            words |= rows[:n, ts_col].astype(np.uint64)
        order = np.argsort(words)
        return order, words[order]

    def _weight(rows: np.ndarray, live: np.ndarray, is_left: bool) -> np.ndarray:
        """Live rows that pass every residual clause on their side."""
        keep = live.copy()
        for s, c, lo, hi in clause_specs:
            if (s == "left") == is_left:
                vals = rows[:, c].astype(np.int64)
                keep &= (vals >= lo) & (vals <= hi)
        return keep

    # Partners sorted once; prefix counts of live partners (the charge)
    # and of weighted partners (the answer).
    order, sorted_keys = _by_key_ts(p_rows, p_n, p_key, p_ts_col)
    p_live = np.asarray(p_flags, dtype=bool)[:p_n]
    p_weight = _weight(p_rows[:p_n], p_live, not anchor_left)[order]
    live_prefix = np.zeros(p_n + 1, dtype=np.int64)
    np.cumsum(p_live[order], out=live_prefix[1:])
    weight_prefix = np.zeros(p_n + 1, dtype=np.int64)
    np.cumsum(p_weight, out=weight_prefix[1:])

    # Anchors in the same order, so every search below probes with
    # ascending needles; then each anchor's key run, and within it its
    # band, as positions in the sorted partners.
    a_order, _ = _by_key_ts(a_rows, a_n, a_key, a_ts_col)
    a_rows = a_rows[:a_n][a_order]
    a_live = np.asarray(a_flags, dtype=bool)[:a_n][a_order]
    a_key_word = a_rows[:, a_key].astype(np.uint64) << np.uint64(32)
    key_start = np.searchsorted(sorted_keys, a_key_word, side="left")
    key_stop = np.searchsorted(sorted_keys, a_key_word | np.uint64(_TS_MAX), side="right")
    total_pairs = int(
        np.dot(live_prefix[key_stop] - live_prefix[key_start], a_live.astype(np.int64))
    )
    if band is None:
        start, stop = key_start, key_stop
    else:
        # r.ts − l.ts ∈ [lo, hi]; the delta of two uint32 words lies in
        # ±(2^32 − 1), so clamping the window to ±2^32 changes nothing.
        lo, hi = (max(-(1 << 32), min(int(v), 1 << 32)) for v in band[2:])
        a_ts = a_rows[:, a_ts_col].astype(np.int64)
        band_lo, band_hi = (a_ts + lo, a_ts + hi) if anchor_left else (a_ts - hi, a_ts - lo)
        empty = (band_lo > band_hi) | (band_lo > _TS_MAX) | (band_hi < 0)
        start = np.searchsorted(
            sorted_keys,
            a_key_word | np.clip(band_lo, 0, _TS_MAX).astype(np.uint64),
            side="left",
        )
        stop = np.searchsorted(
            sorted_keys,
            a_key_word | np.clip(band_hi, 0, _TS_MAX).astype(np.uint64),
            side="right",
        )
        stop[empty] = start[empty]

    # Per candidate pair: the accumulator/routing gates plus one ring
    # comparison per residual clause — the same predicate charge the
    # view scan pays per row, so neither path evaluates clauses for free.
    if total_pairs:
        ctx.charge_join_probes(total_pairs, out_width)
        slot_gates = ctx.cost_model.aggregate_slot_gates(
            need_count, len(sum_specs), n_groups, grouped
        ) + ctx.cost_model.predicate_eval_gates(len(clause_specs))
        if slot_gates:
            ctx.charge_gates(total_pairs * slot_gates)

    a_weight = _weight(a_rows, a_live, anchor_left)
    if grouped:
        domain = np.fromiter(
            (int(v) for v in group_domain), dtype=np.int64, count=n_groups
        )
        # Duplicate domain values route to the *last* occurrence — the
        # dict-build semantics of the historical loop.  A stable argsort
        # plus right-bisect picks exactly that slot.
        domain_order = np.argsort(domain, kind="stable")
        sorted_domain = domain[domain_order]
        gvals = a_rows[:, group_spec[1]].astype(np.int64)
        pos = np.maximum(np.searchsorted(sorted_domain, gvals, side="right") - 1, 0)
        a_weight &= sorted_domain[pos] == gvals
        cell = domain_order[pos]
    else:
        cell = np.zeros(a_n, dtype=np.int64)
    count = (weight_prefix[stop] - weight_prefix[start]) * a_weight

    counts = np.zeros(n_groups, dtype=np.int64)
    sums = np.zeros((n_groups, len(sum_specs)), dtype=np.uint64)
    if need_count:
        np.add.at(counts, cell, count)
    for s, (spec_side, col) in enumerate(sum_specs):
        if (spec_side == "left") == anchor_left:
            # count copies of the anchor's own value (wrapping uint64).
            part = a_rows[:, col].astype(np.uint64) * count.astype(np.uint64)
        else:
            value_prefix = np.zeros(p_n + 1, dtype=np.uint64)
            np.cumsum(
                p_rows[:p_n, col].astype(np.uint64)[order] * p_weight,
                out=value_prefix[1:],
            )
            part = (value_prefix[stop] - value_prefix[start]) * a_weight
        np.add.at(sums[:, s], cell, part)
    ctx.charge_scan(n_left + n_right, payload_words)
    return counts, sums
