"""Shared pieces of the truncated oblivious join operators.

Both join implementations (sort-merge, Example 5.1; nested-loop,
Algorithm 4) produce the same *logical* result under the same truncation
rules; they differ only in circuit shape and therefore cost.  Each finds
its candidate pairs its own way and hands them, as two flat index arrays
in scan order, to the two functions here: :func:`match_pairs_truncated`
decides which pairs survive the caps, :func:`emit_padded` writes the
survivors into the fixed-size output.

Truncation semantics (Eq. 3 / Section 5.1):

* every input record may contribute to at most ``ω`` output rows in one
  invocation — enforced on *both* sides of the join;
* callers additionally pass per-record remaining *lifetime* allowances
  (``caps``), from which the effective per-invocation cap is
  ``min(ω, cap)``; the engine derives caps from contribution budgets
  (``b``), giving the bounded lifetime contribution of KI-3.

The rule is greedy in scan order: a pair is taken when, at the moment
the scan reaches it, both its driver and its probe still have allowance.
Only drivers with the *same join key* can compete for a probe row, so
the matcher visits drivers in rounds — round ``r`` holds the ``r``-th
driver of every key — and within a round every driver sees disjoint
probe rows, which makes the round a handful of array operations.  The
Python loop runs once per round (the largest number of drivers sharing
one key, typically 1–3), not once per driver.

The output is laid out in fixed slot blocks: driver row ``i`` owns output
slots ``[i·ω, (i+1)·ω)``.  The block structure depends only on public
sizes, so revealing the (always fully padded) output array leaks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass
class JoinResult:
    """Exhaustively padded output of a truncated oblivious join.

    Attributes
    ----------
    rows:
        ``(slots·ω, left_width + right_width)`` padded output rows.
    flags:
        isView bits — True for real join tuples, False for dummies.
    left_emitted / right_emitted:
        Per-input-row counts of output tuples each record produced in this
        invocation (used by the contribution-budget ledger).
    dropped:
        Number of genuine join pairs discarded because a participant hit
        its per-invocation or lifetime cap.  This is exactly the
        truncation-induced accuracy loss studied in Section 7.4.
    """

    rows: np.ndarray
    flags: np.ndarray
    left_emitted: np.ndarray
    right_emitted: np.ndarray
    dropped: int

    @property
    def real_count(self) -> int:
        return int(self.flags.sum())


class TruncatedMatch(NamedTuple):
    """The pairs :func:`match_pairs_truncated` kept, and the bookkeeping.

    ``driver[k]``/``probe[k]`` is a kept pair and ``rank[k]`` its slot
    within the driver's ω-block (the number of pairs that driver took
    before it).  The kept pairs are listed round by round, not in scan
    order; their slots are distinct, so emission does not care.
    """

    driver: np.ndarray
    probe: np.ndarray
    rank: np.ndarray
    driver_emitted: np.ndarray
    probe_emitted: np.ndarray
    dropped: int


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Boolean mask: True where a run of equal ``values`` begins."""
    is_head = np.ones(values.size, dtype=bool)
    is_head[1:] = values[1:] != values[:-1]
    return is_head


def _run_start(is_head: np.ndarray) -> np.ndarray:
    """For each position, the index at which its run begins."""
    return np.maximum.accumulate(np.where(is_head, np.arange(is_head.size), 0))


def match_pairs_truncated(
    pair_driver: np.ndarray,
    pair_probe: np.ndarray,
    driver_keys: np.ndarray,
    omega: int,
    driver_caps: np.ndarray,
    probe_caps: np.ndarray,
) -> TruncatedMatch:
    """Greedy two-sided truncation over flat candidate pairs.

    Parameters
    ----------
    pair_driver / pair_probe:
        Candidate pair ``k`` joins driver row ``pair_driver[k]`` with
        probe row ``pair_probe[k]``; pairs are listed in the order the
        oblivious scan reaches them.
    driver_keys:
        Join key of every driver row (indexed by driver row).
    omega:
        Per-invocation contribution bound.
    driver_caps / probe_caps:
        Remaining lifetime allowances per row on each side.

    Preconditions (both join scans meet them by construction — their
    candidates come from per-key position groups): the pairs of one
    driver are contiguous and name distinct probe rows; a probe row is
    only ever paired with drivers of one key; drivers of one key appear
    in the order the scan visits them.

    Every candidate pair not kept — its driver's block was full, or its
    probe had no allowance left — counts as dropped.
    """
    pair_driver = np.asarray(pair_driver, dtype=np.int64)
    pair_probe = np.asarray(pair_probe, dtype=np.int64)
    probe_emitted = np.zeros(len(probe_caps), dtype=np.int64)
    n_pairs = pair_driver.size
    take = np.zeros(n_pairs, dtype=bool)
    rank = np.zeros(n_pairs, dtype=np.int64)

    if n_pairs:
        # One run of pairs per driver; a run's round is its rank among the
        # runs of the same key.
        is_head = _run_heads(pair_driver)
        run_keys = np.asarray(driver_keys)[pair_driver[is_head]]
        by_key = np.argsort(run_keys, kind="stable")
        run_round = np.empty(run_keys.size, dtype=np.int64)
        run_round[by_key] = np.arange(run_keys.size) - _run_start(
            _run_heads(run_keys[by_key])
        )
        n_rounds = int(run_round.max()) + 1
        bounds = [0, n_pairs]
        if n_rounds > 1:
            # Round-major order; stable, so runs stay whole and in order.
            pair_round = run_round[is_head.cumsum() - 1]
            by_round = np.argsort(pair_round, kind="stable")
            pair_driver, pair_probe = pair_driver[by_round], pair_probe[by_round]
            is_head = is_head[by_round]
            bounds = np.searchsorted(
                pair_round[by_round], np.arange(n_rounds + 1)
            ).tolist()
        run_head = _run_start(is_head)
        probe_allow = np.minimum(omega, np.asarray(probe_caps))[pair_probe]
        room = np.minimum(omega, np.asarray(driver_caps))[pair_driver]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            p = pair_probe[lo:hi]
            open_ = probe_emitted[p] < probe_allow[lo:hi]
            # Open pairs strictly before this one, counted from the head
            # of its own driver's run: the slot it would take.
            before = open_.cumsum() - open_
            rank[lo:hi] = before - before[run_head[lo:hi] - lo]
            take[lo:hi] = open_ & (rank[lo:hi] < room[lo:hi])
            probe_emitted[p[take[lo:hi]]] += 1  # distinct within a round

    driver = pair_driver[take]
    return TruncatedMatch(
        driver=driver,
        probe=pair_probe[take],
        rank=rank[take],
        driver_emitted=np.bincount(driver, minlength=len(driver_caps)).astype(
            np.int64
        ),
        probe_emitted=probe_emitted,
        dropped=int(n_pairs - driver.size),
    )


def emit_padded(
    probe_rows: np.ndarray,
    driver_rows: np.ndarray,
    omega: int,
    output_left: str,
    match: TruncatedMatch,
) -> JoinResult:
    """Write the kept pairs into the fixed ``n_driver · ω`` output.

    Driver row ``i`` owns slots ``[i·ω, (i+1)·ω)``; a kept pair lands at
    its ``rank`` inside the block, every other slot stays an all-zero
    dummy.  Columns are ``probe || driver`` when ``output_left ==
    "probe"``, else ``driver || probe``.
    """
    n_driver, w_driver = driver_rows.shape
    w_probe = probe_rows.shape[1]
    out_rows = np.zeros((n_driver * omega, w_probe + w_driver), dtype=np.uint32)
    out_flags = np.zeros(n_driver * omega, dtype=bool)
    if match.driver.size:
        slot = match.driver * omega + match.rank
        if output_left == "probe":
            out_rows[slot, :w_probe] = probe_rows[match.probe]
            out_rows[slot, w_probe:] = driver_rows[match.driver]
        else:
            out_rows[slot, :w_driver] = driver_rows[match.driver]
            out_rows[slot, w_driver:] = probe_rows[match.probe]
        out_flags[slot] = True
    return JoinResult(
        rows=out_rows,
        flags=out_flags,
        left_emitted=match.probe_emitted,
        right_emitted=match.driver_emitted,
        dropped=match.dropped,
    )
