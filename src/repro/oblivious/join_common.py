"""Shared pieces of the truncated oblivious join operators.

Both join implementations (sort-merge, Example 5.1; nested-loop,
Algorithm 4) produce the same *logical* result under the same truncation
rules; they differ only in circuit shape and therefore cost.  Each finds
its candidate pairs its own way and hands them to the matcher as
*runs* — one per driver, its candidate probes in scan order — which
decides which pairs survive the caps; :func:`emit_padded` writes the
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
one key, typically one), not once per driver.

The matcher is one pass over runs already laid out round by round
(:func:`match_runs`).  The sort-merge scan meets drivers sorted by key,
so it ranks them in place (:func:`sorted_round_major`) and lays its
pairs out in that order from the start; the nested-loop scan lists flat
pairs by driver position, and :func:`match_pairs_truncated` cuts them
into runs and orders them with one stable sort on key
(:func:`round_major`).  A pair the join's predicate rejects stays in its
run as a closed pair (``keep``), so the predicate costs no compaction.
What each probe row has emitted is tracked only across rounds; the
emitted counts of both sides are counted once, from the kept pairs.

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
        return int(np.count_nonzero(self.flags))


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


def sorted_round_major(keys: np.ndarray) -> tuple[np.ndarray | None, list[int]]:
    """Visit order of driver runs for the matcher, and its round bounds.

    Run ``i`` (of key ``keys[i]``, in scan order, which here is sorted by
    key — the sort-merge scan) belongs to round ``r`` when it is the
    ``r``-th run of its key.  Returns ``(None, [0, n])`` when every run
    is alone on its key — one round, scan order — else the stable
    round-major permutation of the runs and the run index at which each
    round starts (plus ``n``).
    """
    if not np.count_nonzero(keys[1:] == keys[:-1]):
        return None, [0, keys.size]
    return _round_major(np.arange(keys.size) - keys.searchsorted(keys))


def round_major(keys: np.ndarray) -> tuple[np.ndarray | None, list[int]]:
    """:func:`sorted_round_major` for runs in any order (the nested-loop
    scan visits drivers by position): ranked by a stable sort on key."""
    by_key = keys.argsort(kind="stable")
    ordered = keys[by_key]
    if not np.count_nonzero(ordered[1:] == ordered[:-1]):
        return None, [0, keys.size]
    run_round = np.empty(keys.size, dtype=np.int64)
    run_round[by_key] = np.arange(keys.size) - ordered.searchsorted(ordered)
    return _round_major(run_round)


def _round_major(run_round: np.ndarray) -> tuple[np.ndarray, list[int]]:
    by_round = run_round.argsort(kind="stable")
    bounds = run_round[by_round].searchsorted(np.arange(int(run_round.max()) + 2))
    return by_round, bounds.tolist()


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
    # One run of pairs per driver.
    heads = np.flatnonzero(np.diff(pair_driver, prepend=-1))
    drivers = pair_driver[heads]
    counts = np.diff(heads, append=pair_driver.size)
    by_round, bounds = round_major(np.asarray(driver_keys)[drivers])
    if by_round is not None:
        drivers, counts = drivers[by_round], counts[by_round]
        pair_order = run_pairs(heads[by_round], counts)
        pair_driver, pair_probe = pair_driver[pair_order], pair_probe[pair_order]
    return match_runs(
        drivers, counts, bounds, pair_driver, pair_probe, None, omega,
        driver_caps, probe_caps,
    )


def run_pairs(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``[first[i], first[i] + counts[i])``."""
    ends = counts.cumsum()
    return (first + counts - ends).repeat(counts) + np.arange(ends[-1] if ends.size else 0)


def match_runs(
    drivers: np.ndarray,
    counts: np.ndarray,
    bounds: list[int],
    pair_driver: np.ndarray,
    pair_probe: np.ndarray,
    keep: np.ndarray | None,
    omega: int,
    driver_caps: np.ndarray,
    probe_caps: np.ndarray,
) -> TruncatedMatch:
    """:func:`match_pairs_truncated` over runs already in matcher order.

    Run ``i`` is driver ``drivers[i]`` and the next ``counts[i]`` pairs
    (``pair_driver`` repeats the driver per pair); rounds are the runs
    ``[bounds[r], bounds[r + 1])`` (see :func:`sorted_round_major`).
    ``keep`` (or None: all) marks the pairs that are candidates at all —
    the others are skipped, neither taken nor dropped.
    """
    n_pairs = pair_probe.size
    room = np.minimum(np.asarray(driver_caps)[drivers], omega).repeat(counts)
    # Where each run starts among the pairs.
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    counts.cumsum(out=starts[1:])
    # A probe row is open while it emitted less than min(ω, cap): in the
    # first round, while its cap is positive (ω ≥ 1).
    probe_allow = np.asarray(probe_caps)[pair_probe]
    if len(bounds) == 2:
        open_ = probe_allow > 0
        if keep is not None:
            open_ &= keep
        rank, take = _match_round(open_, starts[:-1], counts, room)
    else:
        # Later rounds also need what each probe row emitted before.
        probe_allow = np.minimum(probe_allow, omega)
        used = np.zeros(len(probe_caps), dtype=np.int64)
        rank = np.empty(n_pairs, dtype=np.int64)
        take = np.empty(n_pairs, dtype=bool)
        for a, b in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(starts[a]), int(starts[b])
            p = pair_probe[lo:hi]
            open_ = probe_allow[lo:hi] > used[p]
            if keep is not None:
                open_ &= keep[lo:hi]
            rank[lo:hi], take[lo:hi] = _match_round(
                open_, starts[a:b] - lo, counts[a:b], room[lo:hi]
            )
            used[p[take[lo:hi]]] += 1  # distinct within a round

    kept = take.nonzero()[0]
    driver, probe = pair_driver[kept], pair_probe[kept]
    return TruncatedMatch(
        driver=driver,
        probe=probe,
        rank=rank[kept],
        driver_emitted=np.bincount(driver, minlength=len(driver_caps)),
        probe_emitted=np.bincount(probe, minlength=len(probe_caps)),
        dropped=(n_pairs if keep is None else int(np.count_nonzero(keep))) - kept.size,
    )


def _match_round(
    open_: np.ndarray, run_starts: np.ndarray, counts: np.ndarray, room: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One round of :func:`match_runs`: every probe row meets one driver,
    so a pair whose probe is open takes the slot counted by the open pairs
    strictly before it in its own driver's run, if the driver has room
    for it.  Returns each pair's slot and whether it is taken."""
    opened = open_.cumsum()
    rank = opened - open_
    rank -= np.concatenate(([0], opened))[run_starts].repeat(counts)
    return rank, open_ & (rank < room)


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
