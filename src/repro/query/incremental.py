"""Incremental query execution: prefix-accumulator caching per shard.

IncShrink's thesis is paying MPC cost proportional to the *delta*, not
the data — yet a padded view scan rescans the whole view on every
query.  This module closes that gap for repeat queries.  The one-pass
kernel (:func:`~repro.oblivious.filter.oblivious_multi_aggregate`) folds
each row into COUNT/SUM accumulators with **associative, order-local**
operations: counts add in Z, sums add in Z_{2^64}.  And a sharded
view is strictly append-only within an epoch — round-robin placement
continues from the public total, so every shard's row sequence is a
prefix of its later self (:attr:`~repro.storage.materialized_view.
MaterializedView.append_epoch`).  Together those give an exact
decomposition::

    fold(shard[0:n]) = fold(shard[0:w]) (+) fold(shard[w:n])

where ``(+)`` is plain ring addition of the accumulator slots.  An
:class:`AccumulatorCache` remembers ``fold(shard[0:w])`` per (query
structure, shard) together with the watermark ``w``; a repeat query
scans only each shard's suffix ``[w, len)``, charges gates for the
suffix alone, and merges by ring addition — **byte-identical** to a
cold full scan, at O(delta) gate cost.

Leakage argument
----------------
Everything the cache stores or keys on is either already public or
ciphertext-equivalent state the servers hold anyway:

* **keys** — the lowered :class:`~repro.query.ast.ViewScanPlan` (query
  structure, public by assumption: the analyst sends it in the clear)
  and the view's public ``container_uid``/``append_epoch``;
* **watermarks** — per-shard row counts at past scan times, a pure
  function of the public length history;
* **values** — COUNT/SUM accumulator slots, i.e. protocol-internal
  plaintext the evaluating servers of the simulated 2PC already
  recompute on every query.  In a deployed 2PC engine these would be
  retained as secret shares; retention changes *when* the values exist,
  not *who* sees what.

The cache sits strictly **before** the Laplace release: a warm answer
is bit-equal to the cold answer, so the noise added on top — and
therefore the realized ε — is untouched.  Cache hits and misses are
functions of (public) query structure and length history only, so the
hit/miss gauges leak nothing beyond the transcript.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..storage.materialized_view import MaterializedView
from .ast import ViewScanPlan

#: Default bound on distinct (query structure, view) entries retained.
DEFAULT_MAX_CACHED_QUERIES = 64


@dataclass
class ShardAccumulator:
    """One shard's cached prefix fold: accumulators + how far they reach.

    ``counts``/``sums`` are exactly the arrays
    :func:`~repro.oblivious.filter.oblivious_multi_aggregate` returns
    (int64 counts, uint64 sums — ring addition merges them losslessly);
    ``gates`` is the cumulative gate bill of scanning ``[0, watermark)``,
    i.e. the work a warm query *avoids* recharging.
    """

    watermark: int
    counts: np.ndarray
    sums: np.ndarray
    gates: int


@dataclass
class CacheEntry:
    """Per-shard prefix accumulators of one query structure over one view."""

    epoch: int
    shards: list[ShardAccumulator]

    @property
    def cached_rows(self) -> int:
        return sum(acc.watermark for acc in self.shards)

    @property
    def cached_gates(self) -> int:
        return sum(acc.gates for acc in self.shards)


@dataclass(frozen=True)
class ScanReport:
    """How one view scan actually executed (plan lines, stats, benches).

    ``mode`` is ``"cold"`` (full scan; accumulators now cached),
    ``"warm"`` (suffix-only scan merged with cached prefixes), or
    ``"off"`` (incremental execution disabled).  ``saved_gates`` is the
    prefix gate bill a warm scan did **not** recharge — 0 unless warm.
    """

    mode: str
    total_rows: int
    delta_rows: int
    cached_rows: int
    gates: int
    saved_gates: int


class AccumulatorCache:
    """Bounded LRU cache of per-shard prefix accumulators.

    One instance per database (never persisted — a restored database
    starts cold and its views advance their epoch anyway).  Keys
    are ``(container_uid, lowered plan)``; both are public, see the
    module docstring for the leakage argument.  ``max_cached_queries``
    bounds the number of distinct (query structure, view) entries; each
    entry holds one small accumulator block per shard, so memory is
    O(entries × shards × groups), independent of view size.
    """

    def __init__(
        self, max_cached_queries: int = DEFAULT_MAX_CACHED_QUERIES
    ) -> None:
        if max_cached_queries < 1:
            raise ConfigurationError(
                f"max_cached_queries must be >= 1, got {max_cached_queries}"
            )
        self.max_cached_queries = max_cached_queries
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- keys -------------------------------------------------------------
    @staticmethod
    def key_for(view: MaterializedView, plan: ViewScanPlan) -> tuple:
        """Public cache key: view identity × lowered query structure."""
        return (view.container_uid, plan)

    # -- validity ---------------------------------------------------------
    def _valid(
        self, entry: CacheEntry, view: MaterializedView
    ) -> bool:
        """A cached prefix is mergeable iff nothing but appends happened.

        Same epoch (no clear/reshard/restore), same shard count, and
        every shard at least as long as its watermark — all pure
        functions of the public mutation history.
        """
        if entry.epoch != view.append_epoch:
            return False
        lengths = view.shard_lengths()
        if len(entry.shards) != len(lengths):
            return False
        return all(
            acc.watermark <= n for acc, n in zip(entry.shards, lengths)
        )

    # -- lookup / store ---------------------------------------------------
    def lookup(
        self, view: MaterializedView, plan: ViewScanPlan
    ) -> CacheEntry | None:
        """The mergeable entry for ``(view, plan)``, else ``None``.

        Counts a hit/miss; silently drops entries invalidated by a
        rebuild (their prefixes can never become mergeable again).
        """
        key = self.key_for(view, plan)
        entry = self._entries.get(key)
        if entry is not None and not self._valid(entry, view):
            del self._entries[key]
            self.invalidations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def cached_rows(
        self, view: MaterializedView, plan: ViewScanPlan
    ) -> int:
        """Rows a warm scan would skip — the planner's estimate input.

        Unlike :meth:`lookup` this never touches the hit/miss counters
        or the LRU order: planning a query is not executing it.
        """
        entry = self._entries.get(self.key_for(view, plan))
        if entry is None or not self._valid(entry, view):
            return 0
        return entry.cached_rows

    def store(
        self,
        view: MaterializedView,
        plan: ViewScanPlan,
        shards: list[ShardAccumulator],
    ) -> None:
        """Remember the full-prefix accumulators just computed."""
        key = self.key_for(view, plan)
        self._entries[key] = CacheEntry(
            epoch=view.append_epoch, shards=shards
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_cached_queries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- invalidation ------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every entry (reshard/restore; epoch checks also cover this)."""
        if self._entries:
            self.invalidations += len(self._entries)
            self._entries.clear()

    # -- observability -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/evict gauges (ServingStats → ``stats`` frames)."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_cached_queries": self.max_cached_queries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hits / total if total else 0.0,
        }
