"""Database-bound query planning: live candidates, live store sizes.

:mod:`repro.query.planner` scores plans over explicit candidate
descriptions; this module binds that core to a running
:class:`~repro.server.database.IncShrinkDatabase` — enumerating the
registered views that can answer a logical query, reading the public
padded sizes the cost formulas need, and deciding whether the NM
fallback is on the table (either globally enabled, or because an
NM-mode view was explicitly registered for this query class).

Plans are cached **by query structure**, and only their structural
half: the :class:`~repro.query.ast.LogicalQuery` AST is fully hashable
(join spec, aggregate list, GROUP BY domain, structural predicate), so a
dashboard re-issuing the same query shape pays candidate enumeration and
lowering — which views answer it, each one's
:class:`~repro.query.ast.ViewScanPlan`, whether an NM view was
registered for its join — once.  That half changes only when the set of
wired views does (registration, restore — a restored database is a new
planner — and, conservatively, reshard: :meth:`DatabasePlanner.
invalidate`).  The *view* prices are never cached: every call re-reads the
public sizes the cost formulas need (view lengths and shard counts, the
accumulator cache's cached-row counts, base-store totals) and re-runs
the same pricing functions a fresh :func:`~repro.query.planner.plan_query`
runs, so the chosen view,
``estimated_gates/seconds``, ``warm`` and ``cached_rows`` are always
those of a fresh plan — an upload re-prices, it does not evict.  The
one price kept is the NM join's, beside the two base-store row counts
it was priced at: it is a function of those alone, so it is re-priced
exactly when either count moves.  The cache is deliberately **not**
persisted (:mod:`repro.server.persistence` round-trips plan-cache-free).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.errors import SchemaError
from ..query.ast import LogicalQuery
from ..query.planner import (
    QueryPlan,
    ViewCandidate,
    ViewScanShape,
    cheapest,
    price_nm_join,
)
from ..query.rewrite import can_answer, lower_to_view_scan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .database import IncShrinkDatabase, ViewRuntime

#: Modes whose materialized view is a usable scan target.  NM views have
#: no view at all; OTM views are frozen at their (empty) setup state and
#: would win every cost comparison while answering nothing.
SCANNABLE_MODES = ("dp-timer", "dp-ant", "ep")

#: Bound on retained plan-cache entries (distinct query structures).
#: Entries outlive every upload, so without a cap a long-lived server fed
#: ever-new query shapes would grow the dict forever; LRU eviction keeps
#: the hot dashboard shapes resident.
PLAN_CACHE_MAX_ENTRIES = 256


@dataclass(slots=True)
class _Structure:
    """What planning one query shape needs that no upload changes."""

    #: every scannable view that materializes the query's join, with the
    #: query lowered onto its columns and priced per padded row
    answering: tuple[tuple["ViewRuntime", ViewScanShape], ...]
    #: an NM-mode view was registered for this join (NM is then allowed
    #: even with the database-wide fallback off)
    nm_view: bool
    #: ``((probe_rows, driver_rows), plan)``: the NM plan last priced,
    #: at those base-store row counts
    nm_priced: tuple[tuple[int, int], QueryPlan] | None = None


class DatabasePlanner:
    """Routes logical queries over one database's registered views."""

    def __init__(self, database: "IncShrinkDatabase", multiplicity: float = 1.0) -> None:
        self._db = database
        self.multiplicity = multiplicity
        self._cache: "OrderedDict[LogicalQuery, _Structure]" = OrderedDict()
        # Read sessions plan concurrently; the lock covers the LRU's
        # check-then-move only, never the pricing.
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    def invalidate(self) -> None:
        """Forget every cached structure (the set of wired views changed)."""
        with self._cache_lock:
            self._cache.clear()

    def _structure(self, query: LogicalQuery) -> _Structure:
        """The cached structural half of planning ``query``."""
        with self._cache_lock:
            cached = self._cache.get(query)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(query)
                return cached
            self.cache_misses += 1
        db = self._db
        for table in (query.probe_table, query.driver_table):
            if table not in db.tables:
                raise SchemaError(
                    f"query references unregistered table {table!r}; known "
                    f"tables: {sorted(db.tables)}"
                )
        answering = [
            vr for vr in db.views.values() if can_answer(query, vr.view_def)
        ]
        model = db.runtime.cost_model
        structure = _Structure(
            answering=tuple(
                (vr, ViewScanShape.of(query, vr.view_def, model))
                for vr in answering
                if vr.mode in SCANNABLE_MODES
            ),
            nm_view=any(vr.mode == "nm" for vr in answering),
        )
        with self._cache_lock:
            self._cache[query] = structure
            while len(self._cache) > PLAN_CACHE_MAX_ENTRIES:
                self._cache.popitem(last=False)
        return structure

    def _live_sizes(self, vr: "ViewRuntime", view_query) -> tuple:
        """``(padded_rows, n_shards, cached_rows)`` of one view now.

        The public shard count lets the core planner price the
        parallelism-aware wall-clock estimate
        (:meth:`repro.mpc.cost_model.CostModel.parallel_seconds`); the
        rows a warm accumulator-cache entry would let the scan skip price
        warm view scans at their suffix cost.
        """
        cache = self._db.accumulator_cache
        return (
            len(vr.view),
            vr.view.n_shards,
            0 if cache is None else cache.cached_rows(vr.view, view_query),
        )

    def candidates(self, query: LogicalQuery) -> list[ViewCandidate]:
        """Every registered view whose join structure answers ``query``."""
        return [
            ViewCandidate(
                vr.view_def,
                *self._live_sizes(vr, lower_to_view_scan(query, vr.view_def)),
            )
            for vr in self._db.views.values()
            if vr.mode in SCANNABLE_MODES and can_answer(query, vr.view_def)
        ]

    def nm_allowed(self, query: LogicalQuery) -> bool:
        if self._db.nm_fallback:
            return True
        return any(
            vr.mode == "nm" and can_answer(query, vr.view_def)
            for vr in self._db.views.values()
        )

    def plan(self, query: LogicalQuery) -> QueryPlan:
        """Choose the cheapest plan for ``query`` at the current sizes.

        Structurally identical queries share one cached structure; every
        call prices it afresh from the live public sizes, so the result
        is exactly what :func:`~repro.query.planner.plan_query` over
        :meth:`candidates` returns now.
        """
        db = self._db
        structure = self._structure(query)
        model = db.runtime.cost_model
        plans = [
            shape.priced(model, *self._live_sizes(vr, shape.view_query))
            for vr, shape in structure.answering
        ]
        if db.nm_fallback or structure.nm_view:
            plans.append(self._nm_plan(query, structure))
        return cheapest(query, plans)

    def _nm_plan(self, query: LogicalQuery, structure: _Structure) -> QueryPlan:
        """The NM plan at the current base-store sizes, priced only when
        they moved since the structure last priced it."""
        probe_store = self._db.tables[query.probe_table]
        driver_store = self._db.tables[query.driver_table]
        sizes = (probe_store.total_rows, driver_store.total_rows)
        priced = structure.nm_priced
        if priced is None or priced[0] != sizes:
            # Concurrent readers may both price; each stores a whole pair.
            priced = structure.nm_priced = (
                sizes,
                price_nm_join(
                    query,
                    *sizes,
                    self._db.runtime.cost_model,
                    self.multiplicity,
                    probe_store.schema.width,
                    driver_store.schema.width,
                ),
            )
        return priced[1]

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`plan` calls served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def cache_info(self) -> dict:
        """Hit/miss counters and current cache size (benchmark surface)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "hit_rate": self.hit_rate,
        }
