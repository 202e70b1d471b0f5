"""Database-bound query planning: live candidates, live store sizes.

:mod:`repro.query.planner` scores plans over explicit candidate
descriptions; this module binds that core to a running
:class:`~repro.server.database.IncShrinkDatabase` — enumerating the
registered views that can answer a logical query, reading the public
padded sizes the cost formulas need, and deciding whether the NM
fallback is on the table (either globally enabled, or because an
NM-mode view was explicitly registered for this query class).

Planned queries are cached **by query structure**: the
:class:`~repro.query.ast.LogicalQuery` AST is fully hashable (join spec,
aggregate list, GROUP BY domain, structural predicate), so a dashboard
re-issuing the same query shape pays the candidate enumeration and cost
scoring once per relevant state change.  Each cached plan carries a
*validity tuple* — the answering views' public
:attr:`~repro.storage.sharded_container.ShardedTableContainer.
content_version`\\ s and incremental cached-row counts, the base-store
sizes the NM estimate reads, and the requested scan backend — and is
reused exactly while that tuple is unchanged.  Keying on the inputs the
cost formulas actually read (instead of the database-wide
``state_version``) means uploads into view A's tables no longer evict
plans for an unrelated view B.  The cache is deliberately **not**
persisted — a restored database replans from its restored sizes
(:mod:`repro.server.persistence` round-trips plan-cache-free).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from ..common.errors import SchemaError
from ..query.ast import LogicalQuery
from ..query.planner import QueryPlan, ViewCandidate, plan_query
from ..query.rewrite import can_answer, lower_to_view_scan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .database import IncShrinkDatabase

#: Modes whose materialized view is a usable scan target.  NM views have
#: no view at all; OTM views are frozen at their (empty) setup state and
#: would win every cost comparison while answering nothing.
SCANNABLE_MODES = ("dp-timer", "dp-ant", "ep")

#: Bound on retained plan-cache entries (distinct query structures).
#: Entries now survive unrelated state changes, so without a cap a
#: long-lived server fed ever-new query shapes would grow the dict
#: forever; LRU eviction keeps the hot dashboard shapes resident.
PLAN_CACHE_MAX_ENTRIES = 256


class DatabasePlanner:
    """Routes logical queries over one database's registered views."""

    def __init__(self, database: "IncShrinkDatabase", multiplicity: float = 1.0) -> None:
        self._db = database
        self.multiplicity = multiplicity
        self._cache: "OrderedDict[LogicalQuery, tuple[tuple, QueryPlan]]" = (
            OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0

    def _cached_rows(self, query: LogicalQuery, vr) -> int:
        """Rows an incremental scan of ``vr.view`` would skip for ``query``."""
        cache = self._db.accumulator_cache
        if cache is None:
            return 0
        return cache.cached_rows(vr.view, lower_to_view_scan(query, vr.view_def))

    def candidates(self, query: LogicalQuery) -> list[ViewCandidate]:
        """Every registered view whose join structure answers ``query``.

        Each candidate carries its view's public shard count so the core
        planner can price the parallelism-aware wall-clock estimate
        (:meth:`repro.mpc.cost_model.CostModel.parallel_seconds`), the
        execution backend the scan executor resolved for it (purely
        informational: simulated seconds are backend-independent), and
        the rows a warm accumulator-cache entry would let the scan skip
        (so warm view scans are priced at their suffix cost).
        """
        return [
            ViewCandidate(
                vr.view_def,
                len(vr.view),
                n_shards=vr.view.n_shards,
                scan_backend=self._db.scan_executor.backend_for(vr.view),
                cached_rows=self._cached_rows(query, vr),
            )
            for vr in self._db.views.values()
            if vr.mode in SCANNABLE_MODES and can_answer(query, vr.view_def)
        ]

    def _validity(self, lq: LogicalQuery) -> tuple:
        """Everything the cost comparison for ``lq`` actually reads.

        Per answering view: content version (covers size, shard count,
        reshard/restore) and the incremental cached-row count (a cold →
        warm transition changes the view's price without any content
        change).  Plus the base-store sizes the NM estimate reads and
        the requested scan backend.  A cached plan is reused iff this
        tuple is unchanged — so an upload into unrelated tables evicts
        nothing.
        """
        db = self._db
        views = tuple(
            (
                name,
                vr.view.content_version,
                self._cached_rows(lq, vr),
            )
            for name, vr in db.views.items()
            if vr.mode in SCANNABLE_MODES and can_answer(lq, vr.view_def)
        )
        return (
            views,
            db.tables[lq.probe_table].total_rows,
            db.tables[lq.driver_table].total_rows,
            db.scan_backend,
        )

    def nm_allowed(self, query: LogicalQuery) -> bool:
        if self._db.nm_fallback:
            return True
        return any(
            vr.mode == "nm" and can_answer(query, vr.view_def)
            for vr in self._db.views.values()
        )

    def plan(self, query: LogicalQuery) -> QueryPlan:
        """Choose the cheapest plan for ``query`` at the current sizes.

        Structurally identical queries hit the plan cache while the
        inputs their cost comparison reads (:meth:`_validity`) are
        unchanged — uploads into other views' tables no longer evict
        them.  Cache access is benign under concurrent read sessions: a
        race costs at most one redundant (deterministic, identical)
        planning pass.
        """
        db = self._db
        for table in (query.probe_table, query.driver_table):
            if table not in db.tables:
                raise SchemaError(
                    f"query references unregistered table {table!r}; known "
                    f"tables: {sorted(db.tables)}"
                )
        validity = self._validity(query)
        cached = self._cache.get(query)
        if cached is not None and cached[0] == validity:
            self.cache_hits += 1
            self._cache.move_to_end(query)
            return cached[1]
        self.cache_misses += 1
        probe_store = db.tables[query.probe_table]
        driver_store = db.tables[query.driver_table]
        plan = plan_query(
            query,
            self.candidates(query),
            probe_store.total_rows,
            driver_store.total_rows,
            db.runtime.cost_model,
            nm_allowed=self.nm_allowed(query),
            multiplicity=self.multiplicity,
            probe_width=probe_store.schema.width,
            driver_width=driver_store.schema.width,
        )
        self._cache[query] = (validity, plan)
        self._cache.move_to_end(query)
        while len(self._cache) > PLAN_CACHE_MAX_ENTRIES:
            self._cache.popitem(last=False)
        return plan

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
