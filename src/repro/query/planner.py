"""Cost-based routing of logical queries to views (or the NM fallback).

The paper deploys one IncShrink instance per pre-specified query class;
a multi-view database instead hosts many materialized views over shared
outsourced tables and must route each incoming logical query to the
cheapest physical plan.  Two plan shapes exist, mirroring the two
execution paths in :mod:`repro.query.executor`:

* **view scan** — one padded oblivious pass over a matching materialized
  view; cost is linear in the view's *total* (real + dummy) size, which
  is public;
* **NM join** — a full oblivious sort-merge join over the entire
  outsourced base tables, recomputed for this query.

Both costs are functions of public sizes only (padded view length,
padded store lengths), so planning itself leaks nothing beyond what the
transcript already contains.  The estimators below charge exactly the
same gate formulas the executors charge, so the planner's ranking agrees
with the simulated runtime ranking by construction; the one
data-dependent term (how many candidate pairs an NM scan probes) is
approximated by a public multiplicity hint.

This module is the database-independent core: scoring and plan
selection over explicit candidate descriptions.  The server layer's
:class:`repro.server.planner.DatabasePlanner` binds it to a live
:class:`~repro.server.database.IncShrinkDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import SchemaError
from ..core.view_def import JoinViewDefinition
from ..mpc.cost_model import CostModel
from ..oblivious.sort import network_comparator_count
from .ast import LogicalQuery, ViewScanPlan, predicate_clauses
from .rewrite import can_answer, lower_to_view_scan

#: Plan shapes the planner can emit.
VIEW_SCAN = "view-scan"
NM_JOIN = "nm-join"


# -- cost estimation ----------------------------------------------------------
def multi_scan_gates(
    model: CostModel,
    n_rows: int,
    payload_words: int,
    need_count: bool,
    n_sum_columns: int,
    n_groups: int = 1,
    grouped: bool = False,
    predicate_words: int = 1,
) -> int:
    """Gates of one padded multi-aggregate scan over ``n_rows`` slots.

    Matches :func:`repro.oblivious.filter.oblivious_multi_aggregate`
    exactly: the base row touch once, plus
    :meth:`~repro.mpc.cost_model.CostModel.aggregate_slot_gates` per row
    for the additional accumulators and the GROUP BY routing.  This is
    what makes a 3-aggregate query cost one scan, not three.
    """
    per_row = model.scan_row_gates(payload_words, predicate_words)
    per_row += model.aggregate_slot_gates(
        need_count, n_sum_columns, n_groups, grouped
    )
    return n_rows * per_row


def nm_join_gates(
    model: CostModel,
    n_probe: int,
    n_driver: int,
    probe_width: int,
    driver_width: int,
    multiplicity: float = 1.0,
    need_count: bool = True,
    n_sum_columns: int = 0,
    n_groups: int = 1,
    grouped: bool = False,
    n_clauses: int = 0,
) -> int:
    """Estimated gates of the NM recomputation over the full stores.

    The sort and scan terms are exact (they depend only on public sizes);
    the probe term depends on how many same-key candidate pairs the data
    contains, estimated as ``multiplicity`` pairs per driver row — the
    public per-query-class join multiplicity (1 for TPC-ds Q1, >1 for
    CPDB Q2).  Each estimated pair additionally pays the same
    per-aggregate accumulator/routing gates the view scan pays per row
    plus one ring comparison per residual clause; this matches
    :func:`repro.oblivious.sort_merge_join.oblivious_join_multi_aggregate`,
    whose probe term is still the live same-key pair count it charges —
    the kernel counts partners without building pairs, but its charges
    are the pair circuit's until they become public-size charges
    (ROADMAP item 6) and this estimate becomes the same formula.
    """
    n = n_probe + n_driver
    if n == 0:
        return 0
    payload_words = max(probe_width, driver_width) + 2
    out_width = probe_width + driver_width
    gates = network_comparator_count(n) * model.compare_exchange_gates(payload_words)
    gates += n * model.scan_row_gates(payload_words)
    est_pairs = int(round(multiplicity * n_driver))
    gates += est_pairs * model.join_probe_gates(out_width)
    gates += est_pairs * model.aggregate_slot_gates(
        need_count, n_sum_columns, n_groups, grouped
    )
    gates += est_pairs * model.predicate_eval_gates(n_clauses)
    return gates


# -- candidates and plans ------------------------------------------------------
@dataclass(frozen=True)
class ViewCandidate:
    """One registered view as the planner sees it: definition + public size.

    ``n_shards`` is the view's shard count — public layout metadata the
    wall-clock estimate divides by (sharding never changes the gate
    total, only how many evaluator lanes share it).
    """

    view_def: JoinViewDefinition
    padded_rows: int
    n_shards: int = 1
    #: Rows an incremental (warm-cache) scan of this view would skip for
    #: this query structure — 0 when cold or when incremental execution
    #: is disabled.  A pure function of the public length history and
    #: the (public) query structure, read from the database's
    #: :class:`~repro.query.incremental.AccumulatorCache` at planning
    #: time.
    cached_rows: int = 0


@dataclass(frozen=True)
class QueryPlan:
    """The chosen physical plan for one logical query.

    ``view_query`` is the lowered single-scan plan when ``kind`` is
    :data:`VIEW_SCAN`; NM plans carry no lowering (the executor joins the
    base stores directly from the logical query).  ``n_shards`` records
    the parallelism the seconds estimate assumed (always 1 for NM joins:
    the oblivious sort-merge join is a single sequential circuit).  The
    backend a view scan runs on is resolved when it runs
    (:meth:`~repro.query.parallel.ParallelScanExecutor.backend_for`).

    ``warm`` records that the estimate assumed an incremental scan over
    ``cached_rows`` already-accumulated rows: ``estimated_gates`` and
    ``estimated_seconds`` then price the *suffix* only — the gates the
    executor will actually charge — which is what lets a warm view scan
    compete honestly against the NM fallback.  Estimates are advisory:
    if the accumulator entry is evicted between planning and execution
    the scan silently runs cold — answers unchanged, only the realized
    gate bill exceeds the estimate.
    """

    kind: str  # VIEW_SCAN | NM_JOIN
    view_name: str | None
    view_query: ViewScanPlan | None
    estimated_gates: int
    estimated_seconds: float
    n_shards: int = 1
    warm: bool = False
    cached_rows: int = 0


@dataclass(frozen=True)
class ViewScanShape:
    """The half of a view-scan plan that no upload changes.

    What answering ``query`` from one view looks like — the lowered scan
    and the gates it charges per padded row — as opposed to what it
    costs right now, which :meth:`priced` reads off the live public
    sizes.  A planner may keep shapes across calls; prices it may not.
    """

    view_def: JoinViewDefinition
    view_query: ViewScanPlan
    row_gates: int

    @classmethod
    def of(
        cls, query: LogicalQuery, view_def: JoinViewDefinition, model: CostModel
    ) -> "ViewScanShape":
        return cls(
            view_def,
            lower_to_view_scan(query, view_def),
            multi_scan_gates(
                model,
                1,
                view_def.view_schema.width,
                need_count=query.need_count,
                n_sum_columns=len(query.sum_columns),
                n_groups=query.n_groups,
                grouped=query.group_by is not None,
                predicate_words=query.predicate_words,
            ),
        )

    def priced(
        self,
        model: CostModel,
        padded_rows: int,
        n_shards: int,
        cached_rows: int,
    ) -> QueryPlan:
        """The plan at these public sizes (the :class:`ViewCandidate` fields).

        A warm accumulator cache shrinks the scan to the suffix past the
        cached watermarks, and the estimate prices exactly the gates the
        executor will charge; ``cached_rows == 0`` (cold, or incremental
        execution disabled) degenerates to the full-view estimate.
        """
        gates = max(0, padded_rows - cached_rows) * self.row_gates
        return QueryPlan(
            kind=VIEW_SCAN,
            view_name=self.view_def.name,
            view_query=self.view_query,
            estimated_gates=gates,
            estimated_seconds=model.parallel_seconds(gates, n_shards),
            n_shards=n_shards,
            warm=cached_rows > 0,
            cached_rows=cached_rows,
        )


def price_nm_join(
    query: LogicalQuery,
    n_probe_store: int,
    n_driver_store: int,
    model: CostModel,
    multiplicity: float,
    probe_width: int,
    driver_width: int,
) -> QueryPlan:
    """The NM-fallback plan of ``query`` over the full base stores."""
    gates = nm_join_gates(
        model,
        n_probe_store,
        n_driver_store,
        probe_width,
        driver_width,
        multiplicity=multiplicity,
        need_count=query.need_count,
        n_sum_columns=len(query.sum_columns),
        n_groups=query.n_groups,
        grouped=query.group_by is not None,
        n_clauses=len(predicate_clauses(query.predicate)),
    )
    return QueryPlan(
        kind=NM_JOIN,
        view_name=None,
        view_query=None,
        estimated_gates=gates,
        estimated_seconds=model.seconds(gates),
    )


def cheapest(query: LogicalQuery, plans: list[QueryPlan]) -> QueryPlan:
    """The plan to run: least wall clock, gate total as the tiebreak.

    Ranking by the parallelism-aware wall-clock estimate lets a sharded
    view beat a smaller single-shard one on latency; the gate total is a
    deterministic (total-work) tiebreak.  With single-shard candidates
    seconds ∝ gates, so the historical ranking is unchanged.  Raises
    :class:`~repro.common.errors.SchemaError` when there is nothing to
    choose from.
    """
    if not plans:
        raise SchemaError(
            f"no registered view materializes the join "
            f"({query.probe_table} ⋈ {query.driver_table}) and the NM "
            "fallback is disabled; register a matching view first"
        )
    return min(plans, key=lambda p: (p.estimated_seconds, p.estimated_gates))


def plan_query(
    query: LogicalQuery,
    candidates: list[ViewCandidate],
    n_probe_store: int,
    n_driver_store: int,
    model: CostModel,
    nm_allowed: bool = True,
    multiplicity: float = 1.0,
    probe_width: int | None = None,
    driver_width: int | None = None,
) -> QueryPlan:
    """Score every answering view plus the NM fallback; return the cheapest.

    ``n_probe_store``/``n_driver_store`` are the padded total sizes of
    the base tables the NM path would recompute over.  The scan's
    predicate width is the query's own (``query.predicate_words``, what the
    executor charges) — a caller cannot price a plan at any other width.
    Raises :class:`~repro.common.errors.SchemaError` when no view matches
    and NM is not allowed.
    """
    plans = [
        ViewScanShape.of(query, cand.view_def, model).priced(
            model,
            cand.padded_rows,
            cand.n_shards,
            cand.cached_rows,
        )
        for cand in candidates
        if can_answer(query, cand.view_def)
    ]
    if nm_allowed:
        # The NM estimate needs base-table widths; when the caller does
        # not supply them, take them from any candidate's schemas (all
        # views over the same pair share them), falling back to the
        # minimal two-column shape.
        if probe_width is None:
            probe_width = (
                candidates[0].view_def.probe_schema.width if candidates else 2
            )
        if driver_width is None:
            driver_width = (
                candidates[0].view_def.driver_schema.width if candidates else 2
            )
        plans.append(
            price_nm_join(
                query,
                n_probe_store,
                n_driver_store,
                model,
                multiplicity,
                probe_width,
                driver_width,
            )
        )
    return cheapest(query, plans)
