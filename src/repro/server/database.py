"""The multi-view IncShrink database server.

The paper deploys one IncShrink instance per pre-specified query class.
An :class:`IncShrinkDatabase` hosts **many** materialized join views over
**shared** outsourced base tables, the multi-query setting Shrinkwrap
and DP-Sync motivate for private data federations:

* owners upload each base-table batch **once**; every view family scopes
  the same secret shares through its own contribution-budget wrappers,
  so no view multiplies the upload or storage cost;
* a per-step :class:`~repro.server.scheduler.StepScheduler` executes the
  Transform circuit once per shared table pair (transform signature) and
  fans the padded delta out to every consuming view's cache, then drives
  each view's own Shrink policy and flusher;
* incoming logical queries — a :class:`~repro.query.ast.LogicalQuery`
  with any mix of COUNT/SUM/AVG aggregates, a residual predicate, and an
  optional GROUP BY — are routed by a cost-based (structure-cached)
  :class:`~repro.server.planner.DatabasePlanner` to the cheapest
  matching view scan, or to the NM join fallback when that is cheaper
  (or nothing matches and the fallback is enabled); either path answers
  **all aggregates and all groups in one oblivious pass**;
* views and caches are partitioned by a data-independent round-robin
  :class:`~repro.server.sharding.ShardLayout` (``n_shards``, default 1);
  view-scan plans execute one shard per protocol lane through the
  :class:`~repro.query.parallel.ParallelScanExecutor`, byte-identically
  to the serial scan but at ``1/effective_workers`` of the simulated
  wall clock;
* privacy composes through a single shared
  :class:`~repro.dp.accountant.PrivacyAccountant`: the database's total ε
  is split across DP views by the operator-level allocation of
  :mod:`repro.dp.allocation` (Eq. 15), and :meth:`realized_epsilon`
  reports the sequential-within / parallel-across composition over
  groups of views that observe the same base tables.

:class:`~repro.core.engine.IncShrinkEngine` is a thin single-view façade
over this class; its queries go through :meth:`IncShrinkDatabase.query`
like everyone else's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..common.errors import ConfigurationError, SchemaError
from ..common.metrics import MetricLog, QueryObservation
from ..common.rng import spawn
from ..common.types import RecordBatch, Schema
from ..core.baselines import ExhaustivePaddingSync, OneTimeMaterialization
from ..core.counter import SharedCounter
from ..core.engine import MODES, validate_policy_knobs
from ..core.flush import CacheFlusher
from ..core.shrink_ant import SDPANT
from ..core.shrink_timer import SDPTimer
from ..core.view_def import JoinViewDefinition
from ..dp.accountant import (
    PrivacyAccountant,
    tenant_scoped_segment,
    theorem3_epsilon,
)
from ..dp.allocation import allocate_budget, split_query_epsilon, view_operator_spec
from ..dp.laplace import laplace_noise
from ..mpc.cost_model import CostModel
from ..mpc.runtime import MPCRuntime
from ..query.ast import LogicalQuery, QueryAnswer
from ..query.executor import aggregate_plain, execute_nm_query
from ..query.incremental import (
    DEFAULT_MAX_CACHED_QUERIES,
    AccumulatorCache,
    ScanReport,
)
from ..query.parallel import ParallelScanExecutor
from ..query.planner import VIEW_SCAN, QueryPlan
from ..query.rewrite import lower_to_view_scan
from ..storage.growing_db import GrowingDatabase
from ..storage.materialized_view import MaterializedView
from ..storage.outsourced_table import OutsourcedTable
from ..storage.secure_cache import SecureCache
from ..tenancy.ledger import check_tenant_budget, validate_budgets
from .planner import DatabasePlanner
from .sharding import ShardLayout
from .scheduler import (
    TRANSFORM_MODES,
    DatabaseStepReport,
    StepScheduler,
    TransformGroup,
    transform_signature,
)

#: View-update policies a registered view may run (= the engine's modes).
VIEW_MODES = MODES
#: Modes that consume privacy budget.
DP_MODES = ("dp-timer", "dp-ant")


@dataclass(frozen=True)
class ViewRegistration:
    """Declarative spec of one view: definition plus policy knobs."""

    view_def: JoinViewDefinition
    mode: str = "dp-timer"
    timer_interval: int = 10
    ant_threshold: float = 30.0
    flush_interval: int = 2000
    flush_size: int = 15
    join_impl: str = "sort-merge"
    #: Expected real input rows over the deployment horizon, used only to
    #: weight the ε allocation across DP views (public planning hint).
    size_hint: int = 1000
    #: Expected Shrink updates over the horizon (ε-allocation hint).
    updates_hint: int = 16

    def __post_init__(self) -> None:
        validate_policy_knobs(
            self.mode,
            self.join_impl,
            self.timer_interval,
            self.ant_threshold,
            self.flush_interval,
            self.flush_size,
        )
        if self.size_hint < 1:
            raise ConfigurationError(
                f"size_hint must be >= 1, got {self.size_hint}"
            )
        if self.updates_hint < 1:
            raise ConfigurationError(
                f"updates_hint must be >= 1, got {self.updates_hint}"
            )


@dataclass
class ViewRuntime:
    """Wired state of one registered view inside the database."""

    name: str
    view_def: JoinViewDefinition
    mode: str
    epsilon: float
    group: TransformGroup
    cache: SecureCache
    view: MaterializedView
    counter: SharedCounter | None
    policy: object | None
    flusher: CacheFlusher | None
    metrics: MetricLog = field(default_factory=MetricLog)


@dataclass
class DatabaseQueryResult:
    """One planned-and-executed logical query.

    ``answers`` is the full released result table (all aggregates × all
    groups, noisy when the query was released with an ε);
    ``logical_answers`` is the plaintext-mirror ground truth in the same
    shape.  ``answer`` is the scalar surface: the first cell, which for
    a single-aggregate ungrouped query *is* the whole answer.
    """

    plan: QueryPlan
    observation: QueryObservation
    answers: QueryAnswer | None = None
    logical_answers: QueryAnswer | None = None
    epsilon_spent: float = 0.0
    #: How the view scan actually executed (warm/cold/off + delta rows);
    #: ``None`` for NM plans, which have no incremental path.
    scan_report: ScanReport | None = None

    @property
    def answer(self) -> float:
        return self.observation.view_answer


class IncShrinkDatabase:
    """A multi-view outsourced database over shared base tables."""

    def __init__(
        self,
        total_epsilon: float = 1.5,
        seed: int = 0,
        cost_model: CostModel | None = None,
        runtime: MPCRuntime | None = None,
        nm_fallback: bool = True,
        grid_steps: int = 20,
        multiplicity_hint: float = 1.0,
        n_shards: int = 1,
        scan_backend: str = "auto",
        incremental: bool = True,
        max_cached_queries: int = DEFAULT_MAX_CACHED_QUERIES,
    ) -> None:
        if total_epsilon <= 0:
            raise ConfigurationError(
                f"total_epsilon must be positive, got {total_epsilon}"
            )
        self.total_epsilon = total_epsilon
        self.nm_fallback = nm_fallback
        self.grid_steps = grid_steps
        #: Per-shard prefix accumulators of repeat queries — repeat view
        #: scans pay gates only for rows appended since the last run,
        #: byte-identically to a cold scan (``None`` disables the path;
        #: every query then rescans in full, the pre-incremental
        #: behaviour).  Never persisted: a restored database starts cold.
        self.accumulator_cache: AccumulatorCache | None = (
            AccumulatorCache(max_cached_queries) if incremental else None
        )
        #: Round-robin placement of every view's (and cache's) rows — a
        #: pure function of public lengths, so the layout adds no leakage
        #: beyond the already-public total sizes.
        self.shard_layout = ShardLayout(n_shards)
        #: Scan engine answering view-scan plans shard by shard (in this
        #: process, or on ``scan_backend``-selected workers);
        #: byte-identical to the serial executor in every backend.
        self.scan_executor = ParallelScanExecutor(backend=scan_backend)
        self.runtime = runtime or MPCRuntime(seed=seed, cost_model=cost_model)
        # One ledger for every view's releases; segments are namespaced
        # per view.  Its parallel/sequential compositions are per-release
        # bounds over the *transformed* streams — the record-level number
        # across views is :meth:`realized_epsilon` (Theorem 3), since a
        # record over shared tables feeds several views' segments.
        self.accountant = PrivacyAccountant()
        #: owners' plaintext mirror (ground truth scoring only)
        self.logical = GrowingDatabase()
        #: physical secret-shared base tables — one per relation, shared
        #: by every view registered over it
        self.tables: dict[str, OutsourcedTable] = {}
        self.views: dict[str, ViewRuntime] = {}
        self.groups: dict[tuple, TransformGroup] = {}
        self.scheduler = StepScheduler(self.groups, self.views)
        self.planner = DatabasePlanner(self, multiplicity=multiplicity_hint)
        #: database-level query log (every planner-routed query)
        self.metrics = MetricLog()
        #: server-side randomness for noisy query releases.  Kept apart
        #: from the protocol servers' streams so read-side traffic never
        #: perturbs the deterministic ingestion-state evolution; captured
        #: by :mod:`repro.server.persistence` so a restored database
        #: continues the identical noise stream.
        self.query_noise_gen = spawn(seed, "query-noise")
        self._registrations: list[ViewRegistration] = []
        self._allocation: dict[str, float] = {}
        self._finalized = False
        self._state_version = 0
        self._query_seq = 0
        #: tenant -> ε cap for per-tenant ledgers.  Empty = single-tenant
        #: deployment; nothing here changes realized ε or noise draws —
        #: tenant attribution only extends the *segment key* of a spend.
        self.tenant_budgets: dict[str, float] = {}

    # -- registration -----------------------------------------------------------
    def register_table(self, name: str, schema: Schema) -> None:
        """Declare one shared base relation (idempotent when consistent)."""
        existing = self.tables.get(name)
        if existing is not None:
            if existing.schema != schema:
                raise SchemaError(
                    f"table {name!r} already registered with schema "
                    f"{existing.schema.fields}, got {schema.fields}"
                )
            return
        self.tables[name] = OutsourcedTable(schema, name)
        self.logical.create_table(name, schema)

    def register_view(self, registration: ViewRegistration) -> str:
        """Register one materialized view; returns its name.

        All views must be registered before the first upload — the ε
        allocation across DP views is computed once, when the deployment
        goes live, exactly like the paper's per-instance ε is fixed at
        setup.
        """
        if self._finalized:
            raise ConfigurationError(
                "views must be registered before the first upload/step/query"
            )
        vd = registration.view_def
        if vd.name in {r.view_def.name for r in self._registrations}:
            raise ConfigurationError(f"view {vd.name!r} already registered")
        self.register_table(vd.probe_table, vd.probe_schema)
        self.register_table(vd.driver_table, vd.driver_schema)
        self._registrations.append(registration)
        return vd.name

    # -- finalization -----------------------------------------------------------
    def finalize(self) -> None:
        if self._finalized:
            return
        if not self._registrations:
            raise ConfigurationError("register at least one view before use")
        self._finalized = True
        self._allocation = self._allocate_epsilon()
        for spec in self._registrations:
            self._wire(spec)

    def finalize_with_allocation(self, allocation: Mapping[str, float]) -> None:
        """Wire registered views against a previously computed ε split.

        The restore path of :mod:`repro.server.persistence` uses this to
        finalize a freshly constructed database with the *exact* split
        the snapshotted deployment went live with, instead of re-running
        the grid search (which is deterministic, but replaying it would
        couple restore correctness to solver internals).
        """
        if self._finalized:
            raise ConfigurationError(
                "finalize_with_allocation must run before any upload/step/query"
            )
        if not self._registrations:
            raise ConfigurationError("register at least one view before use")
        dp_names = {
            s.view_def.name for s in self._registrations if s.mode in DP_MODES
        }
        if set(allocation) != dp_names:
            raise ConfigurationError(
                f"allocation names {sorted(allocation)} do not match the "
                f"registered DP views {sorted(dp_names)}"
            )
        self._finalized = True
        self._allocation = {name: float(eps) for name, eps in allocation.items()}
        for spec in self._registrations:
            self._wire(spec)

    def _allocate_epsilon(self) -> dict[str, float]:
        """Split the total ε across DP views via Eq. 15's grid search."""
        dp_specs = [s for s in self._registrations if s.mode in DP_MODES]
        if not dp_specs:
            return {}
        operators = [
            view_operator_spec(
                s.view_def.name,
                s.view_def.budget,
                s.updates_hint,
                s.size_hint,
            )
            for s in dp_specs
        ]
        allocation, _efficiency = allocate_budget(
            operators, self.total_epsilon, grid_steps=self.grid_steps
        )
        return {
            spec.view_def.name: eps for spec, eps in zip(dp_specs, allocation)
        }

    def _wire(self, spec: ViewRegistration) -> None:
        vd = spec.view_def
        signature = transform_signature(vd, spec.join_impl)
        group = self.groups.get(signature)
        if group is None:
            group = TransformGroup(signature, vd)
            self.groups[signature] = group
        cache = SecureCache(vd.view_schema, layout=self.shard_layout)
        view = MaterializedView(vd.view_schema, layout=self.shard_layout)
        epsilon = self._allocation.get(vd.name, 0.0)

        counter: SharedCounter | None = None
        policy = None
        flusher: CacheFlusher | None = None
        if spec.mode in TRANSFORM_MODES:
            group.ensure_transform(self.runtime, spec.join_impl)
            counter = group.claim_counter()
            group.sinks.append(cache)
        if spec.mode == "dp-timer":
            policy = SDPTimer(
                self.runtime,
                counter,
                epsilon,
                vd.budget,
                spec.timer_interval,
                self.accountant,
                label=vd.name,
            )
            flusher = CacheFlusher(
                self.runtime, spec.flush_interval, spec.flush_size
            )
        elif spec.mode == "dp-ant":
            policy = SDPANT(
                self.runtime,
                counter,
                epsilon,
                vd.budget,
                spec.ant_threshold,
                self.accountant,
                label=vd.name,
            )
            flusher = CacheFlusher(
                self.runtime, spec.flush_interval, spec.flush_size
            )
        elif spec.mode == "ep":
            policy = ExhaustivePaddingSync(self.runtime, counter)
        elif spec.mode == "otm":
            policy = OneTimeMaterialization()

        vr = ViewRuntime(
            name=vd.name,
            view_def=vd,
            mode=spec.mode,
            epsilon=epsilon,
            group=group,
            cache=cache,
            view=view,
            counter=counter,
            policy=policy,
            flusher=flusher,
        )
        group.member_names.append(vd.name)
        self.views[vd.name] = vr
        self.planner.invalidate()  # a new view may answer cached shapes

    # -- owner side -------------------------------------------------------------
    def upload(
        self,
        time: int,
        batches: Mapping[str, RecordBatch] | Iterable[tuple[str, RecordBatch]],
    ) -> None:
        """Owners secret-share this step's padded batches, **once each**.

        ``batches`` maps relation name → padded batch (or an ordered
        sequence of pairs).  Each batch is shared and appended to the
        physical store exactly once; every transform group over the
        relation then scopes the same shares through its own budget
        wrapper — no per-view re-upload, no share duplication.
        """
        self.finalize()
        items = list(batches.items() if isinstance(batches, Mapping) else batches)
        self.check_upload(items)
        for name, batch in items:
            store = self.tables[name]
            shared = self.runtime.owner_share_table(
                batch.schema, batch.rows, batch.is_real.astype("uint32")
            )
            store.append_batch(shared, time)
            self.logical.insert(time, name, batch.real_rows())
            for group in self.groups.values():
                group.register_upload(name, shared, time, len(batch))
        self._state_version += 1

    def check_upload(self, items: Iterable[tuple[str, RecordBatch]]) -> None:
        """Refuse a malformed step before any of it is shared or stored.

        Every table must be registered, appear once, and carry exactly
        its registered schema.  :meth:`upload` runs this first, so a bad
        step changes nothing; the network front door runs it at
        admission, so a bad step never reaches the ingest queue.
        """
        seen: set[str] = set()
        for name, batch in items:
            store = self.tables.get(name)
            if store is None:
                raise SchemaError(
                    f"no registered base table {name!r}; known tables: "
                    f"{sorted(self.tables)}"
                )
            if name in seen:
                raise SchemaError(f"table {name!r} uploaded twice in one step")
            seen.add(name)
            if batch.schema != store.schema:
                raise SchemaError(
                    f"batch schema {batch.schema.fields} does not match table "
                    f"{name!r} schema {store.schema.fields}"
                )

    # -- server step ------------------------------------------------------------
    def step(self, time: int) -> DatabaseStepReport:
        """Run one scheduled step: shared Transforms, per-view policies."""
        self.finalize()
        report = self.scheduler.run_step(time)
        self._state_version += 1
        return report

    @property
    def state_version(self) -> int:
        """Monotone counter bumped whenever public sizes may change.

        Uploads grow the outsourced stores, steps grow the views — both
        invalidate every cached cost comparison, so the planner keys its
        plan cache on this counter.
        """
        return self._state_version

    # -- sharding ---------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Public shard count every view and cache is partitioned into."""
        return self.shard_layout.n_shards

    def reshard(self, n_shards: int) -> None:
        """Re-partition every view and cache under a new shard count.

        Entirely share-local (gather then round-robin scatter with
        public indices): no protocol runs, no randomness is consumed,
        and no answer, gate charge, or ε changes — only the parallelism
        available to subsequent scans.  Restoring a v1 (single-shard)
        snapshot and calling ``reshard(8)`` is the upgrade path to a
        sharded deployment.
        """
        self.finalize()
        layout = ShardLayout(n_shards)
        for vr in self.views.values():
            vr.view.reshard(layout)
            vr.cache.reshard(layout)
        self.shard_layout = layout
        # Resharding re-scatters every row: cached per-shard prefixes no
        # longer describe any shard's content.  The containers' epoch
        # bump already fails their validity checks; dropping them here
        # keeps the gauges honest and frees the memory immediately.
        if self.accumulator_cache is not None:
            self.accumulator_cache.invalidate()
        self.planner.invalidate()
        # Shard counts feed the planner's wall-clock estimates.
        self._state_version += 1

    @property
    def scan_backend(self) -> str:
        """Requested executor backend (``auto`` resolves per view)."""
        return self.scan_executor.backend

    def set_scan_backend(self, backend: str) -> None:
        """Switch the view-scan execution backend at runtime.

        Purely operational: answers, gate totals, and realized ε are
        backend-invariant (the equivalence suite pins this), so flipping
        a restored or live deployment between ``thread`` and ``process``
        changes nothing but host wall clock.  Cached plans stay valid:
        the backend a scan runs on is resolved per call, never stored in
        a plan.
        """
        self.scan_executor = ParallelScanExecutor(backend=backend)

    # -- incremental execution --------------------------------------------------
    @property
    def incremental(self) -> bool:
        """Whether repeat view scans reuse cached prefix accumulators."""
        return self.accumulator_cache is not None

    def set_incremental(
        self, enabled: bool, max_cached_queries: int = DEFAULT_MAX_CACHED_QUERIES
    ) -> None:
        """Toggle incremental execution at runtime (e.g. after a resume).

        Purely operational, like :meth:`set_scan_backend`: answers,
        realized ε, and per-row gate formulas are identical either way —
        only whether repeat queries recharge already-scanned prefixes
        changes.  Disabling drops every cached accumulator.
        """
        if enabled and self.accumulator_cache is None:
            self.accumulator_cache = AccumulatorCache(max_cached_queries)
        elif not enabled:
            self.accumulator_cache = None

    def logical_mirror_stats(self) -> dict:
        """Hit/extension/signature gauges of the ground-truth join mirror."""
        return self.logical.join_mirror_stats()

    def incremental_cache_stats(self) -> dict:
        """Hit/miss/evict gauges of the accumulator cache (``{}`` when off)."""
        if self.accumulator_cache is None:
            return {}
        return self.accumulator_cache.stats()

    # -- analyst side -----------------------------------------------------------
    def query(
        self,
        query: LogicalQuery,
        time: int,
        plan: QueryPlan | None = None,
        epsilon: float | None = None,
        tenant: str | None = None,
    ) -> DatabaseQueryResult:
        """Plan, execute, and score one logical query.

        Every query runs the same compiled pipeline: plan (cached by
        structure), then **one** oblivious pass computing every aggregate
        of every group, either over the cheapest matching view or via
        the NM join fallback.

        ``plan`` lets a caller that already planned the query (e.g. the
        serving runtime, which plans before taking the target view's
        session guard) skip re-planning.  ``epsilon`` releases the
        answers with per-aggregate Laplace noise: the budget splits
        across the query's aggregates by sensitivity
        (:func:`repro.dp.allocation.split_query_epsilon`), each spend is
        composed in the shared accountant, and the observation scores the
        *released* (noisy) values.  ``tenant`` attributes the spends to
        that tenant's ledger and enforces its ε cap (if one is set)
        **before** the scan runs or any noise is drawn, so a refused
        query leaves the noise stream and every ledger untouched.
        """
        self.finalize()
        if epsilon is not None and tenant is not None:
            check_tenant_budget(self.accountant, self.tenant_budgets, tenant, epsilon)
        if plan is None:
            plan = self.planner.plan(query)
        logical = self._logical_answer_query(query, time)
        scan_report = None
        if plan.kind == VIEW_SCAN:
            vr = self.views[plan.view_name]
            answers, qet, scan_report = self.scan_executor.execute_detailed(
                self.runtime,
                time,
                vr.view,
                plan.view_query,
                self.accumulator_cache,
            )
        else:
            spec = self._join_spec(query)
            answers, qet = execute_nm_query(
                self.runtime,
                time,
                self.tables[query.probe_table],
                self.tables[query.driver_table],
                spec,
                query,
            )
        epsilon_spent = 0.0
        if epsilon is not None:
            answers = self._noise_answers(query, answers, epsilon, tenant=tenant)
            epsilon_spent = epsilon
        obs = QueryObservation(
            time=time,
            logical_answer=float(logical.rows[0][0]),
            view_answer=float(answers.rows[0][0]),
            qet_seconds=qet,
        )
        self.metrics.record_query(obs)
        if plan.view_name is not None:
            self.views[plan.view_name].metrics.record_query(obs)
        return DatabaseQueryResult(
            plan=plan,
            observation=obs,
            answers=answers,
            logical_answers=logical,
            epsilon_spent=epsilon_spent,
            scan_report=scan_report,
        )

    def _noise_answers(
        self,
        lq: LogicalQuery,
        answers: QueryAnswer,
        epsilon: float,
        tenant: str | None = None,
    ) -> QueryAnswer:
        """Laplace-release one query's answer table under ``epsilon``.

        One mechanism per *released* aggregate over the same scanned
        data, so the per-aggregate slices compose sequentially
        (Σ ε_i = ε, split by sensitivity).  Within one aggregate, the
        GROUP BY cells also compose sequentially — a record may feed
        pairs into several cells through different join partners, so the
        parallel-composition shortcut would under-count — giving each
        cell ε_i / n_groups.  An AVG whose SUM column and a COUNT are
        both part of the same query is **derived** from their noisy
        cells (free post-processing) instead of spending a slice of its
        own; a standalone AVG is noised directly at its declared
        sensitivity.
        """
        aggregates = lq.aggregates
        count_idx = next(
            (i for i, a in enumerate(aggregates) if a.kind == "count"), None
        )
        derived: dict[int, tuple[int, int]] = {}
        if count_idx is not None:
            for i, agg in enumerate(aggregates):
                if agg.kind != "avg":
                    continue
                sum_idx = next(
                    (
                        j
                        for j, b in enumerate(aggregates)
                        if b.kind == "sum"
                        and (b.table, b.column) == (agg.table, agg.column)
                    ),
                    None,
                )
                if sum_idx is not None:
                    derived[i] = (sum_idx, count_idx)
        released = [i for i in range(len(aggregates)) if i not in derived]
        split = split_query_epsilon(
            [aggregates[i].sensitivity for i in released], epsilon
        )
        self._query_seq += 1
        segment: tuple = ("query", self._query_seq)
        if tenant is not None:
            # Extending the key (never the ε values) keeps every global
            # composition and the drawn noise byte-identical to the
            # single-tenant path while attributing the spend to a ledger.
            segment = tenant_scoped_segment(segment, tenant)
        n_groups = len(answers.rows)
        noisy_rows = [list(row) for row in answers.rows]
        for a, eps_i in zip(released, split):
            agg = aggregates[a]
            scale = agg.sensitivity * n_groups / eps_i
            for g in range(n_groups):
                noisy_rows[g][a] = float(noisy_rows[g][a]) + laplace_noise(
                    self.query_noise_gen, scale
                )
            self.accountant.spend(f"query:{agg.output_name}", eps_i, segment)
        for a, (sum_idx, cnt_idx) in derived.items():
            for g in range(n_groups):
                noisy_count = noisy_rows[g][cnt_idx]
                noisy_rows[g][a] = (
                    noisy_rows[g][sum_idx] / noisy_count
                    if noisy_count > 0
                    else 0.0
                )
        return QueryAnswer(
            columns=answers.columns,
            group_keys=answers.group_keys,
            rows=tuple(tuple(row) for row in noisy_rows),
        )

    # -- privacy ----------------------------------------------------------------
    def epsilon_allocation(self) -> dict[str, float]:
        """Per-DP-view ε split chosen by :func:`repro.dp.allocation`."""
        self.finalize()
        return dict(self._allocation)

    def view_realized_epsilon(self, view_name: str) -> float:
        """Theorem-3 realized ε of one view against its allocated slice."""
        self.finalize()
        vr = self.views[view_name]
        if vr.mode not in DP_MODES:
            return 0.0
        per_release = vr.epsilon / vr.view_def.budget
        # Theorem 3's maximum over records, handed the one record that
        # attains it: the ledger keeps it running, so a ``stats`` frame
        # does not rebuild a map over every record ever uploaded.
        return theorem3_epsilon(vr.group.ledger.worst_contributions(per_release))

    def query_epsilon(self) -> float:
        """Total ε spent by noisy query releases (0 for pre-noise runs).

        Every aggregate of every ε-released query spends its slice into
        the shared accountant under a per-invocation ``("query", seq)``
        segment; queries touch the whole scanned state, so across
        invocations they compose sequentially — a plain sum.
        """
        return self.accountant.query_epsilon()

    # -- per-tenant ledgers ------------------------------------------------------
    def set_tenant_budgets(self, budgets: Mapping[str, float]) -> None:
        """Install (validated) per-tenant ε caps for noisy query releases.

        Budgets are declarative config, not spend state: the spends
        themselves live in the shared accountant's events (tenant-scoped
        segment keys), so installing the same budgets after a restore
        recovers every ledger exactly — there is no second store to
        double-spend from.
        """
        self.tenant_budgets = validate_budgets(budgets)

    def tenant_epsilons(self) -> dict[str, float]:
        """Spent query-ε per tenant (derived from the accountant)."""
        return self.accountant.tenant_epsilons()

    def realized_epsilon(self) -> float:
        """Composed end-to-end ε across every view of the database.

        Views observing the *same* base tables compose sequentially (a
        record feeds each view family's Transform, so its losses add —
        Theorem 3 over the union of transformation families); views over
        disjoint base tables compose in parallel (a record lives in one
        component only, so the database-wide loss is the worst
        component's total).  Noisy query releases add sequentially on
        top (:meth:`query_epsilon`).  For a run respecting the
        allocation and issuing no noisy queries this never exceeds
        ``total_epsilon``.
        """
        self.finalize()
        components = self._table_components()
        worst = 0.0
        for tables in components:
            component_eps = sum(
                self.view_realized_epsilon(vr.name)
                for vr in self.views.values()
                if vr.view_def.probe_table in tables
                or vr.view_def.driver_table in tables
            )
            worst = max(worst, component_eps)
        return worst + self.query_epsilon()

    def _table_components(self) -> list[set[str]]:
        """Connected components of base tables linked by registered views."""
        components: list[set[str]] = []
        for vr in self.views.values():
            linked = {vr.view_def.probe_table, vr.view_def.driver_table}
            merged = [c for c in components if c & linked]
            for c in merged:
                components.remove(c)
                linked |= c
            components.append(linked)
        return components

    # -- introspection ----------------------------------------------------------
    @property
    def registrations(self) -> tuple[ViewRegistration, ...]:
        """Every registered view spec, in registration order."""
        return tuple(self._registrations)

    def upload_counts(self) -> dict[str, int]:
        """Physical batches shared per base table (one per upload step)."""
        return {name: len(store.batches) for name, store in self.tables.items()}

    # -- helpers ----------------------------------------------------------------
    def _join_spec(self, lq: LogicalQuery) -> JoinViewDefinition:
        """A transient join definition for NM execution of ``lq``."""
        join = lq.join
        return JoinViewDefinition(
            name=f"nm:{join.probe_table}⋈{join.driver_table}",
            probe_table=join.probe_table,
            probe_schema=self.tables[join.probe_table].schema,
            probe_key=join.probe_key,
            probe_ts=join.probe_ts,
            driver_table=join.driver_table,
            driver_schema=self.tables[join.driver_table].schema,
            driver_key=join.driver_key,
            driver_ts=join.driver_ts,
            window_lo=join.window_lo,
            window_hi=join.window_hi,
            omega=1,
            budget=1,
        )

    def _logical_answer_query(
        self, lq: LogicalQuery, time: int
    ) -> QueryAnswer:
        """Ground-truth answer table over the plaintext mirror D_t.

        Takes the exact (truncation-free) join rows in view-schema layout
        from the mirror's incrementally maintained join — only batches
        this join has not seen yet are joined — and folds the *same*
        lowered plan the secure paths execute, so logical and served
        answers are aggregated through identical code.
        """
        spec = self._join_spec(lq)
        return aggregate_plain(
            lower_to_view_scan(lq, spec),
            spec.view_schema,
            self.logical.joined_at(spec, time),
        )
