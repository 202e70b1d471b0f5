"""End-to-end experiment harness: one call = one full simulated deployment.

``run_experiment`` builds a seeded workload, wires the paper's one-view
deployment (§2.2, Fig. 1: an
:class:`~repro.server.database.IncShrinkDatabase` with one
:class:`~repro.server.database.ViewRegistration` in the requested mode),
then replays the stream step by step — owners upload, servers Transform
and Shrink, the analyst queries — and returns the aggregated metrics
every table and figure of the paper is built from.

``run_multiview_experiment`` is the multi-query counterpart: one
:class:`~repro.server.database.IncShrinkDatabase` hosting several views
over the workload's two shared base tables, with every logical query
routed by the cost-based planner and privacy composed across views.

Default parameters mirror the paper's (Section 7, "Default setting"):
ε = 1.5, flush f = 2000 / s = 15, θ = 30, T = ⌊θ/rate⌋, ω and b per
dataset.  Experiment modules override exactly the knob their figure
sweeps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..common.errors import ConfigurationError
from ..common.metrics import MetricLog, MetricSummary, QueryObservation
from ..dp.bounds import recommended_flush_size
from ..mpc.cost_model import CostModel
from ..query.ast import AggregateSpec, LogicalQuery
from ..query.planner import ViewCandidate, plan_query
from ..server.database import IncShrinkDatabase, ViewRegistration, ViewRuntime
from ..workload.variants import make_workload

#: ε at which the default flush size is derived — a public deployment
#: constant independent of any particular run's privacy parameter.
DEFAULT_FLUSH_EPSILON = 1.5


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs, with paper defaults."""

    dataset: str = "tpcds"
    mode: str = "dp-timer"
    epsilon: float = 1.5
    n_steps: int = 240
    seed: int = 0
    variant: str = "standard"
    scale: float = 1.0
    omega: int | None = None  # None → the dataset's paper default
    budget: int | None = None
    theta: float = 30.0
    timer_interval: int | None = None  # None → ⌊θ / view rate⌋
    # The paper runs f=2000/s=15 over ~1825 steps; our default horizon is
    # ~8x shorter, so the flush schedule is scaled accordingly (one flush
    # per ~30 steps keeps the cache — and hence Shrink's oblivious sort —
    # inside the same regime relative to the data as the paper's setup).
    # A flush size of None resolves to the Theorem-4 deferred-data bound
    # computed at the *default* ε = 1.5 (a fixed public constant, like
    # the paper's s = 15): flushing then destroys real tuples only with
    # the configured tail probability in the default regime, and the
    # flush does not secretly turn into a full synchronization when an
    # experiment sweeps ε toward 0.
    flush_interval: int = 30
    flush_size: int | None = None
    join_impl: str = "sort-merge"
    query_every: int = 1
    cost_model: CostModel | None = None

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


@dataclass
class RunResult:
    """One completed run: configuration, aggregates, and raw logs."""

    config: RunConfig
    summary: MetricSummary
    log: MetricLog
    view_rate: float
    timer_interval: int
    realized_epsilon: float
    truncation_dropped_total: int
    database: IncShrinkDatabase
    #: the one registered view's wired state (policy, ledger, metrics)
    view: ViewRuntime

    def to_dict(self) -> dict:
        """JSON-serialisable record of the run (config + aggregates +
        per-step series), for external plotting or archival.

        The deployment itself (shares, protocols) is deliberately
        excluded: a result file must never contain key material or share
        stores.
        """
        return {
            "config": {
                k: v
                for k, v in asdict(self.config).items()
                if k != "cost_model"
            },
            "summary": asdict(self.summary),
            "view_rate": self.view_rate,
            "timer_interval": self.timer_interval,
            "realized_epsilon": self.realized_epsilon,
            "truncation_dropped_total": self.truncation_dropped_total,
            "series": {
                "l1_errors": self.log.l1_errors(),
                "qet_seconds": self.log.column("query_qet_seconds").tolist(),
                "view_size_rows": self.log.column("view_size_rows").tolist(),
                "cache_size_rows": self.log.column("cache_size_rows").tolist(),
                "deferred_counts": self.log.column("deferred_counts").tolist(),
            },
        }

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)


def run_experiment(config: RunConfig) -> RunResult:
    """Execute one deployment over one workload and collect metrics."""
    if config.query_every < 1:
        raise ConfigurationError("query_every must be >= 1")
    workload_kwargs = {}
    if config.omega is not None:
        workload_kwargs["omega"] = config.omega
    if config.budget is not None:
        workload_kwargs["budget"] = config.budget
    workload = make_workload(
        config.dataset,
        seed=config.seed,
        n_steps=config.n_steps,
        variant=config.variant,
        scale=config.scale,
        **workload_kwargs,
    )
    timer_interval = config.timer_interval or workload.recommended_timer_interval(
        config.theta
    )
    flush_size = config.flush_size
    if flush_size is None:
        expected_updates = max(1, config.flush_interval // timer_interval)
        flush_size = recommended_flush_size(
            DEFAULT_FLUSH_EPSILON,
            workload.view_def.budget,
            expected_updates,
            beta=0.02,
        )
    vd = workload.view_def
    database, view = deploy_single_view(
        ViewRegistration(
            vd,
            mode=config.mode,
            timer_interval=timer_interval,
            ant_threshold=config.theta,
            flush_interval=config.flush_interval,
            flush_size=flush_size,
            join_impl=config.join_impl,
        ),
        epsilon=config.epsilon,
        seed=config.seed,
        cost_model=config.cost_model,
    )

    dropped_total = 0
    for step in workload.steps:
        database.upload(
            step.time, [(vd.probe_table, step.probe), (vd.driver_table, step.driver)]
        )
        dropped_total += database.step(step.time).view(vd.name).truncation_dropped
        if step.time % config.query_every == 0:
            query_own_view(database, view, step.time)

    return RunResult(
        config=config,
        summary=view.metrics.summary(),
        log=view.metrics,
        view_rate=workload.average_view_rate(),
        timer_interval=timer_interval,
        realized_epsilon=database.view_realized_epsilon(vd.name),
        truncation_dropped_total=dropped_total,
        database=database,
        view=view,
    )


def deploy_single_view(
    registration: ViewRegistration,
    epsilon: float,
    seed: int = 0,
    cost_model: CostModel | None = None,
) -> tuple[IncShrinkDatabase, ViewRuntime]:
    """The paper's deployment: one database hosting one view, live.

    Table 2's QET is one full padded scan of V_t per query, so the
    accumulator cache is off: a warm one would report the O(delta)
    suffix — a different experiment.
    """
    database = IncShrinkDatabase(
        total_epsilon=epsilon, seed=seed, cost_model=cost_model, incremental=False
    )
    database.register_view(registration)
    database.finalize()
    return database, database.views[registration.view_def.name]


def query_own_view(
    database: IncShrinkDatabase,
    view: ViewRuntime,
    time: int,
    *aggregates: AggregateSpec,
) -> QueryObservation:
    """Answer ``view``'s registered query (COUNT by default) by its mode.

    The plan is priced over this view alone: NM joins the stores and
    every other mode — OTM included — scans its own view.  The
    database's planner would route by cost across whatever else can
    answer, and never to a frozen OTM view.  The database files an NM
    answer under no view; the paper scores it as the view's, so it is
    filed there too.
    """
    vd = view.view_def
    query = LogicalQuery.for_view(vd, *aggregates)
    nm = view.mode == "nm"
    plan = plan_query(
        query,
        [] if nm else [ViewCandidate(vd, len(view.view))],
        view.group.probe_log.total_rows,
        view.group.driver_log.total_rows,
        database.runtime.cost_model,
        nm_allowed=nm,
        probe_width=vd.probe_schema.width,
        driver_width=vd.driver_schema.width,
    )
    obs = database.query(query, time, plan=plan).observation
    if nm:
        view.metrics.record_query(obs)
    return obs


# -- multi-view runs ---------------------------------------------------------
@dataclass(frozen=True)
class MultiViewRunConfig:
    """One multi-view database deployment over a shared base-table pair.

    Three views are derived from the dataset's canonical join: the full
    window under sDPTimer, a narrower "recent" window under sDPANT, and
    an EP audit mirror of the full window (which shares the canonical
    view's Transform circuit — same signature, different policy).
    """

    dataset: str = "tpcds"
    n_steps: int = 96
    seed: int = 0
    total_epsilon: float = 3.0
    variant: str = "standard"
    scale: float = 1.0
    theta: float = 30.0
    query_every: int = 4
    join_impl: str = "sort-merge"
    flush_interval: int = 30
    nm_fallback: bool = True
    #: Round-robin shard count for every view (1 = the paper's
    #: flat layout); view scans run one shard per worker.
    n_shards: int = 1
    #: View-scan executor backend: "auto"/"thread" (in-process), or
    #: "process" (forces the shared-memory worker pool).
    scan_backend: str = "auto"
    #: Incremental execution: cache per-shard prefix accumulators so a
    #: repeat query scans only each shard's delta (answers and realized
    #: ε identical either way; only the gate bill changes).
    incremental: bool = True
    cost_model: CostModel | None = None

    def with_overrides(self, **kwargs) -> "MultiViewRunConfig":
        return replace(self, **kwargs)


@dataclass
class MultiViewRunResult:
    """One completed multi-view run: routing, accuracy, privacy."""

    config: MultiViewRunConfig
    database: IncShrinkDatabase
    view_modes: dict[str, str]
    per_view: dict[str, MetricSummary]
    summary: MetricSummary
    plan_counts: dict[str, int] = field(default_factory=dict)
    allocation: dict[str, float] = field(default_factory=dict)
    realized_epsilon: float = 0.0
    upload_counts: dict[str, int] = field(default_factory=dict)
    transform_runs: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable record (no key material or share stores)."""
        return {
            "config": {
                k: v for k, v in asdict(self.config).items() if k != "cost_model"
            },
            "view_modes": dict(self.view_modes),
            "per_view": {k: asdict(v) for k, v in self.per_view.items()},
            "summary": asdict(self.summary),
            "plan_counts": dict(self.plan_counts),
            "allocation": dict(self.allocation),
            "realized_epsilon": self.realized_epsilon,
            "total_epsilon": self.config.total_epsilon,
            "upload_counts": dict(self.upload_counts),
            "transform_runs": self.transform_runs,
        }

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)


@dataclass
class MultiViewDeployment:
    """A wired-but-unreplayed multi-view deployment: database + stream.

    Shared by :func:`run_multiview_experiment` (which replays the stream
    inline) and the ``serve``/``resume`` CLI modes (which feed the same
    stream through a :class:`~repro.server.runtime.DatabaseServer`).
    """

    config: MultiViewRunConfig
    database: IncShrinkDatabase
    workload: object
    view_modes: dict[str, str]
    #: the standard per-step query mix: COUNT full, COUNT recent, SUM
    #: full, and a 3-aggregate dashboard (COUNT+SUM+AVG in one scan)
    step_queries: list
    #: a COUNT whose window no view materializes — the NM fallback probe
    unmatched_query: LogicalQuery

    def upload_items(self, step) -> list[tuple[str, object]]:
        vd = self.workload.view_def
        return [(vd.probe_table, step.probe), (vd.driver_table, step.driver)]


def build_multiview_deployment(config: MultiViewRunConfig) -> MultiViewDeployment:
    """Wire the canonical three-view deployment over one workload.

    Three views are derived from the dataset's canonical join: the full
    window under sDPTimer, a narrower "recent" window under sDPANT, and
    an EP audit mirror sharing the full view's Transform circuit.
    """
    if config.query_every < 1:
        raise ConfigurationError("query_every must be >= 1")
    workload = make_workload(
        config.dataset,
        seed=config.seed,
        n_steps=config.n_steps,
        variant=config.variant,
        scale=config.scale,
    )
    vd = workload.view_def
    recent_vd = replace(
        vd,
        name=f"{vd.name}-recent",
        window_hi=max(vd.window_lo, vd.window_lo + (vd.window_hi - vd.window_lo) // 2),
    )
    audit_vd = replace(vd, name=f"{vd.name}-audit")

    timer_interval = workload.recommended_timer_interval(config.theta)
    expected_updates = max(1, config.n_steps // timer_interval)
    flush_size = recommended_flush_size(
        DEFAULT_FLUSH_EPSILON, vd.budget, max(1, config.flush_interval // timer_interval),
        beta=0.02,
    )
    size_hint = max(1, int(workload.average_view_rate() * config.n_steps))

    database = IncShrinkDatabase(
        total_epsilon=config.total_epsilon,
        seed=config.seed,
        cost_model=config.cost_model,
        nm_fallback=config.nm_fallback,
        n_shards=config.n_shards,
        scan_backend=config.scan_backend,
        incremental=config.incremental,
    )
    common = dict(
        timer_interval=timer_interval,
        ant_threshold=config.theta,
        flush_interval=config.flush_interval,
        flush_size=flush_size,
        join_impl=config.join_impl,
        size_hint=size_hint,
        updates_hint=expected_updates,
    )
    database.register_view(ViewRegistration(vd, mode="dp-timer", **common))
    database.register_view(ViewRegistration(recent_vd, mode="dp-ant", **common))
    database.register_view(ViewRegistration(audit_vd, mode="ep", **common))
    view_modes = {vd.name: "dp-timer", recent_vd.name: "dp-ant", audit_vd.name: "ep"}

    count_full = LogicalQuery.for_view(vd)
    count_recent = LogicalQuery.for_view(recent_vd)
    sum_full = LogicalQuery.for_view(
        vd, AggregateSpec.sum_of(vd.driver_table, vd.driver_ts)
    )
    # Three aggregates of the full window folded in one oblivious scan.
    dashboard = LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of(vd.driver_table, vd.driver_ts),
        AggregateSpec.avg_of(vd.driver_table, vd.driver_ts),
    )
    count_unmatched = LogicalQuery.for_view(
        replace(vd, window_hi=vd.window_hi + 5)
    )
    return MultiViewDeployment(
        config=config,
        database=database,
        workload=workload,
        view_modes=view_modes,
        step_queries=[count_full, count_recent, sum_full, dashboard],
        unmatched_query=count_unmatched,
    )


def run_multiview_experiment(config: MultiViewRunConfig) -> MultiViewRunResult:
    """Execute one multi-view database deployment over one workload.

    Per queried step the analyst issues a COUNT on the full window, a
    COUNT on the recent window, a SUM over the driver timestamp on the
    full window, and a 3-aggregate dashboard query (COUNT+SUM+AVG,
    answered in one scan); on the final step an additional COUNT with a
    window no view materializes exercises the NM fallback.
    """
    deployment = build_multiview_deployment(config)
    database = deployment.database
    workload = deployment.workload
    view_modes = deployment.view_modes

    plan_counts: dict[str, int] = {}
    transform_runs = 0
    last_time = workload.steps[-1].time
    for step in workload.steps:
        database.upload(step.time, deployment.upload_items(step))
        report = database.step(step.time)
        transform_runs += report.transform_runs
        queries = []
        if step.time % config.query_every == 0:
            queries = list(deployment.step_queries)
        if step.time == last_time and config.nm_fallback:
            queries.append(deployment.unmatched_query)
        for query in queries:
            result = database.query(query, step.time)
            key = result.plan.view_name or "nm-fallback"
            plan_counts[key] = plan_counts.get(key, 0) + 1

    return MultiViewRunResult(
        config=config,
        database=database,
        view_modes=view_modes,
        per_view={
            name: vr.metrics.summary() for name, vr in database.views.items()
        },
        summary=database.metrics.summary(),
        plan_counts=plan_counts,
        allocation=database.epsilon_allocation(),
        realized_epsilon=database.realized_epsilon(),
        upload_counts=database.upload_counts(),
        transform_runs=transform_runs,
    )
