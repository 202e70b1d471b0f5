"""The IncShrink engine: the full workflow of Figure 1.

One engine instance is a **single-view façade** over the multi-view
:class:`~repro.server.database.IncShrinkDatabase`: it registers exactly
one join view, forwards the three verbs ``upload``, ``process_step`` and
``query_count`` (plus ``query_sum``), and exposes the wired per-view
state — stores, cache, view, ledger, policy, flusher, metrics — under
the attribute names a one-view deployment reads naturally.  For a single
view the database layer degenerates to exactly the paper's Figure-1
pipeline:

* owner-side upload of padded, secret-shared batches (plus the plaintext
  logical mirror used exclusively for ground-truth scoring);
* the Transform protocol feeding the secure cache;
* a view-update policy — sDPTimer, sDPANT, EP, or OTM — moving data from
  the cache to the materialized view;
* the periodic cache flush (DP modes);
* view-based COUNT/SUM query answering, with the NM
  (non-materialization) mode recomputing the join from the outsourced
  stores instead — the same compiled
  :meth:`~repro.server.database.IncShrinkDatabase.query` pipeline a
  served query runs, with the accumulator cache off so that every QET is
  the full padded scan the paper defines;
* metric and privacy-accounting ledgers.

The simulation loop itself (workload streaming, per-step queries) lives
in :mod:`repro.experiments.harness`; multi-view deployments talk to the
database directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigurationError
from ..common.metrics import QueryObservation
from ..common.types import RecordBatch
from ..mpc.cost_model import CostModel
from ..mpc.runtime import MPCRuntime
from ..query.ast import AggregateSpec, LogicalQuery
from ..query.planner import ViewCandidate, plan_query
from .transform import JOIN_IMPLS
from .view_def import JoinViewDefinition

MODES = ("dp-timer", "dp-ant", "ep", "otm", "nm")


def validate_policy_knobs(
    mode: str,
    join_impl: str,
    timer_interval: int,
    ant_threshold: float,
    flush_interval: int,
    flush_size: int,
) -> None:
    """Validate the per-view policy knobs every deployment shape shares.

    Called by both :class:`EngineConfig` (single-view façade) and
    :class:`repro.server.database.ViewRegistration` (multi-view) so the
    two config surfaces cannot drift apart.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if join_impl not in JOIN_IMPLS:
        raise ConfigurationError(
            f"join_impl must be one of {JOIN_IMPLS}, got {join_impl!r}"
        )
    if timer_interval < 1:
        raise ConfigurationError(
            f"timer_interval must be >= 1, got {timer_interval}"
        )
    if ant_threshold <= 0:
        raise ConfigurationError(
            f"ant_threshold must be positive, got {ant_threshold}"
        )
    if flush_interval <= 0:
        raise ConfigurationError(
            f"flush_interval must be positive, got {flush_interval}"
        )
    if flush_size <= 0:
        raise ConfigurationError(
            f"flush_size must be positive, got {flush_size}"
        )


@dataclass(frozen=True)
class EngineConfig:
    """All knobs of one IncShrink deployment (paper defaults baked in)."""

    mode: str = "dp-timer"
    epsilon: float = 1.5
    timer_interval: int = 10
    ant_threshold: float = 30.0
    flush_interval: int = 2000
    flush_size: int = 15
    join_impl: str = "sort-merge"
    seed: int = 0
    cost_model: CostModel | None = None

    def __post_init__(self) -> None:
        validate_policy_knobs(
            self.mode,
            self.join_impl,
            self.timer_interval,
            self.ant_threshold,
            self.flush_interval,
            self.flush_size,
        )
        if self.epsilon <= 0:
            raise ConfigurationError(
                f"epsilon must be positive, got {self.epsilon}"
            )


@dataclass
class StepReport:
    """Everything one simulated step produced (mostly for tests)."""

    time: int
    transform_seconds: float = 0.0
    shrink_seconds: float = 0.0
    view_updated: bool = False
    flushed: bool = False
    deferred_real: int = 0
    truncation_dropped: int = 0
    extras: dict = field(default_factory=dict)


class IncShrinkEngine:
    """A deployed IncShrink instance for one join view."""

    def __init__(
        self,
        view_def: JoinViewDefinition,
        config: EngineConfig | None = None,
        runtime: MPCRuntime | None = None,
    ) -> None:
        # Imported here: the server layer builds on core protocol modules,
        # and this façade closes the loop back onto it.
        from ..server.database import IncShrinkDatabase, ViewRegistration

        self.view_def = view_def
        self.config = config or EngineConfig()
        cfg = self.config

        self.database = IncShrinkDatabase(
            total_epsilon=cfg.epsilon,
            seed=cfg.seed,
            cost_model=cfg.cost_model,
            runtime=runtime,
            # Table 2's QET is one full padded scan of V_t per query; a
            # warm accumulator cache would report the O(delta) suffix —
            # a different experiment.
            incremental=False,
        )
        self.database.register_view(
            ViewRegistration(
                view_def,
                mode=cfg.mode,
                timer_interval=cfg.timer_interval,
                ant_threshold=cfg.ant_threshold,
                flush_interval=cfg.flush_interval,
                flush_size=cfg.flush_size,
                join_impl=cfg.join_impl,
            )
        )
        self.database.finalize()

        # Single-view aliases: the same objects the database wired, under
        # the names the paper's one-instance deployment uses.
        vr = self.database.views[view_def.name]
        self.runtime = self.database.runtime
        self.probe_store = vr.group.probe_log
        self.driver_store = vr.group.driver_log
        self.cache = vr.cache
        self.view = vr.view
        self.ledger = vr.group.ledger
        self.accountant = self.database.accountant
        self.metrics = vr.metrics
        self.logical = self.database.logical
        self.transform = vr.group.transform
        self.policy = vr.policy
        self.flusher = vr.flusher

    # -- owner-side -------------------------------------------------------------
    def upload(
        self, time: int, probe_batch: RecordBatch, driver_batch: RecordBatch
    ) -> None:
        """Owners secret-share and submit this step's padded batches."""
        vd = self.view_def
        self.database.upload(
            time,
            [(vd.probe_table, probe_batch), (vd.driver_table, driver_batch)],
        )

    # -- server-side step ----------------------------------------------------------
    def process_step(self, time: int) -> StepReport:
        """Run Transform, the view-update policy, and any due flush."""
        return self.database.step(time).view(self.view_def.name)

    # -- analyst side ------------------------------------------------------------
    def query_count(self, time: int) -> QueryObservation:
        """Answer the registered COUNT query at time ``t`` and score it.

        The logical answer is computed over the plaintext mirror D_t; the
        served answer comes from the materialized view (or, under NM,
        from an oblivious join over the full outsourced stores).
        """
        return self._answer_registered(time, AggregateSpec.count())

    def query_sum(self, time: int, sum_table: str, sum_column: str) -> QueryObservation:
        """Answer the registered SUM over one logical column and score it.

        ``sum_table``/``sum_column`` name the column on either side of
        the join; the lowering onto the prefixed view column (and, under
        NM, onto the join sides) happens in the query compiler.
        """
        return self._answer_registered(
            time, AggregateSpec.sum_of(sum_table, sum_column)
        )

    def _answer_registered(
        self, time: int, aggregate: AggregateSpec
    ) -> QueryObservation:
        """One aggregate over this engine's own query class, by its mode.

        The plan is priced over this view alone: NM joins the stores and
        every other mode — OTM included — scans its view.  The database's
        own planner would route by cost across whatever else can answer,
        and never to a frozen OTM view.
        """
        query = LogicalQuery.for_view(self.view_def, aggregate)
        nm = self.config.mode == "nm"
        plan = plan_query(
            query,
            [] if nm else [ViewCandidate(self.view_def, len(self.view))],
            self.probe_store.total_rows,
            self.driver_store.total_rows,
            self.runtime.cost_model,
            nm_allowed=nm,
            probe_width=self.view_def.probe_schema.width,
            driver_width=self.view_def.driver_schema.width,
        )
        obs = self.database.query(query, time, plan=plan).observation
        if nm:
            # The database files an NM answer under no view.
            self.metrics.record_query(obs)
        return obs

    def run_query(self, query: LogicalQuery, time: int, epsilon: float | None = None):
        """Execute any :class:`~repro.query.ast.LogicalQuery`.

        The façade's door into the query compiler: any mix of
        COUNT/SUM/AVG aggregates, residual predicate, and GROUP BY is
        planned (view scan vs NM fallback) and answered in one oblivious
        pass; see :meth:`repro.server.database.IncShrinkDatabase.query`.
        Returns the full :class:`~repro.server.database.
        DatabaseQueryResult` (``.answers`` for the result table).
        """
        return self.database.query(query, time, epsilon=epsilon)

    # -- privacy introspection ---------------------------------------------------
    def realized_epsilon(self) -> float:
        """End-to-end ε realised so far, via Theorem 3.

        Combines the per-release ε/b leakage with each record's actual
        (budget-bounded) participation; for a run that respects the
        configured parameters this never exceeds ``config.epsilon``.
        """
        return self.database.view_realized_epsilon(self.view_def.name)
