"""Per-step scheduling for the multi-view database.

One simulated step of an :class:`~repro.server.database.IncShrinkDatabase`
must run the Transform protocol **once per shared table pair** (more
precisely: once per *transform signature* — the join structure plus
truncation parameters that determine the circuit), fan its padded delta
out to every consuming view's secure cache, and then drive each view's
own update policy and flusher.  The scheduler owns that loop; the
database owns registration and queries.

A :class:`TransformGroup` is the unit of sharing: all views whose
definitions agree on (tables, keys, timestamps, window, ω, b, join
implementation) share one group — one contribution ledger over the two
tables' upload logs, one Transform circuit per step.  Views in one group
may still run *different* Shrink policies (e.g. an sDPTimer view next to
an EP mirror of the same join), so each consuming view keeps a private
cardinality counter that the shared Transform increments jointly and
each policy resets on its own schedule.

Sharding is transparent to the step loop: Shrink and flush outputs land
in the view through :meth:`~repro.storage.materialized_view.
MaterializedView.append`, which places each delta round-robin across
the view's shards by public position; the view alone knows its layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.budget import ContributionLedger
from ..core.counter import SharedCounter
from ..core.transform import TransformProtocol, TransformReport
from ..core.view_def import JoinViewDefinition
from ..mpc.runtime import MPCRuntime
from ..sharing.shared_value import SharedTable
from ..storage.outsourced_table import OutsourcedTable
from ..storage.secure_cache import SecureCache

#: Modes whose views consume Transform output from their cache.
TRANSFORM_MODES = ("dp-timer", "dp-ant", "ep")


def transform_signature(view_def: JoinViewDefinition, join_impl: str) -> tuple:
    """Everything that determines the Transform circuit for a view.

    Two views with equal signatures materialize byte-identical padded
    deltas, so the servers run the circuit once and append the delta to
    both caches.
    """
    return (*view_def.join_signature, view_def.omega, view_def.budget, join_impl)


class _FanoutSink:
    """Duck-typed cache target: append one Transform delta to N caches."""

    def __init__(self, caches: list[SecureCache]) -> None:
        self._caches = caches

    def append(self, delta: SharedTable) -> None:
        for cache in self._caches:
            cache.append(delta)


class TransformGroup:
    """Shared Transform state for all views with one signature."""

    def __init__(
        self,
        signature: tuple,
        view_def: JoinViewDefinition,
        probe_log: OutsourcedTable,
        driver_log: OutsourcedTable,
    ) -> None:
        self.signature = signature
        self.view_def = view_def
        self.probe_log = probe_log
        self.driver_log = driver_log
        #: The group's own contribution budget over the shared physical
        #: logs, so budgets drain per view family, not globally.
        self.ledger = ContributionLedger(
            view_def.omega, view_def.budget, (probe_log, driver_log)
        )
        self.transform: TransformProtocol | None = None
        self._counter_claimed = False
        self.sinks: list[SecureCache] = []
        self.member_names: list[str] = []
        self.last_report: TransformReport | None = None

    def ensure_transform(
        self, runtime: MPCRuntime, join_impl: str
    ) -> TransformProtocol:
        if self.transform is None:
            self.transform = TransformProtocol(
                runtime,
                self.view_def,
                self.probe_log,
                self.driver_log,
                self.ledger,
                join_impl=join_impl,
            )
        return self.transform

    def claim_counter(self) -> SharedCounter:
        """Hand out one cardinality counter per consuming policy."""
        assert self.transform is not None
        if not self._counter_claimed:
            self._counter_claimed = True
            return self.transform.counter
        extra = SharedCounter()
        self.transform.attach_counter(extra)
        return extra


@dataclass
class StepReport:
    """What one step did for one view."""

    time: int
    transform_seconds: float = 0.0
    shrink_seconds: float = 0.0
    view_updated: bool = False
    flushed: bool = False
    deferred_real: int = 0
    truncation_dropped: int = 0


@dataclass
class DatabaseStepReport:
    """Aggregate of one database step: per-view reports plus totals."""

    time: int
    views: dict[str, StepReport] = field(default_factory=dict)
    transform_runs: int = 0
    transform_seconds: float = 0.0
    shrink_seconds: float = 0.0
    views_updated: int = 0

    def view(self, name: str) -> StepReport:
        return self.views[name]


class StepScheduler:
    """Drives Transform groups and per-view policies through one step."""

    def __init__(self, groups: dict[tuple, TransformGroup], views: dict) -> None:
        # Live references to the database's registries (insertion-ordered).
        self._groups = groups
        self._views = views

    def run_step(self, time: int) -> DatabaseStepReport:
        report = DatabaseStepReport(time=time)

        # Phase 1 — one Transform invocation per signature with fresh
        # driver data, fanned out to every consuming cache.
        for group in self._groups.values():
            group.last_report = None
            if group.transform is None:
                continue
            times = group.driver_log.times
            if not len(times) or times[-1] != time:
                # No driver upload this step: nothing to transform for this
                # pair.  Policies below still run — Shrink schedules are
                # public and data-independent, so a timer tick or SVT check
                # fires (and spends its release budget) whether or not new
                # data arrived, exactly as a real deployment would.
                continue
            group.last_report = group.transform.run(time, _FanoutSink(group.sinks))
            report.transform_runs += 1
            report.transform_seconds += group.last_report.seconds

        # Phase 2 — every view's own policy and flusher.
        for vr in self._views.values():
            step = StepReport(time=time)
            t_rep = vr.group.last_report if vr.mode in TRANSFORM_MODES else None
            if t_rep is not None:
                step.transform_seconds = t_rep.seconds
                step.truncation_dropped = t_rep.dropped
                vr.metrics.transform_seconds.append_row(t_rep.seconds)
            if vr.policy is not None:
                s_rep = vr.policy.step(time, vr.cache, vr.view)
                if s_rep is not None:
                    step.shrink_seconds += s_rep.seconds
                    step.view_updated = True
                    step.deferred_real = s_rep.deferred_real
                    vr.metrics.shrink_seconds.append_row(s_rep.seconds)
                    vr.metrics.deferred_counts.append_row(s_rep.deferred_real)
            if vr.flusher is not None and vr.flusher.due(time):
                f_rep = vr.flusher.run(time, vr.cache, vr.view)
                step.flushed = True
                step.shrink_seconds += f_rep.seconds
                vr.metrics.shrink_seconds.append_row(f_rep.seconds)
            vr.metrics.view_size_rows.append_row(len(vr.view))
            vr.metrics.view_size_bytes.append_row(vr.view.byte_size)
            vr.metrics.cache_size_rows.append_row(len(vr.cache))
            report.views[vr.name] = step
            report.shrink_seconds += step.shrink_seconds
            if step.view_updated:
                report.views_updated += 1
        return report
