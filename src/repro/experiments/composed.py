"""Composed IncShrink ∘ DP-Sync experiments (Section 8, Theorem 17).

The prototype assumes owners upload everything immediately in padded
batches.  DP-Sync lets owners *privately time* their uploads, protecting
the record-arrival pattern before data even reaches the servers; the
paper proves the composition is (ε₁+ε₂)-DP and has the additive error
bound of Theorem 17.

This harness runs the full composition: the owner side wraps a workload
through a record-synchronisation strategy (so some records lag in the
owner's pending queue — the *logical gap*), the server side runs a DP
IncShrink deployment, and accuracy is scored against the records the
owner has **received** (not merely uploaded), which is what Theorem 17's
bound speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..common.metrics import MetricLog, MetricSummary, QueryObservation
from ..common.rng import spawn
from ..core.dpsync import (
    DPAboveThresholdOwnerSync,
    DPTimerOwnerSync,
    EveryStepSync,
    SyncingOwner,
)
from ..dp.accountant import sequential_system_epsilon
from ..dp.bounds import theorem17_ant_error_bound, theorem17_timer_error_bound
from ..server.database import IncShrinkDatabase, ViewRegistration, ViewRuntime
from ..workload.variants import make_workload
from .harness import deploy_single_view, query_own_view

OWNER_STRATEGIES = ("every-step", "dp-timer", "dp-ant")


@dataclass(frozen=True)
class ComposedRunConfig:
    """Configuration of one owner-strategy × server-deployment run."""

    dataset: str = "tpcds"
    owner_strategy: str = "dp-timer"
    owner_epsilon: float = 1.0
    owner_interval: int = 2
    owner_threshold: float = 6.0
    server_mode: str = "dp-timer"
    server_epsilon: float = 1.5
    n_steps: int = 120
    seed: int = 0
    timer_interval: int = 10
    theta: float = 30.0
    flush_interval: int = 30
    flush_size: int = 50

    def __post_init__(self) -> None:
        if self.owner_strategy not in OWNER_STRATEGIES:
            raise ConfigurationError(
                f"owner strategy must be one of {OWNER_STRATEGIES}, "
                f"got {self.owner_strategy!r}"
            )
        if self.server_mode not in ("dp-timer", "dp-ant"):
            raise ConfigurationError(
                "composed experiments pair DP-Sync with a DP server mode"
            )


@dataclass
class ComposedRunResult:
    config: ComposedRunConfig
    summary: MetricSummary
    owner_max_gap: int
    total_epsilon: float
    theorem17_bound: float
    database: IncShrinkDatabase
    view: ViewRuntime


def _make_strategy(config: ComposedRunConfig, schema, role: str):
    gen = spawn(config.seed, "owner-sync", role)
    if config.owner_strategy == "every-step":
        return EveryStepSync(schema)
    if config.owner_strategy == "dp-timer":
        return DPTimerOwnerSync(
            schema, config.owner_epsilon, config.owner_interval, gen
        )
    return DPAboveThresholdOwnerSync(
        schema, config.owner_epsilon, config.owner_threshold, gen
    )


def run_composed_experiment(config: ComposedRunConfig) -> ComposedRunResult:
    """Run one composed deployment and score it against *received* data."""
    workload = make_workload(config.dataset, seed=config.seed, n_steps=config.n_steps)
    vd = workload.view_def

    probe_owner = SyncingOwner(
        vd.probe_schema,
        _make_strategy(config, vd.probe_schema, "probe"),
        batch_capacity=len(workload.steps[0].probe),
    )
    # A public driver relation (CPDB's Award table) needs no private
    # synchronisation; private drivers get their own strategy instance.
    driver_owner = None
    if not vd.driver_public:
        driver_owner = SyncingOwner(
            vd.driver_schema,
            _make_strategy(config, vd.driver_schema, "driver"),
            batch_capacity=len(workload.steps[0].driver),
        )

    database, view = deploy_single_view(
        ViewRegistration(
            vd,
            mode=config.server_mode,
            timer_interval=config.timer_interval,
            ant_threshold=config.theta,
            flush_interval=config.flush_interval,
            flush_size=config.flush_size,
        ),
        epsilon=config.server_epsilon,
        seed=config.seed,
    )

    metrics = MetricLog()
    received_probe: list[np.ndarray] = []
    received_driver: list[np.ndarray] = []
    for step in workload.steps:
        received_probe.append(step.probe.real_rows())
        received_driver.append(step.driver.real_rows())

        probe_batch = probe_owner.step(step.time, step.probe.real_rows())
        if driver_owner is None:
            driver_batch = step.driver
        else:
            driver_batch = driver_owner.step(step.time, step.driver.real_rows())
        database.upload(
            step.time,
            [(vd.probe_table, probe_batch), (vd.driver_table, driver_batch)],
        )
        database.step(step.time)

        # Score against everything the owner has *received* by now.
        obs = query_own_view(database, view, step.time)
        truth = vd.logical_join_count(
            np.vstack(received_probe) if received_probe else vd.probe_schema.empty_rows(0),
            np.vstack(received_driver) if received_driver else vd.driver_schema.empty_rows(0),
        )
        metrics.record_query(
            QueryObservation(
                time=step.time,
                logical_answer=float(truth),
                view_answer=obs.view_answer,
                qet_seconds=obs.qet_seconds,
            )
        )

    owner_gap = probe_owner.max_gap + (driver_owner.max_gap if driver_owner else 0)
    owner_eps = 0.0 if config.owner_strategy == "every-step" else config.owner_epsilon
    updates = getattr(view.policy, "updates_done", 0)
    if config.server_mode == "dp-timer":
        bound = theorem17_timer_error_bound(
            config.server_epsilon, vd.budget, max(updates, 1), sync_alpha=owner_gap
        )
    else:
        bound = theorem17_ant_error_bound(
            config.server_epsilon, vd.budget, config.n_steps, sync_alpha=owner_gap
        )

    return ComposedRunResult(
        config=config,
        summary=metrics.summary(),
        owner_max_gap=owner_gap,
        total_epsilon=sequential_system_epsilon(owner_eps, config.server_epsilon),
        theorem17_bound=bound,
        database=database,
        view=view,
    )
