"""Tests for the Section-8 extension DP-Sync: owner-side sync strategies."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.core.dpsync import (
    DPAboveThresholdOwnerSync,
    DPTimerOwnerSync,
    EveryStepSync,
    SyncingOwner,
)

SCHEMA = Schema(("k", "ts"))


class TestOwnerSyncStrategies:
    def test_every_step_sync_has_zero_gap(self):
        strategy = EveryStepSync(SCHEMA)
        decision = strategy.step(1, np.asarray([[1, 1], [2, 1]], dtype=np.uint32))
        assert len(decision.released) == 2
        assert decision.logical_gap == 0

    def test_dp_timer_sync_releases_on_interval(self):
        strategy = DPTimerOwnerSync(SCHEMA, epsilon=50.0, interval=2, gen=spawn(0, "o"))
        d1 = strategy.step(1, np.asarray([[1, 1]], dtype=np.uint32))
        assert len(d1.released) == 0  # off-schedule
        assert d1.logical_gap == 1
        d2 = strategy.step(2, np.asarray([[2, 2]], dtype=np.uint32))
        assert len(d2.released) >= 1  # noisy count ≈ 2 at ε=50

    def test_dp_timer_sync_gap_shrinks_after_release(self):
        strategy = DPTimerOwnerSync(SCHEMA, epsilon=50.0, interval=1, gen=spawn(1, "o"))
        rows = np.asarray([[i, 1] for i in range(1, 6)], dtype=np.uint32)
        decision = strategy.step(1, rows)
        assert decision.logical_gap <= 1

    def test_dp_ant_sync_triggers_above_threshold(self):
        strategy = DPAboveThresholdOwnerSync(
            SCHEMA, epsilon=50.0, threshold=3.0, gen=spawn(2, "o")
        )
        released_any = False
        for t in range(1, 10):
            d = strategy.step(t, np.asarray([[t, t]], dtype=np.uint32))
            released_any = released_any or len(d.released) > 0
        assert released_any

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DPTimerOwnerSync(SCHEMA, epsilon=0, interval=1, gen=spawn(0, "o"))
        with pytest.raises(ConfigurationError):
            DPAboveThresholdOwnerSync(SCHEMA, epsilon=-1, threshold=1, gen=spawn(0, "o"))


class TestSyncingOwner:
    def test_emits_fixed_size_padded_batches(self):
        owner = SyncingOwner(SCHEMA, EveryStepSync(SCHEMA), batch_capacity=4)
        batch = owner.step(1, np.asarray([[1, 1]], dtype=np.uint32))
        assert len(batch) == 4
        assert batch.real_count == 1

    def test_overflow_carries_to_next_step(self):
        owner = SyncingOwner(SCHEMA, EveryStepSync(SCHEMA), batch_capacity=2)
        rows = np.asarray([[i, 1] for i in range(1, 6)], dtype=np.uint32)
        b1 = owner.step(1, rows)
        assert b1.real_count == 2
        assert owner.gap_history[-1] == 3
        b2 = owner.step(2, SCHEMA.empty_rows(0))
        assert b2.real_count == 2
        assert owner.max_gap == 3

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SyncingOwner(SCHEMA, EveryStepSync(SCHEMA), batch_capacity=0)
