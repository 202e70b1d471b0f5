"""Tests for the Section-8 extensions: multi-level pipelines and DP-Sync."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import spawn
from repro.common.types import RecordBatch, Schema
from repro.core.dpsync import (
    DPAboveThresholdOwnerSync,
    DPTimerOwnerSync,
    EveryStepSync,
    SyncingOwner,
)
from repro.core.multilevel import MultiLevelIncShrink, SelectionStage
from repro.experiments.harness import deploy_single_view
from repro.mpc.runtime import MPCRuntime
from repro.server.database import ViewRegistration
from repro.sharing.shared_value import SharedTable

SCHEMA = Schema(("k", "ts"))


class TestSelectionStage:
    def _delta(self, rows, flags, seed=0):
        return SharedTable.from_plain(
            SCHEMA,
            np.asarray(rows, dtype=np.uint32).reshape(-1, 2),
            np.asarray(flags, dtype=np.uint32),
            spawn(seed, "stage"),
        )

    def _stage(self, epsilon=100.0, interval=1):
        runtime = MPCRuntime(seed=0)
        return SelectionStage(
            runtime,
            SCHEMA,
            predicate=lambda rows: rows[:, 0] >= 5,
            epsilon=epsilon,
            b=2,
            interval=interval,
        )

    def test_ingest_filters_without_resizing(self):
        stage = self._stage()
        stage.ingest(1, self._delta([[9, 1], [1, 1], [0, 0]], [1, 1, 0]))
        assert len(stage.cache) == 3  # size unchanged: selection is oblivious
        runtime = stage.runtime
        with runtime.protocol("peek") as ctx:
            assert stage.cache.real_count(ctx) == 1  # only (9,1) survives

    def test_counter_tracks_selected(self):
        stage = self._stage()
        stage.ingest(1, self._delta([[9, 1], [7, 1]], [1, 1]))
        with stage.runtime.protocol("peek") as ctx:
            assert stage.counter.read(ctx) == 2

    def test_own_shrink_moves_to_stage_view(self):
        stage = self._stage(epsilon=1000.0, interval=1)
        stage.ingest(1, self._delta([[9, 1], [1, 1]], [1, 1]))
        report = stage.step(1)
        assert report is not None
        assert len(stage.view) >= 1

    def test_schema_mismatch_rejected(self):
        stage = self._stage()
        bad = SharedTable.empty(Schema(("other",)))
        with pytest.raises(ConfigurationError):
            stage.ingest(1, bad)


class TestMultiLevelIncShrink:
    def _build(self, tiny_view_def):
        database, _ = deploy_single_view(
            ViewRegistration(tiny_view_def, mode="dp-timer", timer_interval=1),
            epsilon=1000.0,
        )
        pipeline = MultiLevelIncShrink(
            database,
            tiny_view_def.name,
            predicate=lambda rows: rows[:, 0] == 1,  # p_key == 1
            epsilon_level2=500.0,
            interval=1,
        )
        return database, pipeline

    def _upload(self, database, vd, t, probe_rows, driver_rows):
        probe = RecordBatch(
            vd.probe_schema, np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(4)
        driver = RecordBatch(
            vd.driver_schema, np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(3)
        database.upload(t, [(vd.probe_table, probe), (vd.driver_table, driver)])

    def test_level2_receives_level1_deltas(self, tiny_view_def):
        database, pipeline = self._build(tiny_view_def)
        self._upload(database, tiny_view_def, 1, [[1, 1], [2, 1]], [[1, 2], [2, 2]])
        pipeline.process_step(1)
        self._upload(database, tiny_view_def, 2, [], [])
        pipeline.process_step(2)
        # Level-1 view has both joins; level-2 keeps only p_key == 1.
        with database.runtime.protocol("peek") as ctx:
            level2_real = pipeline.stage2.view.real_count(ctx)
        assert level2_real == 1

    def test_total_epsilon_is_sequential_sum(self, tiny_view_def):
        _, pipeline = self._build(tiny_view_def)
        assert pipeline.total_epsilon() == pytest.approx(1500.0)


class TestTwoLevelBudgetPlanner:
    def test_returns_a_full_split(self):
        from repro.core.multilevel import plan_two_level_budget

        eps_join, eps_filter = plan_two_level_budget(
            total_epsilon=2.0,
            join_input_sizes=(1000, 1000),
            filter_input_size=400,
            join_output_size=400,
            filter_output_size=100,
            budget_b=10,
            expected_updates=16,
        )
        assert eps_join + eps_filter == pytest.approx(2.0)
        assert eps_join > 0 and eps_filter > 0

    def test_smaller_operator_input_gets_less_budget(self):
        """The filter's small input is hurt more per dummy, but the join
        weighs more in E_Q (larger output share and twice the dummies):
        the optimum gives the join the larger ε slice."""
        from repro.core.multilevel import plan_two_level_budget

        eps_join, eps_filter = plan_two_level_budget(
            total_epsilon=2.0,
            join_input_sizes=(500, 500),
            filter_input_size=450,
            join_output_size=450,
            filter_output_size=50,
            budget_b=10,
            expected_updates=16,
        )
        assert eps_join > eps_filter


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
