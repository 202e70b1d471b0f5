"""Tests for the IncShrink engine (the full Figure-1 workflow)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import RecordBatch
from repro.core.engine import MODES, EngineConfig, IncShrinkEngine
from repro.experiments.harness import RunConfig, run_experiment

GOLDEN_MODES = Path(__file__).parent / "golden" / "engine_modes_48.json"


def upload_steps(engine, view_def, steps):
    """Feed scripted (probe_rows, driver_rows) pairs; query each step."""
    observations = []
    for t, (probe_rows, driver_rows) in enumerate(steps, start=1):
        probe = RecordBatch(
            view_def.probe_schema,
            np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2),
        ).padded_to(4)
        driver = RecordBatch(
            view_def.driver_schema,
            np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2),
        ).padded_to(3)
        engine.upload(t, probe, driver)
        engine.process_step(t)
        observations.append(engine.query_count(t))
    return observations


SCRIPT = [
    ([[1, 1], [2, 1]], [[1, 2]]),
    ([[3, 2]], [[2, 3], [3, 3]]),
    ([], [[3, 4]]),
    ([[9, 4]], []),
]
# Logical qualifying pairs (window 2): (1,1)x(1,2)@t1, (2,1)x(2,3)@t2,
# (3,2)x(3,3)@t2, (3,2)x(3,4)@t3 → logical counts per step: 1, 3, 4, 4.


class TestEngineConfigValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            EngineConfig(mode="quantum")

    @pytest.mark.parametrize("epsilon", [0.0, -1.5])
    def test_nonpositive_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon"):
            EngineConfig(epsilon=epsilon)

    @pytest.mark.parametrize("interval", [0, -3])
    def test_timer_interval_below_one_rejected(self, interval):
        with pytest.raises(ConfigurationError, match="timer_interval"):
            EngineConfig(timer_interval=interval)

    @pytest.mark.parametrize("threshold", [0.0, -30.0])
    def test_nonpositive_ant_threshold_rejected(self, threshold):
        with pytest.raises(ConfigurationError, match="ant_threshold"):
            EngineConfig(ant_threshold=threshold)

    @pytest.mark.parametrize("interval", [0, -2000])
    def test_nonpositive_flush_interval_rejected(self, interval):
        with pytest.raises(ConfigurationError, match="flush_interval"):
            EngineConfig(flush_interval=interval)

    @pytest.mark.parametrize("size", [0, -15])
    def test_nonpositive_flush_size_rejected(self, size):
        with pytest.raises(ConfigurationError, match="flush_size"):
            EngineConfig(flush_size=size)

    def test_unknown_join_impl_rejected(self):
        with pytest.raises(ConfigurationError, match="join_impl"):
            EngineConfig(join_impl="hash")

    def test_paper_defaults_are_valid(self):
        assert EngineConfig().mode == "dp-timer"


class TestEngineModes:

    def test_ep_mode_is_exact_without_truncation(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="ep"))
        obs = upload_steps(engine, tiny_view_def, SCRIPT)
        assert [o.logical_answer for o in obs] == [1, 3, 4, 4]
        assert all(o.l1 == 0 for o in obs)

    def test_nm_mode_is_exact(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="nm"))
        obs = upload_steps(engine, tiny_view_def, SCRIPT)
        assert all(o.l1 == 0 for o in obs)
        # NM has no view at all.
        assert len(engine.view) == 0

    def test_otm_mode_answers_zero(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="otm"))
        obs = upload_steps(engine, tiny_view_def, SCRIPT)
        assert all(o.view_answer == 0 for o in obs)
        assert obs[-1].relative == 1.0

    def test_dp_timer_converges_with_high_epsilon(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-timer", epsilon=1000.0, timer_interval=1),
        )
        obs = upload_steps(engine, tiny_view_def, SCRIPT)
        # With negligible noise and per-step sync, answers track truth.
        assert obs[-1].l1 <= 1

    def test_dp_ant_mode_runs(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-ant", epsilon=100.0, ant_threshold=1.0),
        )
        obs = upload_steps(engine, tiny_view_def, SCRIPT)
        assert obs[-1].l1 <= 2

    def test_nm_slower_than_view_modes(self, tiny_view_def):
        qets = {}
        for mode in ("nm", "ep"):
            engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode=mode))
            obs = upload_steps(engine, tiny_view_def, SCRIPT)
            qets[mode] = obs[-1].qet_seconds
        assert qets["nm"] > qets["ep"]


class TestEngineAccounting:
    def test_realized_epsilon_bounded_by_config(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-timer", epsilon=2.0, timer_interval=2),
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        assert engine.realized_epsilon() <= 2.0 + 1e-9
        assert engine.realized_epsilon() > 0

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(mode="dp-timer", epsilon=2.0, timer_interval=2),
            EngineConfig(mode="dp-ant", epsilon=2.0, ant_threshold=2.0),
        ],
    )
    def test_realized_epsilon_positive_and_bounded_per_dp_mode(
        self, tiny_view_def, config
    ):
        engine = IncShrinkEngine(tiny_view_def, config)
        upload_steps(engine, tiny_view_def, SCRIPT)
        assert 0 < engine.realized_epsilon() <= config.epsilon + 1e-9

    @pytest.mark.parametrize("mode", ["ep", "otm", "nm"])
    def test_realized_epsilon_zero_for_baselines(self, tiny_view_def, mode):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode=mode))
        upload_steps(engine, tiny_view_def, SCRIPT)
        assert engine.realized_epsilon() == 0.0

    def test_facade_epsilon_matches_database_composition(self, tiny_view_def):
        """The single-view façade's ε is the database-level composed ε —
        one DP view gets the whole budget, so they coincide."""
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-timer", epsilon=2.0, timer_interval=2),
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        assert engine.database.epsilon_allocation() == {
            tiny_view_def.name: pytest.approx(2.0)
        }
        assert engine.database.realized_epsilon() == pytest.approx(
            engine.realized_epsilon()
        )

    def test_metrics_populated(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def, EngineConfig(mode="dp-timer", timer_interval=2)
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        summary = engine.metrics.summary()
        assert summary.query_count == len(SCRIPT)
        assert len(engine.metrics.transform_seconds) == len(SCRIPT)
        assert len(engine.metrics.view_size_rows) == len(SCRIPT)

    def test_logical_mirror_matches_uploads(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="otm"))
        upload_steps(engine, tiny_view_def, SCRIPT)
        probe = engine.logical.instance_at(tiny_view_def.probe_table, 4)
        assert len(probe) == 4  # only real rows mirrored, not padding

    def test_stores_receive_padded_batches(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="otm"))
        upload_steps(engine, tiny_view_def, SCRIPT)
        assert engine.probe_store.total_rows == 4 * 4  # 4 steps × capacity 4
        assert engine.driver_store.total_rows == 4 * 3


class TestEngineSumQueries:
    """The logical SUM path reaches the view layer through the façade."""

    def test_ep_sum_is_exact(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="ep"))
        upload_steps(engine, tiny_view_def, SCRIPT)
        obs = engine.query_sum(4, "shipments", "sts")
        # Qualifying pairs at t=4 carry driver ts 2, 3, 3, 4 → sum 12.
        assert obs.logical_answer == 12
        assert obs.l1 == 0

    def test_nm_sum_is_exact(self, tiny_view_def):
        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="nm"))
        upload_steps(engine, tiny_view_def, SCRIPT)
        obs = engine.query_sum(4, "orders", "ots")
        assert obs.l1 == 0

    def test_dp_sum_converges_with_high_epsilon(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-timer", epsilon=1000.0, timer_interval=1),
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        obs = engine.query_sum(4, "shipments", "sts")
        # One deferred pair at most; driver ts values are <= 4.
        assert obs.l1 <= 4

    def test_foreign_sum_table_rejected(self, tiny_view_def):
        from repro.common.errors import SchemaError

        engine = IncShrinkEngine(tiny_view_def, EngineConfig(mode="ep"))
        upload_steps(engine, tiny_view_def, SCRIPT)
        with pytest.raises(SchemaError, match="neither side"):
            engine.query_sum(4, "users", "x")


class TestEngineTranscriptLeakage:
    def test_true_counter_never_published(self, tiny_view_def):
        """The DP guarantee in practice: nothing in the transcript equals
        the protocol-internal cardinality sequence."""
        engine = IncShrinkEngine(
            tiny_view_def,
            EngineConfig(mode="dp-timer", epsilon=1.5, timer_interval=1),
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        for event in engine.runtime.transcript:
            assert "counter" not in event.payload
            assert "real" not in str(event.payload)

    def test_transform_events_public_sizes_only(self, tiny_view_def):
        engine = IncShrinkEngine(
            tiny_view_def, EngineConfig(mode="dp-timer", timer_interval=2)
        )
        upload_steps(engine, tiny_view_def, SCRIPT)
        deltas = {
            e.payload["cache_delta"]
            for e in engine.runtime.transcript.of_kind("transform")
        }
        # Driver capacity 3 × ω 2 = 6 on every step, data-independent.
        assert deltas == {6}


def engine_modes_record(dataset: str, mode: str) -> dict:
    """One façade run as ``tests/golden/engine_modes_48.json`` stores it:
    48 steps, seed 3, the registered COUNT every 2 steps, one SUM at the
    end — every observation field, every protocol run, realized ε."""
    result = run_experiment(
        RunConfig(dataset=dataset, mode=mode, n_steps=48, seed=3, query_every=2)
    )
    engine = result.engine
    vd = engine.view_def
    engine.query_sum(48, vd.driver_table, vd.driver_ts)
    return {
        "queries": [
            [q.time, q.logical_answer, q.view_answer, q.qet_seconds]
            for q in engine.metrics.queries
        ],
        "runs": [[r.name, r.time, r.gates] for r in engine.runtime.runs],
        "realized_epsilon": engine.realized_epsilon(),
    }


class TestGoldenModes:
    @pytest.mark.parametrize("dataset", ["tpcds", "cpdb"])
    @pytest.mark.parametrize("mode", MODES)
    def test_facade_reproduces_the_per_class_path(self, dataset, mode):
        """Recorded at the last commit whose façade answered through the
        per-class COUNT/SUM executors; the compiled pipeline must give the
        paper's figures the same observations, gates and ε, to the bit."""
        golden = json.loads(GOLDEN_MODES.read_text())[f"{dataset}/{mode}"]
        assert engine_modes_record(dataset, mode) == golden
