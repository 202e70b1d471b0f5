"""The paper's one-view deployment (the full Figure-1 workflow).

One :class:`~repro.server.database.IncShrinkDatabase` with one
:class:`~repro.server.database.ViewRegistration`, queried the way the
paper's experiments query it
(:func:`~repro.experiments.harness.query_own_view`).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import RecordBatch
from repro.experiments.harness import (
    RunConfig,
    deploy_single_view,
    query_own_view,
    run_experiment,
)
from repro.query.ast import AggregateSpec
from repro.server.database import MODES, IncShrinkDatabase, ViewRegistration

GOLDEN_MODES = Path(__file__).parent / "golden" / "engine_modes_48.json"


def deploy(view_def, mode, epsilon=1.5, **knobs):
    """``(database, view)`` for one view in ``mode``."""
    return deploy_single_view(
        ViewRegistration(view_def, mode=mode, **knobs), epsilon=epsilon
    )


def upload_steps(database, view, steps):
    """Feed scripted (probe_rows, driver_rows) pairs; query each step."""
    vd = view.view_def
    observations = []
    for t, (probe_rows, driver_rows) in enumerate(steps, start=1):
        probe = RecordBatch(
            vd.probe_schema,
            np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2),
        ).padded_to(4)
        driver = RecordBatch(
            vd.driver_schema,
            np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2),
        ).padded_to(3)
        database.upload(t, [(vd.probe_table, probe), (vd.driver_table, driver)])
        database.step(t)
        observations.append(query_own_view(database, view, t))
    return observations


def sum_of(database, view, table, column, time=4):
    return query_own_view(database, view, time, AggregateSpec.sum_of(table, column))


SCRIPT = [
    ([[1, 1], [2, 1]], [[1, 2]]),
    ([[3, 2]], [[2, 3], [3, 3]]),
    ([], [[3, 4]]),
    ([[9, 4]], []),
]
# Logical qualifying pairs (window 2): (1,1)x(1,2)@t1, (2,1)x(2,3)@t2,
# (3,2)x(3,3)@t2, (3,2)x(3,4)@t3 → logical counts per step: 1, 3, 4, 4.


class TestViewConfigValidation:
    """A view's knobs have one config surface: the registration."""

    def test_invalid_mode_rejected(self, tiny_view_def):
        with pytest.raises(ConfigurationError, match="mode"):
            ViewRegistration(tiny_view_def, mode="quantum")

    @pytest.mark.parametrize("epsilon", [0.0, -1.5])
    def test_nonpositive_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon"):
            IncShrinkDatabase(total_epsilon=epsilon)

    @pytest.mark.parametrize("interval", [0, -3])
    def test_timer_interval_below_one_rejected(self, tiny_view_def, interval):
        with pytest.raises(ConfigurationError, match="timer_interval"):
            ViewRegistration(tiny_view_def, timer_interval=interval)

    @pytest.mark.parametrize("threshold", [0.0, -30.0])
    def test_nonpositive_ant_threshold_rejected(self, tiny_view_def, threshold):
        with pytest.raises(ConfigurationError, match="ant_threshold"):
            ViewRegistration(tiny_view_def, ant_threshold=threshold)

    @pytest.mark.parametrize("interval", [0, -2000])
    def test_nonpositive_flush_interval_rejected(self, tiny_view_def, interval):
        with pytest.raises(ConfigurationError, match="flush_interval"):
            ViewRegistration(tiny_view_def, flush_interval=interval)

    @pytest.mark.parametrize("size", [0, -15])
    def test_nonpositive_flush_size_rejected(self, tiny_view_def, size):
        with pytest.raises(ConfigurationError, match="flush_size"):
            ViewRegistration(tiny_view_def, flush_size=size)

    def test_unknown_join_impl_rejected(self, tiny_view_def):
        with pytest.raises(ConfigurationError, match="join_impl"):
            ViewRegistration(tiny_view_def, join_impl="hash")

    def test_paper_defaults_are_valid(self, tiny_view_def):
        spec = ViewRegistration(tiny_view_def)
        assert (spec.mode, spec.timer_interval, spec.ant_threshold) == (
            "dp-timer", 10, 30.0
        )
        assert (spec.flush_interval, spec.flush_size) == (2000, 15)
        assert IncShrinkDatabase().total_epsilon == 1.5


class TestModes:

    def test_ep_mode_is_exact_without_truncation(self, tiny_view_def):
        obs = upload_steps(*deploy(tiny_view_def, "ep"), SCRIPT)
        assert [o.logical_answer for o in obs] == [1, 3, 4, 4]
        assert all(o.l1 == 0 for o in obs)

    def test_nm_mode_is_exact(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "nm")
        obs = upload_steps(database, view, SCRIPT)
        assert all(o.l1 == 0 for o in obs)
        # NM has no view at all.
        assert len(view.view) == 0

    def test_otm_mode_answers_zero(self, tiny_view_def):
        obs = upload_steps(*deploy(tiny_view_def, "otm"), SCRIPT)
        assert all(o.view_answer == 0 for o in obs)
        assert obs[-1].relative == 1.0

    def test_dp_timer_converges_with_high_epsilon(self, tiny_view_def):
        deployment = deploy(tiny_view_def, "dp-timer", 1000.0, timer_interval=1)
        obs = upload_steps(*deployment, SCRIPT)
        # With negligible noise and per-step sync, answers track truth.
        assert obs[-1].l1 <= 1

    def test_dp_ant_mode_runs(self, tiny_view_def):
        deployment = deploy(tiny_view_def, "dp-ant", 100.0, ant_threshold=1.0)
        obs = upload_steps(*deployment, SCRIPT)
        assert obs[-1].l1 <= 2

    def test_nm_slower_than_view_modes(self, tiny_view_def):
        qets = {}
        for mode in ("nm", "ep"):
            obs = upload_steps(*deploy(tiny_view_def, mode), SCRIPT)
            qets[mode] = obs[-1].qet_seconds
        assert qets["nm"] > qets["ep"]


class TestAccounting:
    def test_realized_epsilon_bounded_by_config(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "dp-timer", 2.0, timer_interval=2)
        upload_steps(database, view, SCRIPT)
        realized = database.view_realized_epsilon(view.name)
        assert 0 < realized <= 2.0 + 1e-9

    @pytest.mark.parametrize(
        "mode, knobs",
        [("dp-timer", {"timer_interval": 2}), ("dp-ant", {"ant_threshold": 2.0})],
    )
    def test_realized_epsilon_positive_and_bounded_per_dp_mode(
        self, tiny_view_def, mode, knobs
    ):
        database, view = deploy(tiny_view_def, mode, 2.0, **knobs)
        upload_steps(database, view, SCRIPT)
        assert 0 < database.view_realized_epsilon(view.name) <= 2.0 + 1e-9

    @pytest.mark.parametrize("mode", ["ep", "otm", "nm"])
    def test_realized_epsilon_zero_for_baselines(self, tiny_view_def, mode):
        database, view = deploy(tiny_view_def, mode)
        upload_steps(database, view, SCRIPT)
        assert database.view_realized_epsilon(view.name) == 0.0

    def test_view_epsilon_matches_database_composition(self, tiny_view_def):
        """One DP view gets the whole budget, so the view's ε and the
        database-level composed ε coincide."""
        database, view = deploy(tiny_view_def, "dp-timer", 2.0, timer_interval=2)
        upload_steps(database, view, SCRIPT)
        assert database.epsilon_allocation() == {
            tiny_view_def.name: pytest.approx(2.0)
        }
        assert database.realized_epsilon() == pytest.approx(
            database.view_realized_epsilon(view.name)
        )

    def test_metrics_populated(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "dp-timer", timer_interval=2)
        upload_steps(database, view, SCRIPT)
        summary = view.metrics.summary()
        assert summary.query_count == len(SCRIPT)
        assert len(view.metrics.transform_seconds) == len(SCRIPT)
        assert len(view.metrics.view_size_rows) == len(SCRIPT)

    def test_logical_mirror_matches_uploads(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "otm")
        upload_steps(database, view, SCRIPT)
        probe = database.logical.instance_at(tiny_view_def.probe_table, 4)
        assert len(probe) == 4  # only real rows mirrored, not padding

    def test_stores_receive_padded_batches(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "otm")
        upload_steps(database, view, SCRIPT)
        assert view.group.probe_log.total_rows == 4 * 4  # 4 steps × capacity 4
        assert view.group.driver_log.total_rows == 4 * 3


class TestSumQueries:
    """The logical SUM path reaches the view layer."""

    def test_ep_sum_is_exact(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "ep")
        upload_steps(database, view, SCRIPT)
        obs = sum_of(database, view, "shipments", "sts")
        # Qualifying pairs at t=4 carry driver ts 2, 3, 3, 4 → sum 12.
        assert obs.logical_answer == 12
        assert obs.l1 == 0

    def test_nm_sum_is_exact(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "nm")
        upload_steps(database, view, SCRIPT)
        assert sum_of(database, view, "orders", "ots").l1 == 0

    def test_dp_sum_converges_with_high_epsilon(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "dp-timer", 1000.0, timer_interval=1)
        upload_steps(database, view, SCRIPT)
        obs = sum_of(database, view, "shipments", "sts")
        # One deferred pair at most; driver ts values are <= 4.
        assert obs.l1 <= 4

    def test_foreign_sum_table_rejected(self, tiny_view_def):
        from repro.common.errors import SchemaError

        database, view = deploy(tiny_view_def, "ep")
        upload_steps(database, view, SCRIPT)
        with pytest.raises(SchemaError, match="neither side"):
            sum_of(database, view, "users", "x")


class TestTranscriptLeakage:
    def test_true_counter_never_published(self, tiny_view_def):
        """The DP guarantee in practice: nothing in the transcript equals
        the protocol-internal cardinality sequence."""
        database, view = deploy(tiny_view_def, "dp-timer", timer_interval=1)
        upload_steps(database, view, SCRIPT)
        for event in database.runtime.transcript:
            assert "counter" not in event.payload
            assert "real" not in str(event.payload)

    def test_transform_events_public_sizes_only(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "dp-timer", timer_interval=2)
        upload_steps(database, view, SCRIPT)
        deltas = {
            e.payload["cache_delta"]
            for e in database.runtime.transcript.of_kind("transform")
        }
        # Driver capacity 3 × ω 2 = 6 on every step, data-independent.
        assert deltas == {6}


def engine_modes_record(dataset: str, mode: str) -> dict:
    """One run as ``tests/golden/engine_modes_48.json`` stores it:
    48 steps, seed 3, the registered COUNT every 2 steps, one SUM at the
    end — every observation field, every protocol run, realized ε."""
    result = run_experiment(
        RunConfig(dataset=dataset, mode=mode, n_steps=48, seed=3, query_every=2)
    )
    database, view = result.database, result.view
    vd = view.view_def
    query_own_view(
        database, view, 48, AggregateSpec.sum_of(vd.driver_table, vd.driver_ts)
    )
    return {
        "queries": [
            list(q) for q in zip(*(c.tolist() for c in view.metrics.queries.view().values()))
        ],
        "runs": [[r.name, r.time, r.gates] for r in database.runtime.runs],
        "realized_epsilon": result.realized_epsilon,
    }


class TestGoldenModes:
    @pytest.mark.parametrize("dataset", ["tpcds", "cpdb"])
    @pytest.mark.parametrize("mode", MODES)
    def test_run_reproduces_the_per_class_path(self, dataset, mode):
        """Recorded at the last commit that answered through the
        per-class COUNT/SUM executors; the compiled pipeline must give the
        paper's figures the same observations, gates and ε, to the bit."""
        golden = json.loads(GOLDEN_MODES.read_text())[f"{dataset}/{mode}"]
        assert engine_modes_record(dataset, mode) == golden
