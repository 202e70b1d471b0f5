"""Tests for the experiment harness and the table/figure drivers.

Drivers run here at miniature scale — enough to validate wiring and
output shape; the benchmark suite runs them at reporting scale.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.figure7 import format_figure7, run_figure7
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.figure9 import format_figure9, run_figure9
from repro.experiments.harness import (
    MultiViewRunConfig,
    RunConfig,
    run_experiment,
    run_multiview_experiment,
)
from repro.experiments.reporting import format_table, format_value
from repro.experiments.table2 import format_table2, run_table2


class TestHarness:
    def test_run_result_fields(self):
        res = run_experiment(RunConfig(dataset="tpcds", mode="dp-timer", n_steps=30))
        assert res.summary.query_count == 30
        assert res.view_rate > 0
        assert res.timer_interval >= 1
        assert 0 < res.realized_epsilon <= res.config.epsilon + 1e-9

    def test_flush_size_auto_resolved(self):
        res = run_experiment(
            RunConfig(dataset="tpcds", mode="dp-timer", n_steps=30, flush_size=None)
        )
        assert res.view.flusher.flush_size > 0

    def test_explicit_flush_size_respected(self):
        res = run_experiment(
            RunConfig(dataset="tpcds", mode="dp-timer", n_steps=30, flush_size=7)
        )
        assert res.view.flusher.flush_size == 7

    def test_query_every_subsamples(self):
        res = run_experiment(
            RunConfig(dataset="tpcds", mode="otm", n_steps=30, query_every=10)
        )
        assert res.summary.query_count == 3


class TestMultiViewHarness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multiview_experiment(
            MultiViewRunConfig(dataset="tpcds", n_steps=24, query_every=6)
        )

    def test_three_views_over_two_shared_tables(self, result):
        assert len(result.view_modes) == 3
        assert result.upload_counts == {"sales": 24, "returns": 24}

    def test_transform_shared_across_same_signature_views(self, result):
        # full + EP audit share a circuit; recent runs its own: 2 per step.
        assert result.transform_runs == 2 * 24

    def test_mixed_aggregate_queries_planned(self, result):
        # 4 queried steps × (2 COUNTs + 1 SUM + 1 three-aggregate
        # dashboard) + 1 final NM fallback.
        assert result.summary.query_count == 17
        assert result.plan_counts.get("nm-fallback") == 1
        assert sum(result.plan_counts.values()) == 17

    def test_composed_epsilon_within_total(self, result):
        assert 0 < result.realized_epsilon <= result.config.total_epsilon + 1e-9
        assert sum(result.allocation.values()) <= result.config.total_epsilon + 1e-9

    def test_result_serializes_without_shares(self, result):
        payload = result.to_json()
        assert "share" not in payload
        assert '"realized_epsilon"' in payload

    def test_query_every_validated(self):
        with pytest.raises(ConfigurationError):
            run_multiview_experiment(MultiViewRunConfig(query_every=0))

    def test_invalid_query_every(self):
        with pytest.raises(ConfigurationError):
            run_experiment(RunConfig(query_every=0))

    def test_with_overrides(self):
        cfg = RunConfig().with_overrides(epsilon=9.0, mode="ep")
        assert cfg.epsilon == 9.0
        assert cfg.mode == "ep"
        assert cfg.dataset == "tpcds"

    def test_same_seed_reproduces_metrics(self):
        a = run_experiment(RunConfig(dataset="tpcds", mode="dp-timer", n_steps=25, seed=9))
        b = run_experiment(RunConfig(dataset="tpcds", mode="dp-timer", n_steps=25, seed=9))
        assert a.summary.avg_l1_error == b.summary.avg_l1_error
        assert a.summary.avg_qet_seconds == b.summary.avg_qet_seconds

    def test_to_json_roundtrips(self):
        import json

        res = run_experiment(RunConfig(dataset="tpcds", mode="dp-timer", n_steps=20))
        data = json.loads(res.to_json())
        assert data["config"]["mode"] == "dp-timer"
        assert data["summary"]["query_count"] == 20
        assert len(data["series"]["l1_errors"]) == 20
        assert data["realized_epsilon"] == pytest.approx(1.5)

    def test_to_dict_excludes_deployment_and_cost_model(self):
        res = run_experiment(RunConfig(dataset="tpcds", mode="otm", n_steps=10))
        data = res.to_dict()
        assert "database" not in data and "view" not in data
        assert "cost_model" not in data["config"]


class TestReportingHelpers:
    def test_format_value_conventions(self):
        assert format_value(None) == "N/A"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(0.1234) == "0.123"
        assert format_value("x") == "x"

    def test_format_table_aligns(self):
        out = format_table("T", ["a", "bb"], [[1, 2], [3, 4]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1


class TestDrivers:
    def test_table2_and_figure4_small(self):
        results = run_table2(n_steps=20, nm_query_every=10)
        text = format_table2(results)
        assert "Avg L1 error" in text
        assert "DP-Timer" in text
        points = run_figure4(results=results)
        assert len(points) == 10  # 2 datasets × 5 modes
        assert "Figure 4" in format_figure4(points)

    def test_figure5_small(self):
        res = run_figure5("tpcds", epsilons=(0.1, 10.0), seeds=(0,), n_steps=20)
        assert set(res) == {"dp-timer", "dp-ant"}
        assert set(res["dp-timer"]) == {0.1, 10.0}
        assert "privacy vs accuracy" in format_figure5("tpcds", res)

    def test_figure6_small(self):
        res = run_figure6("tpcds", seeds=(0,), n_steps=20)
        assert set(res["dp-timer"]) == {"sparse", "standard", "burst"}
        assert "workload" in format_figure6("tpcds", res)

    def test_figure7_small(self):
        res = run_figure7("tpcds", epsilons=(1.0,), t_values=(2, 5), n_steps=20)
        points = res[1.0]["dp-timer"]
        assert [p[0] for p in points] == [2, 5]
        assert "Figure 7" in format_figure7("tpcds", res)

    def test_figure8_small(self):
        res = run_figure8("cpdb", omegas=(2, 4), seeds=(0,), n_steps=20)
        assert set(res["dp-timer"]) == {2, 4}
        text = format_figure8("cpdb", res)
        assert "Transform" in text and "Shrink" in text

    def test_figure9_small(self):
        res = run_figure9("tpcds", scales=(0.5, 1.0), n_steps=15)
        assert set(res["dp-ant"]) == {0.5, 1.0}
        assert "scaling" in format_figure9("tpcds", res)
