"""Unit tests for the accuracy/efficiency metrics (Section 4.1)."""

import pytest

from repro.common.metrics import (
    MetricLog,
    QueryObservation,
    improvement,
    l1_error,
    relative_error,
)


class TestErrors:
    def test_l1_is_absolute_difference(self):
        assert l1_error(10, 14) == 4
        assert l1_error(14, 10) == 4

    def test_relative_error_normalises(self):
        assert relative_error(90, 100) == pytest.approx(0.1)

    def test_relative_error_zero_truth_exact(self):
        assert relative_error(0, 0) == 0.0

    def test_relative_error_zero_truth_wrong_is_one(self):
        # The OTM convention: answering 0 against nothing is perfect,
        # answering anything against 0 truth is a full relative error.
        assert relative_error(5, 0) == 1.0


class TestQueryObservation:
    def test_derived_metrics(self):
        obs = QueryObservation(time=3, logical_answer=50, view_answer=45, qet_seconds=0.2)
        assert obs.l1 == 5
        assert obs.relative == pytest.approx(0.1)


class TestMetricLog:
    def test_summary_aggregates(self):
        log = MetricLog()
        log.record_query(QueryObservation(1, 10, 10, 0.5))
        log.record_query(QueryObservation(2, 20, 16, 1.5))
        log.transform_seconds.append([1.0, 3.0])
        log.shrink_seconds.append([2.0])
        log.view_size_rows.append([10, 30])
        log.view_size_bytes.append([1_000_000, 3_000_000])
        log.deferred_counts.append([0, 7])
        s = log.summary()
        assert s.avg_l1_error == pytest.approx(2.0)
        assert s.avg_relative_error == pytest.approx(0.1)
        assert s.avg_qet_seconds == pytest.approx(1.0)
        assert s.total_qet_seconds == pytest.approx(2.0)
        assert s.avg_transform_seconds == pytest.approx(2.0)
        assert s.avg_shrink_seconds == pytest.approx(2.0)
        assert s.total_mpc_seconds == pytest.approx(6.0)
        assert s.avg_view_size_rows == pytest.approx(20.0)
        assert s.avg_view_size_mb == pytest.approx(2.0)
        assert s.max_deferred == 7
        assert s.query_count == 2

    def test_empty_log_summary_is_zeroes(self):
        s = MetricLog().summary()
        assert s.avg_l1_error == 0.0
        assert s.query_count == 0
        assert s.max_deferred == 0


class TestImprovement:
    def test_ratio(self):
        assert improvement(100.0, 2.0) == pytest.approx(50.0)

    def test_zero_candidate_with_positive_baseline(self):
        assert improvement(5.0, 0.0) == float("inf")

    def test_both_zero_is_parity(self):
        assert improvement(0.0, 0.0) == 1.0
