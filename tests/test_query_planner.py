"""Unit tests for cost-based planning and the SUM lowering path."""

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.common.rng import spawn
from repro.mpc.cost_model import DEFAULT_COST_MODEL
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import (
    AggregateSpec,
    LogicalJoinQuery,
    LogicalQuery,
    ViewScanPlan,
)
from repro.query.executor import execute_nm_query
from repro.query.parallel import ParallelScanExecutor
from repro.query.planner import (
    NM_JOIN,
    VIEW_SCAN,
    ViewCandidate,
    multi_scan_gates,
    nm_join_gates,
    plan_query,
)
from repro.query.rewrite import can_answer, lower_to_view_scan
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView
from repro.storage.outsourced_table import OutsourcedTable

JOIN_FIELDS = dict(
    probe_table="orders",
    driver_table="shipments",
    probe_key="key",
    driver_key="key",
    probe_ts="ots",
    driver_ts="sts",
    window_lo=0,
    window_hi=2,
)


def count_query(**overrides) -> LogicalQuery:
    join = LogicalJoinQuery(**{**JOIN_FIELDS, **overrides})
    return LogicalQuery(join, (AggregateSpec.count(),))


def sum_query(sum_table="shipments", sum_column="sts", **overrides) -> LogicalQuery:
    join = LogicalJoinQuery(**{**JOIN_FIELDS, **overrides})
    return LogicalQuery(join, (AggregateSpec.sum_of(sum_table, sum_column),))


def count_scan_gates(n_rows: int, payload_words: int) -> int:
    return multi_scan_gates(
        DEFAULT_COST_MODEL, n_rows, payload_words, need_count=True, n_sum_columns=0
    )


class TestSumRewrite:
    def test_sum_query_matches_views_by_its_join(self, tiny_view_def):
        assert can_answer(sum_query(), tiny_view_def)

    def test_driver_column_maps_to_d_prefix(self, tiny_view_def):
        view_query = lower_to_view_scan(sum_query(), tiny_view_def)
        assert isinstance(view_query, ViewScanPlan)
        assert view_query.view_name == tiny_view_def.name
        assert view_query.aggregates[0].column == "d_sts"

    def test_probe_column_maps_to_p_prefix(self, tiny_view_def):
        view_query = lower_to_view_scan(
            sum_query(sum_table="orders", sum_column="ots"), tiny_view_def
        )
        assert view_query.aggregates[0].column == "p_ots"

    def test_foreign_sum_table_rejected(self, tiny_view_def):
        with pytest.raises(SchemaError, match="neither side"):
            lower_to_view_scan(sum_query(sum_table="users"), tiny_view_def)

    def test_missing_column_rejected(self, tiny_view_def):
        with pytest.raises(SchemaError):
            lower_to_view_scan(sum_query(sum_column="ghost"), tiny_view_def)

    def test_mismatched_join_rejected(self, tiny_view_def):
        with pytest.raises(SchemaError, match="does not materialize"):
            lower_to_view_scan(sum_query(window_hi=9), tiny_view_def)

    def test_lowering_turns_both_aggregates_into_scan_plans(self, tiny_view_def):
        count_plan = lower_to_view_scan(count_query(), tiny_view_def)
        assert isinstance(count_plan, ViewScanPlan)
        assert count_plan.view_name == "tiny"
        assert count_plan.aggregates[0].kind == "count"
        sum_plan = lower_to_view_scan(sum_query(), tiny_view_def)
        assert sum_plan.aggregates[0].kind == "sum"
        assert sum_plan.aggregates[0].column == "d_sts"


class TestCostEstimates:
    def test_sum_scan_costs_more_than_count_scan(self):
        count = count_scan_gates(100, 4)
        total = multi_scan_gates(
            DEFAULT_COST_MODEL, 100, 4, need_count=False, n_sum_columns=1
        )
        assert total > count

    def test_view_scan_scales_linearly(self):
        one = count_scan_gates(10, 4)
        ten = count_scan_gates(100, 4)
        assert ten == 10 * one

    def test_nm_join_dominates_view_scan_at_scale(self):
        """The whole premise of materialization: an O(n log² n) sort per
        query costs more than a linear scan of a DP-sized view."""
        view = count_scan_gates(500, 4)
        nm = nm_join_gates(DEFAULT_COST_MODEL, 2000, 2000, 2, 2)
        assert nm > view

    def test_empty_stores_cost_nothing(self):
        assert nm_join_gates(DEFAULT_COST_MODEL, 0, 0, 2, 2) == 0


class TestPlanQuery:
    def _candidate(self, tiny_view_def, rows: int) -> ViewCandidate:
        return ViewCandidate(tiny_view_def, rows)

    def test_small_view_beats_nm(self, tiny_view_def):
        plan = plan_query(
            count_query(),
            [self._candidate(tiny_view_def, 50)],
            2000,
            2000,
            DEFAULT_COST_MODEL,
        )
        assert plan.kind == VIEW_SCAN
        assert plan.view_name == "tiny"
        assert plan.view_query is not None

    def test_bloated_view_loses_to_nm(self, tiny_view_def):
        plan = plan_query(
            count_query(),
            [self._candidate(tiny_view_def, 1_000_000)],
            10,
            10,
            DEFAULT_COST_MODEL,
        )
        assert plan.kind == NM_JOIN

    def test_cheapest_of_several_views_wins(self, tiny_view_def):
        from dataclasses import replace

        small = replace(tiny_view_def, name="small")
        big = replace(tiny_view_def, name="big")
        plan = plan_query(
            count_query(),
            [self._candidate(big, 900), self._candidate(small, 90)],
            100_000,
            100_000,
            DEFAULT_COST_MODEL,
        )
        assert plan.view_name == "small"

    def test_non_matching_views_are_not_candidates(self, tiny_view_def):
        plan = plan_query(
            count_query(window_hi=7),
            [self._candidate(tiny_view_def, 1)],
            100,
            100,
            DEFAULT_COST_MODEL,
        )
        assert plan.kind == NM_JOIN

    def test_no_match_and_no_fallback_raises(self, tiny_view_def):
        with pytest.raises(SchemaError, match="fallback is disabled"):
            plan_query(
                count_query(window_hi=7),
                [self._candidate(tiny_view_def, 1)],
                100,
                100,
                DEFAULT_COST_MODEL,
                nm_allowed=False,
            )

    def test_sum_query_plans_to_sum_scan_plan(self, tiny_view_def):
        plan = plan_query(
            sum_query(),
            [self._candidate(tiny_view_def, 10)],
            1000,
            1000,
            DEFAULT_COST_MODEL,
        )
        assert plan.kind == VIEW_SCAN
        assert isinstance(plan.view_query, ViewScanPlan)
        assert plan.view_query.aggregates[0].kind == "sum"

    def test_estimate_matches_executor_charge(self, tiny_view_def):
        """The planner's view-scan estimate must equal the gates the
        executor actually charges — same formula, no drift."""
        n = 64
        schema = tiny_view_def.view_schema
        view = MaterializedView(schema)
        rows = np.zeros((n, schema.width), dtype=np.uint32)
        view.append(
            SharedTable.from_plain(
                schema, rows, np.ones(n, dtype=np.uint32), spawn(0, "plan")
            )
        )
        runtime = MPCRuntime(seed=0)
        plan = lower_to_view_scan(count_query(), tiny_view_def)
        _, qet = ParallelScanExecutor().execute(runtime, 1, view, plan)
        estimated = count_scan_gates(n, schema.width)
        assert qet == pytest.approx(DEFAULT_COST_MODEL.seconds(estimated))


class TestNMSumExecution:
    def test_nm_sum_is_exact(self, tiny_view_def):
        runtime = MPCRuntime(seed=0)
        probe_store = OutsourcedTable(tiny_view_def.probe_schema, "orders")
        driver_store = OutsourcedTable(tiny_view_def.driver_schema, "shipments")
        probe_rows = np.asarray([[1, 1], [2, 1], [0, 0]], dtype=np.uint32)
        driver_rows = np.asarray([[1, 2], [2, 9]], dtype=np.uint32)
        probe_store.append_batch(
            SharedTable.from_plain(
                tiny_view_def.probe_schema,
                probe_rows,
                np.asarray([1, 1, 0], dtype=np.uint32),
                spawn(0, "nm-sum"),
            ),
            1,
        )
        driver_store.append_batch(
            SharedTable.from_plain(
                tiny_view_def.driver_schema,
                driver_rows,
                np.asarray([1, 1], dtype=np.uint32),
                spawn(1, "nm-sum"),
            ),
            1,
        )
        # Only (1,1)x(1,2) joins within window 2; driver sts sum = 2.
        answer, qet = execute_nm_query(
            runtime, 1, probe_store, driver_store, tiny_view_def, sum_query()
        )
        assert answer.scalar() == 2
        assert qet > 0

    def test_nm_sum_foreign_table_rejected(self, tiny_view_def):
        runtime = MPCRuntime(seed=0)
        probe_store = OutsourcedTable(tiny_view_def.probe_schema, "orders")
        driver_store = OutsourcedTable(tiny_view_def.driver_schema, "shipments")
        with pytest.raises(SchemaError, match="neither side"):
            execute_nm_query(
                runtime,
                1,
                probe_store,
                driver_store,
                tiny_view_def,
                sum_query(sum_table="users", sum_column="x"),
            )
