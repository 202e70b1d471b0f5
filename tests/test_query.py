"""Tests for the query layer: AST predicates, rewriting, execution."""

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.query.ast import (
    AggregateSpec,
    ColumnEquals,
    LogicalJoinQuery,
    LogicalQuery,
    ScanClause,
)
from repro.query.executor import clause_mask
from repro.query.parallel import ParallelScanExecutor
from repro.query.rewrite import can_answer, lower_to_view_scan
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView


def make_logical_query(**overrides):
    base = dict(
        probe_table="orders",
        driver_table="shipments",
        probe_key="key",
        driver_key="key",
        probe_ts="ots",
        driver_ts="sts",
        window_lo=0,
        window_hi=2,
    )
    base.update(overrides)
    return LogicalQuery(LogicalJoinQuery(**base), (AggregateSpec.count(),))


class TestPredicates:
    SCHEMA = Schema(("a", "b"))
    ROWS = np.asarray([[1, 10], [2, 20], [1, 30]], dtype=np.uint32)

    def test_column_equals(self):
        mask = clause_mask([ScanClause("a", 1, 1)], self.SCHEMA, self.ROWS)
        assert mask.tolist() == [True, False, True]

    def test_column_in_range(self):
        mask = clause_mask([ScanClause("b", 15, 30)], self.SCHEMA, self.ROWS)
        assert mask.tolist() == [False, True, True]


class TestRewrite:
    def test_matching_query_rewrites(self, tiny_view_def):
        query = make_logical_query()
        assert can_answer(query, tiny_view_def)
        view_query = lower_to_view_scan(query, tiny_view_def)
        assert view_query.view_name == tiny_view_def.name

    def test_mismatched_window_rejected(self, tiny_view_def):
        query = make_logical_query(window_hi=5)
        assert not can_answer(query, tiny_view_def)
        with pytest.raises(SchemaError, match="does not materialize"):
            lower_to_view_scan(query, tiny_view_def)

    def test_mismatched_tables_rejected(self, tiny_view_def):
        query = make_logical_query(probe_table="users")
        with pytest.raises(SchemaError):
            lower_to_view_scan(query, tiny_view_def)


class TestExecutor:
    def _view_with(self, schema, rows, flags):
        view = MaterializedView(schema)
        view.append(
            SharedTable.from_plain(
                schema,
                np.asarray(rows, dtype=np.uint32),
                np.asarray(flags, dtype=np.uint32),
                spawn(0, "exec"),
            )
        )
        return view

    @staticmethod
    def _count(view_def, view, predicate=None):
        plan = lower_to_view_scan(
            LogicalQuery.for_view(view_def, predicate=predicate), view_def
        )
        answer, qet = ParallelScanExecutor().execute(MPCRuntime(seed=0), 1, view, plan)
        return answer.scalar(), qet

    def test_counts_real_rows(self, tiny_view_def):
        schema = tiny_view_def.view_schema
        view = self._view_with(
            schema,
            [[1, 1, 1, 2], [0, 0, 0, 0], [2, 1, 2, 3]],
            [1, 0, 1],
        )
        count, qet = self._count(tiny_view_def, view)
        assert count == 2
        assert qet > 0

    def test_residual_predicate_applies(self, tiny_view_def):
        schema = tiny_view_def.view_schema
        view = self._view_with(
            schema,
            [[1, 1, 1, 2], [2, 1, 2, 3]],
            [1, 1],
        )
        count, _ = self._count(
            tiny_view_def, view, predicate=ColumnEquals("orders", "key", 2)
        )
        assert count == 1

    def test_empty_view_counts_zero_in_zero_time(self, tiny_view_def):
        view = MaterializedView(tiny_view_def.view_schema)
        count, qet = self._count(tiny_view_def, view)
        assert count == 0
        assert qet == 0.0
