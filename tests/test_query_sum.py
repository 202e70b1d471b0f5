"""Tests for SUM aggregation over materialized views."""

import numpy as np
import pytest

from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.common.errors import SchemaError
from repro.oblivious.filter import oblivious_multi_aggregate
from repro.query.ast import AggregateSpec, ColumnEquals, LogicalQuery
from repro.query.parallel import ParallelScanExecutor
from repro.query.rewrite import lower_to_view_scan
from repro.sharing.shared_value import SharedTable
from repro.storage.materialized_view import MaterializedView


UINT32_MAX = 2**32 - 1


def share(rows, flags) -> SharedTable:
    return SharedTable.from_plain(
        Schema(("a", "b")), rows, flags, spawn(0, "sum-test")
    )


def scan_sum(ctx, rows, flags, column, clauses=()):
    """SUM(column) as the one scan kernel computes it, over shares of ``rows``."""
    _counts, sums = oblivious_multi_aggregate(
        ctx, share(rows, flags), [column], False, None, None, clauses
    )
    return int(sums[0, 0])


class TestObliviousSum:
    ROWS = np.asarray([[1, 10], [2, 20], [3, 30], [9, 999]], dtype=np.uint32)
    FLAGS = np.asarray([True, True, True, False])

    def test_sums_real_rows_only(self):
        """The dummy row's 999 must not leak into the total."""
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert scan_sum(ctx, self.ROWS, self.FLAGS, 1) == 60

    def test_predicate_restricts_sum(self):
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            total = scan_sum(
                ctx, self.ROWS, self.FLAGS, 1, [(0, 2, UINT32_MAX)]
            )
        assert total == 50

    def test_empty_input(self):
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert (
                scan_sum(
                    ctx,
                    np.zeros((0, 2), dtype=np.uint32),
                    np.zeros(0, dtype=bool),
                    1,
                )
                == 0
            )

    def test_sum_costs_more_than_count(self):
        """The 64-bit accumulator makes SUM strictly pricier per row."""
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("a") as ctx:
            oblivious_multi_aggregate(
                ctx, share(self.ROWS, self.FLAGS), [], True, None, None
            )
            count_gates = ctx.gates
        with runtime.protocol("b") as ctx:
            scan_sum(ctx, self.ROWS, self.FLAGS, 1)
            sum_gates = ctx.gates
        assert sum_gates > count_gates

    def test_large_values_do_not_overflow(self):
        rows = np.asarray([[1, 2**31], [2, 2**31]], dtype=np.uint32)
        flags = np.ones(2, dtype=bool)
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert scan_sum(ctx, rows, flags, 1) == 2**32


class TestExecuteViewSum:
    def _view(self, tiny_view_def, rows, flags):
        view = MaterializedView(tiny_view_def.view_schema)
        view.append(
            SharedTable.from_plain(
                tiny_view_def.view_schema,
                np.asarray(rows, dtype=np.uint32),
                np.asarray(flags, dtype=np.uint32),
                spawn(0, "sum"),
            )
        )
        return view

    @staticmethod
    def _sum(view_def, view, table, column, predicate=None):
        query = LogicalQuery.for_view(
            view_def, AggregateSpec.sum_of(table, column), predicate=predicate
        )
        answer, qet = ParallelScanExecutor().execute(
            MPCRuntime(seed=0), 1, view, lower_to_view_scan(query, view_def)
        )
        return answer.scalar(), qet

    def test_sum_over_view_column(self, tiny_view_def):
        view = self._view(
            tiny_view_def,
            [[1, 1, 1, 5], [2, 1, 2, 7], [0, 0, 0, 0]],
            [1, 1, 0],
        )
        total, qet = self._sum(tiny_view_def, view, "shipments", "sts")
        assert total == 12
        assert qet > 0

    def test_sum_with_residual_predicate(self, tiny_view_def):
        view = self._view(
            tiny_view_def,
            [[1, 1, 1, 5], [2, 1, 2, 7]],
            [1, 1],
        )
        total, _ = self._sum(
            tiny_view_def,
            view,
            "shipments",
            "sts",
            predicate=ColumnEquals("orders", "key", 2),
        )
        assert total == 7

    def test_unknown_column_raises(self, tiny_view_def):
        view = MaterializedView(tiny_view_def.view_schema)
        with pytest.raises(SchemaError):
            self._sum(tiny_view_def, view, "shipments", "ghost")
