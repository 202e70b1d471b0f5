"""Tests for padded counting scans."""

import numpy as np
import pytest

from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.filter import oblivious_multi_aggregate
from repro.sharing.shared_value import SharedTable

UINT32_MAX = 2**32 - 1


def scan_count(ctx, rows, flags, clauses=()):
    """COUNT(*) as the one scan kernel computes it, over shares of ``rows``."""
    table = SharedTable.from_plain(
        Schema(("a", "b")), rows, flags, spawn(0, "filter-test")
    )
    counts, _sums = oblivious_multi_aggregate(
        ctx, table, [], True, None, None, clauses
    )
    return int(counts[0])


@pytest.fixture
def rows_flags():
    rows = np.asarray([[1, 10], [2, 20], [3, 30], [0, 0]], dtype=np.uint32)
    flags = np.asarray([True, True, True, False])
    return rows, flags


class TestObliviousCount:
    def test_counts_real_rows_only(self, rows_flags):
        rows, flags = rows_flags
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert scan_count(ctx, rows, flags) == 3

    def test_predicate_restricts_count(self, rows_flags):
        rows, flags = rows_flags
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            count = scan_count(ctx, rows, flags, [(1, 20, UINT32_MAX)])
        assert count == 2

    def test_cost_scales_with_total_rows_not_real_rows(self):
        """Dummies cost scan time — the core of the EP-vs-DP trade-off."""
        runtime = MPCRuntime(seed=0)
        rows_small = np.zeros((10, 2), dtype=np.uint32)
        rows_big = np.zeros((1000, 2), dtype=np.uint32)
        no_flags_small = np.zeros(10, dtype=bool)
        no_flags_big = np.zeros(1000, dtype=bool)
        with runtime.protocol("a") as ctx:
            scan_count(ctx, rows_small, no_flags_small)
            small_gates = ctx.gates
        with runtime.protocol("b") as ctx:
            scan_count(ctx, rows_big, no_flags_big)
            big_gates = ctx.gates
        assert big_gates == 100 * small_gates

    def test_empty_table(self):
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert (
                scan_count(
                    ctx, np.zeros((0, 2), dtype=np.uint32), np.zeros(0, dtype=bool)
                )
                == 0
            )
