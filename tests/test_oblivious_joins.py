"""Tests for the truncated oblivious joins (Example 5.1, Algorithm 4).

The key properties:

* correctness — with generous caps, real output pairs equal the logical
  join;
* truncation — Eq. 3: adding/removing one input record changes the real
  output by at most ω rows;
* obliviousness — padded output size is ω·|driver| regardless of data;
* equivalence — sort-merge and nested-loop implementations produce the
  same real tuple multiset under identical caps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.runtime import MPCRuntime
from repro.oblivious.join_common import match_pairs_truncated
from repro.oblivious.nested_loop_join import truncated_nested_loop_join
from repro.oblivious.sort_merge_join import (
    oblivious_join_multi_aggregate,
    truncated_sort_merge_join,
)
from row_helpers import multiset


def join_count(ctx, left, left_flags, left_key, right, right_flags, right_key,
               band=None):
    """COUNT(*) of the untruncated join, as the one NM kernel computes it."""
    counts, _sums = oblivious_join_multi_aggregate(
        ctx, left, left_flags, left_key, right, right_flags, right_key,
        band=band,
    )
    return int(counts[0])



def run_join(impl, probe, driver, omega, probe_caps=None, driver_caps=None,
             probe_flags=None, driver_flags=None, predicate=None):
    """Drive a join implementation with plain row arrays."""
    probe = np.asarray(probe, dtype=np.uint32).reshape(-1, 2)
    driver = np.asarray(driver, dtype=np.uint32).reshape(-1, 2)
    if probe_caps is None:
        probe_caps = np.full(len(probe), 10**6)
    if driver_caps is None:
        driver_caps = np.full(len(driver), 10**6)
    if probe_flags is None:
        probe_flags = np.ones(len(probe), dtype=bool)
    if driver_flags is None:
        driver_flags = np.ones(len(driver), dtype=bool)
    runtime = MPCRuntime(seed=0)
    with runtime.protocol("join") as ctx:
        return impl(
            ctx,
            probe, probe_flags, 0, probe_caps,
            driver, driver_flags, 0, driver_caps,
            omega,
            predicate,
        )


PROBE = [[1, 100], [2, 100], [2, 101], [3, 100]]
DRIVER = [[2, 105], [3, 105], [9, 105]]


class TestSortMergeJoin:
    def test_exact_join_with_generous_caps(self):
        result = run_join(truncated_sort_merge_join, PROBE, DRIVER, omega=4)
        reals = result.rows[result.flags]
        expected = {
            (2, 100, 2, 105),
            (2, 101, 2, 105),
            (3, 100, 3, 105),
        }
        assert {tuple(map(int, r)) for r in reals} == expected
        assert result.dropped == 0

    def test_padded_size_is_omega_times_driver(self):
        result = run_join(truncated_sort_merge_join, PROBE, DRIVER, omega=4)
        assert len(result.rows) == 4 * len(DRIVER)

    def test_padded_size_independent_of_matches(self):
        nothing_matches = [[7, 1], [8, 1]]
        result = run_join(truncated_sort_merge_join, nothing_matches, DRIVER, omega=4)
        assert len(result.rows) == 4 * len(DRIVER)
        assert result.real_count == 0

    def test_driver_slot_layout(self):
        result = run_join(truncated_sort_merge_join, PROBE, DRIVER, omega=2)
        # Driver row 0 (key 2) owns slots [0, 2): both its joins live there.
        assert result.flags[0] and result.flags[1]
        # Driver row 2 (key 9) owns slots [4, 6): no joins.
        assert not result.flags[4] and not result.flags[5]

    def test_omega_truncates_driver_contributions(self):
        result = run_join(truncated_sort_merge_join, PROBE, DRIVER, omega=1)
        # Driver (2,105) matches two probes but may emit only one.
        assert result.real_count == 2  # one for key 2, one for key 3
        assert result.dropped == 1

    def test_probe_caps_respected(self):
        probe = [[5, 100]]
        driver = [[5, 101], [5, 102], [5, 103]]
        result = run_join(
            truncated_sort_merge_join, probe, driver, omega=2,
            probe_caps=np.asarray([2]),
        )
        # The single probe record's lifetime cap (2) binds below the
        # per-invocation bound min(ω, cap) = 2: two joins, one dropped.
        assert result.real_count == 2
        assert result.dropped == 1
        assert result.left_emitted.tolist() == [2]

    def test_probe_cap_below_omega_binds(self):
        probe = [[5, 100]]
        driver = [[5, 101], [5, 102]]
        result = run_join(
            truncated_sort_merge_join, probe, driver, omega=3,
            probe_caps=np.asarray([1]),
        )
        assert result.real_count == 1
        assert result.left_emitted.tolist() == [1]

    def test_dummy_rows_never_join(self):
        result = run_join(
            truncated_sort_merge_join, PROBE, DRIVER, omega=4,
            probe_flags=np.asarray([True, False, True, True]),
        )
        reals = {tuple(map(int, r)) for r in result.rows[result.flags]}
        assert (2, 100, 2, 105) not in reals
        assert (2, 101, 2, 105) in reals

    def test_pair_predicate_filters(self):
        predicate = lambda p, d: int(d[1]) - int(p[1]) <= 4  # noqa: E731
        result = run_join(
            truncated_sort_merge_join, PROBE, DRIVER, omega=4, predicate=predicate
        )
        reals = {tuple(map(int, r)) for r in result.rows[result.flags]}
        assert (2, 101, 2, 105) in reals  # delta 4 ok
        assert (2, 100, 2, 105) not in reals  # delta 5 filtered

    def test_emitted_counts_align_with_flags(self):
        result = run_join(truncated_sort_merge_join, PROBE, DRIVER, omega=4)
        assert result.left_emitted.sum() == result.real_count
        assert result.right_emitted.sum() == result.real_count

    def test_empty_driver(self):
        result = run_join(truncated_sort_merge_join, PROBE, [], omega=3)
        assert len(result.rows) == 0
        assert result.real_count == 0

    def test_empty_probe(self):
        result = run_join(truncated_sort_merge_join, [], DRIVER, omega=3)
        assert len(result.rows) == 3 * 3
        assert result.real_count == 0


class TestEquivalenceWithNestedLoop:
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(100, 110)), max_size=10
        ),
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(100, 110)), max_size=8
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_real_multiset(self, probe, driver, omega):
        probe = [list(p) for p in probe] or [[0, 0]]
        driver = [list(d) for d in driver] or [[0, 0]]
        probe_flags = np.asarray([p != [0, 0] for p in probe])
        driver_flags = np.asarray([d != [0, 0] for d in driver])
        smj = run_join(
            truncated_sort_merge_join, probe, driver, omega,
            probe_flags=probe_flags, driver_flags=driver_flags,
        )
        nlj = run_join(
            truncated_nested_loop_join, probe, driver, omega,
            probe_flags=probe_flags, driver_flags=driver_flags,
        )
        assert multiset(smj.rows[smj.flags]) == multiset(nlj.rows[nlj.flags])
        assert smj.dropped == nlj.dropped

    def test_nested_loop_costs_more_gates(self):
        """The quadratic circuit must charge more than sort-merge on the
        same (non-trivial) input — the ablation the operators exist for."""
        probe = [[k % 5, 100 + k] for k in range(20)]
        driver = [[k % 5, 105 + k] for k in range(10)]
        costs = {}
        for name, impl in (
            ("smj", truncated_sort_merge_join),
            ("nlj", truncated_nested_loop_join),
        ):
            runtime = MPCRuntime(seed=0)
            with runtime.protocol("join") as ctx:
                impl(
                    ctx,
                    np.asarray(probe, dtype=np.uint32), np.ones(20, dtype=bool), 0,
                    np.full(20, 100),
                    np.asarray(driver, dtype=np.uint32), np.ones(10, dtype=bool), 0,
                    np.full(10, 100),
                    2,
                    None,
                )
                costs[name] = ctx.gates
        assert costs["nlj"] > costs["smj"]


class TestStabilityEq3:
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(100, 104)),
            min_size=1, max_size=8,
        ),
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(100, 104)),
            min_size=1, max_size=6,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_removing_one_probe_changes_output_by_at_most_omega(
        self, probe, driver, omega
    ):
        """Eq. 3: ||g(DS) − g(DS − {ds_i})|| ≤ ω for every input record.

        We compare real-output multisets with and without the first probe
        record; the symmetric difference may not exceed 2ω (ω rows lost
        plus at most ω rows gained by records that inherit its slots)."""
        probe = [list(p) for p in probe]
        driver = [list(d) for d in driver]
        full = run_join(truncated_sort_merge_join, probe, driver, omega)
        reduced = run_join(truncated_sort_merge_join, probe[1:] or [[0, 0]], driver, omega)
        full_ms = multiset(full.rows[full.flags])
        reduced_ms = multiset(reduced.rows[reduced.flags])
        diff = 0
        for key in set(full_ms) | set(reduced_ms):
            diff += abs(full_ms.get(key, 0) - reduced_ms.get(key, 0))
        assert diff <= 2 * omega * max(1, len(driver))


class TestObliviousJoinCount:
    def test_exact_count(self):
        runtime = MPCRuntime(seed=0)
        probe = np.asarray(PROBE, dtype=np.uint32)
        driver = np.asarray(DRIVER, dtype=np.uint32)
        with runtime.protocol("q") as ctx:
            count = join_count(
                ctx, probe, np.ones(4, dtype=bool), 0,
                driver, np.ones(3, dtype=bool), 0,
            )
        assert count == 3

    def test_count_with_predicate(self):
        runtime = MPCRuntime(seed=0)
        probe = np.asarray(PROBE, dtype=np.uint32)
        driver = np.asarray(DRIVER, dtype=np.uint32)
        with runtime.protocol("q") as ctx:
            count = join_count(
                ctx, probe, np.ones(4, dtype=bool), 0,
                driver, np.ones(3, dtype=bool), 0,
                band=(1, 1, -(2**32), 4),  # d.ts − p.ts <= 4
            )
        # Only (2,101)⋈(2,105) has a timestamp delta within 4.
        assert count == 1

    def test_dummies_excluded(self):
        runtime = MPCRuntime(seed=0)
        probe = np.asarray(PROBE, dtype=np.uint32)
        driver = np.asarray(DRIVER, dtype=np.uint32)
        with runtime.protocol("q") as ctx:
            count = join_count(
                ctx, probe, np.zeros(4, dtype=bool), 0,
                driver, np.ones(3, dtype=bool), 0,
            )
        assert count == 0

    def test_cost_grows_with_input(self):
        runtime = MPCRuntime(seed=0)
        small = np.asarray([[1, 1]] , dtype=np.uint32)
        big = np.asarray([[i, 1] for i in range(64)], dtype=np.uint32)
        with runtime.protocol("a") as ctx:
            join_count(ctx, small, np.ones(1, dtype=bool), 0,
                       small, np.ones(1, dtype=bool), 0)
            small_gates = ctx.gates
        with runtime.protocol("b") as ctx:
            join_count(ctx, big, np.ones(64, dtype=bool), 0,
                       big, np.ones(64, dtype=bool), 0)
            big_gates = ctx.gates
        assert big_gates > 10 * small_gates


class TestMatchPairsTruncated:
    def test_greedy_in_order(self):
        match = match_pairs_truncated(
            np.asarray([0, 0, 0]), np.asarray([0, 1, 2]), np.asarray([7]), omega=2,
            driver_caps=np.asarray([5]), probe_caps=np.asarray([5, 5, 5]),
        )
        assert match.probe.tolist() == [0, 1]
        assert match.rank.tolist() == [0, 1]
        assert match.driver_emitted.tolist() == [2]
        assert match.dropped == 1

    def test_probe_cap_blocks(self):
        match = match_pairs_truncated(
            np.asarray([0, 1]), np.asarray([0, 0]), np.asarray([7, 7]), omega=2,
            driver_caps=np.asarray([5, 5]), probe_caps=np.asarray([1]),
        )
        assert match.driver.tolist() == [0]  # the earlier driver wins
        assert match.probe_emitted.tolist() == [1]
        assert match.dropped == 1

    def test_zero_cap_drops_everything(self):
        match = match_pairs_truncated(
            np.asarray([0, 0]), np.asarray([0, 1]), np.asarray([7]), omega=3,
            driver_caps=np.asarray([0]), probe_caps=np.asarray([9, 9]),
        )
        assert match.driver.size == 0
        assert match.dropped == 2
