"""Regression: the array-pass join kernels ≡ the historical loops.

The one-pass candidate scan of both truncated joins, the flat-pair
round matcher ``match_pairs_truncated`` and the fancy-indexed padded
emission must produce byte-identical
:class:`~repro.oblivious.join_common.JoinResult` outputs — and charge
byte-identical gates — to the per-pair Python loops they replaced.  The
reference implementations below (``_loop_*``) are verbatim copies of the
pre-vectorization code paths; the list-of-lists matcher lives on only
here, as the oracle.
"""

import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.types import Schema
from repro.core.view_def import JoinViewDefinition
from repro.mpc.runtime import MPCRuntime, ProtocolContext
from repro.oblivious.join_common import JoinResult, match_pairs_truncated
from repro.oblivious.nested_loop_join import truncated_nested_loop_join
from repro.oblivious.sort import batcher_network, composite_key, oblivious_sort
from repro.oblivious.sort_merge_join import (
    _predicate_keep_mask,
    oblivious_join_multi_aggregate,
    truncated_sort_merge_join,
)

VIEW = JoinViewDefinition(
    name="reg",
    probe_table="orders",
    probe_schema=Schema(("key", "ots")),
    probe_key="key",
    probe_ts="ots",
    driver_table="shipments",
    driver_schema=Schema(("key", "sts")),
    driver_key="key",
    driver_ts="sts",
    window_lo=0,
    window_hi=3,
    omega=2,
    budget=6,
)


# -- reference (loop) implementations, verbatim from the pre-vectorized code --
def _loop_group_by_key(keys) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = defaultdict(list)
    for pos, key in enumerate(keys):
        groups[int(key)].append(pos)
    return groups


def _group_by_key(keys) -> dict[int, np.ndarray]:
    """Positions of each distinct key, via one stable argsort (the pair
    kernel's grouping, kept for the NM oracle below)."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return {}
    order = np.argsort(keys, kind="stable").astype(np.int64)
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    stops = np.concatenate((starts[1:], [sorted_keys.size]))
    return {
        int(sorted_keys[start]): order[start:stop]
        for start, stop in zip(starts, stops)
    }


def _loop_match_pairs(driver_order, candidate_lists, omega, driver_caps, probe_caps):
    driver_emitted = np.zeros(len(driver_caps), dtype=np.int64)
    probe_emitted = np.zeros(len(probe_caps), dtype=np.int64)
    driver_allow = np.minimum(omega, np.asarray(driver_caps)).astype(np.int64)
    probe_allow = np.minimum(omega, np.asarray(probe_caps)).astype(np.int64)
    assigned: list[list[int]] = []
    dropped = 0
    for k, d in enumerate(driver_order):
        d = int(d)
        matches: list[int] = []
        for p in candidate_lists[k]:
            p = int(p)
            if driver_emitted[d] >= driver_allow[d] or probe_emitted[p] >= probe_allow[p]:
                dropped += 1
                continue
            matches.append(p)
            driver_emitted[d] += 1
            probe_emitted[p] += 1
        assigned.append(matches)
    return assigned, driver_emitted, probe_emitted, dropped


def _loop_sort_merge_join(
    ctx, probe_rows, probe_flags, probe_key_col, probe_caps,
    driver_rows, driver_flags, driver_key_col, driver_caps,
    omega, pair_predicate=None, output_left="probe",
):
    n_probe, w_probe = probe_rows.shape if probe_rows.size else (0, probe_rows.shape[1])
    n_driver, w_driver = (
        driver_rows.shape if driver_rows.size else (0, driver_rows.shape[1])
    )
    out_width = w_probe + w_driver
    union_keys = np.concatenate(
        [
            probe_rows[:, probe_key_col] if n_probe else np.zeros(0, dtype=np.uint32),
            driver_rows[:, driver_key_col] if n_driver else np.zeros(0, dtype=np.uint32),
        ]
    )
    side = np.concatenate(
        [np.zeros(n_probe, dtype=np.uint32), np.ones(n_driver, dtype=np.uint32)]
    )
    position = np.concatenate(
        [np.arange(n_probe, dtype=np.uint32), np.arange(n_driver, dtype=np.uint32)]
    )
    tiebreak = (side << np.uint32(24)) | (position & np.uint32(0xFFFFFF))
    sort_keys = composite_key(union_keys, tiebreak)
    union_payload_words = max(w_probe, w_driver) + 2
    _, [sorted_side, sorted_pos] = oblivious_sort(
        ctx, sort_keys, [side, position], union_payload_words
    )
    groups = _loop_group_by_key(union_keys)
    candidate_lists: list[list[int]] = []
    driver_order: list[int] = []
    for s, pos in zip(sorted_side, sorted_pos):
        if s != 1:
            continue
        d = int(pos)
        driver_order.append(d)
        if not driver_flags[d]:
            candidate_lists.append([])
            continue
        key = int(driver_rows[d, driver_key_col])
        cands: list[int] = []
        for upos in groups.get(key, []):
            if upos >= n_probe:
                continue
            p = upos
            if not probe_flags[p]:
                continue
            if pair_predicate is None or pair_predicate(probe_rows[p], driver_rows[d]):
                cands.append(p)
        candidate_lists.append(cands)
        ctx.charge_join_probes(max(len(groups.get(key, [])) - 1, 0), out_width)
    assigned, driver_emitted, probe_emitted, dropped = _loop_match_pairs(
        np.asarray(driver_order, dtype=np.int64),
        candidate_lists,
        omega,
        driver_caps,
        probe_caps,
    )
    out_rows = np.zeros((n_driver * omega, out_width), dtype=np.uint32)
    out_flags = np.zeros(n_driver * omega, dtype=bool)
    ctx.charge_scan(n_driver * omega, out_width)
    for k, d in enumerate(driver_order):
        base = int(d) * omega
        for j, p in enumerate(assigned[k]):
            if output_left == "probe":
                out_rows[base + j, :w_probe] = probe_rows[p]
                out_rows[base + j, w_probe:] = driver_rows[d]
            else:
                out_rows[base + j, :w_driver] = driver_rows[d]
                out_rows[base + j, w_driver:] = probe_rows[p]
            out_flags[base + j] = True
    return JoinResult(
        rows=out_rows,
        flags=out_flags,
        left_emitted=probe_emitted,
        right_emitted=driver_emitted,
        dropped=dropped,
    )


def _random_inputs(rng, n_probe, n_driver, n_keys):
    probe = np.column_stack(
        [
            rng.integers(0, n_keys, n_probe),
            rng.integers(0, 6, n_probe),
        ]
    ).astype(np.uint32)
    driver = np.column_stack(
        [
            rng.integers(0, n_keys, n_driver),
            rng.integers(0, 8, n_driver),
        ]
    ).astype(np.uint32)
    probe_flags = rng.random(n_probe) < 0.8
    driver_flags = rng.random(n_driver) < 0.8
    probe_caps = rng.integers(0, 7, n_probe)
    driver_caps = rng.integers(0, 7, n_driver)
    return probe, probe_flags, probe_caps, driver, driver_flags, driver_caps


class TestGroupByKey:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 9, 64).astype(np.uint32)
        fast = _group_by_key(keys)
        slow = _loop_group_by_key(keys)
        assert set(fast) == set(slow)
        for key, positions in slow.items():
            assert fast[key].tolist() == positions

    def test_empty_keys(self):
        assert _group_by_key(np.zeros(0, dtype=np.uint32)) == {}


def _assigned_lists(match, driver_order):
    """A :class:`TruncatedMatch` in the loop oracle's ``assigned`` shape."""
    out = []
    for d in driver_order:
        mine = np.flatnonzero(match.driver == d)
        out.append(match.probe[mine[np.argsort(match.rank[mine])]].tolist())
        assert sorted(match.rank[mine].tolist()) == list(range(mine.size))
    return out


class TestMatchPairs:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_reference_under_binding_caps(self, seed):
        """Flat pairs in scan order (drivers key-major, as the sort-merge
        scan visits them) against the list-of-lists oracle; 12 drivers on
        1–4 keys, so most cases need several rounds."""
        rng = np.random.default_rng(100 + seed)
        n_driver, n_probe = 12, 16
        n_keys = int(rng.integers(1, 5))
        driver_keys = rng.integers(0, n_keys, n_driver)
        probe_keys = rng.integers(0, n_keys, n_probe)
        driver_order = np.lexsort((rng.permutation(n_driver), driver_keys))
        candidate_lists = []
        for d in driver_order:
            same_key = np.flatnonzero(probe_keys == driver_keys[d])
            candidate_lists.append(same_key[rng.random(same_key.size) < 0.7].tolist())
        driver_caps = rng.integers(0, 4, n_driver)
        probe_caps = rng.integers(0, 4, n_probe)
        omega = int(rng.integers(1, 4))
        got = match_pairs_truncated(
            np.repeat(driver_order, [len(c) for c in candidate_lists]),
            np.asarray([p for c in candidate_lists for p in c], dtype=np.int64),
            driver_keys, omega, driver_caps, probe_caps,
        )
        assigned, driver_emitted, probe_emitted, dropped = _loop_match_pairs(
            driver_order, candidate_lists, omega, driver_caps, probe_caps
        )
        assert _assigned_lists(got, driver_order) == assigned
        assert np.array_equal(got.driver_emitted, driver_emitted)
        assert np.array_equal(got.probe_emitted, probe_emitted)
        assert got.dropped == dropped

    def test_no_pairs(self):
        got = match_pairs_truncated(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.asarray([1, 1]), 2, np.asarray([3, 3]), np.asarray([3]),
        )
        assert got.driver.size == got.probe.size == got.rank.size == 0
        assert got.driver_emitted.tolist() == [0, 0]
        assert got.probe_emitted.tolist() == [0]
        assert got.dropped == 0


class TestFullJoinRegression:
    @pytest.mark.parametrize("seed", range(6))
    def test_join_result_and_gates_match_loop_version(self, seed):
        rng = np.random.default_rng(200 + seed)
        probe, p_flags, p_caps, driver, d_flags, d_caps = _random_inputs(
            rng, n_probe=20, n_driver=12, n_keys=6
        )
        results = []
        gates = []
        for impl in (truncated_sort_merge_join, _loop_sort_merge_join):
            runtime = MPCRuntime(seed=3)
            with runtime.protocol("join", 1) as ctx:
                res = impl(
                    ctx,
                    probe, p_flags, 0, p_caps.copy(),
                    driver, d_flags, 0, d_caps.copy(),
                    omega=2,
                    pair_predicate=VIEW.pair_predicate,
                )
                gates.append(ctx.gates)
            results.append(res)
        fast, slow = results
        assert np.array_equal(fast.rows, slow.rows)
        assert np.array_equal(fast.flags, slow.flags)
        assert np.array_equal(fast.left_emitted, slow.left_emitted)
        assert np.array_equal(fast.right_emitted, slow.right_emitted)
        assert fast.dropped == slow.dropped
        assert gates[0] == gates[1], "vectorization must not change charges"

    def test_empty_driver_side(self):
        runtime = MPCRuntime(seed=0)
        probe = np.asarray([[1, 1]], dtype=np.uint32)
        driver = np.zeros((0, 2), dtype=np.uint32)
        with runtime.protocol("join", 1) as ctx:
            res = truncated_sort_merge_join(
                ctx,
                probe, np.asarray([True]), 0, np.asarray([5]),
                driver, np.zeros(0, dtype=bool), 0, np.zeros(0, dtype=np.int64),
                omega=2,
            )
        assert res.rows.shape == (0, 4)
        assert res.dropped == 0

    @pytest.mark.parametrize("n_probe,n_driver", [(5, 4), (4, 5)])
    def test_side_too_long_for_the_position_tiebreak_is_refused(
        self, monkeypatch, n_probe, n_driver
    ):
        """Positions past the tiebreak's 24 bits used to be masked, tying
        the sort keys of same-key rows 2^24 apart (limit patched down:
        nobody allocates 16 M rows to see an error)."""
        monkeypatch.setattr("repro.oblivious.sort_merge_join.MAX_SIDE_ROWS", 4)

        def join(ctx, n_p, n_d):
            return truncated_sort_merge_join(
                ctx,
                np.ones((n_p, 2), dtype=np.uint32), np.ones(n_p, dtype=bool), 0,
                np.full(n_p, 9),
                np.ones((n_d, 2), dtype=np.uint32), np.ones(n_d, dtype=bool), 0,
                np.full(n_d, 9),
                omega=2,
            )

        runtime = MPCRuntime(seed=0)
        with runtime.protocol("join", 1) as ctx:
            with pytest.raises(ProtocolError, match="at most 4 rows per side"):
                join(ctx, n_probe, n_driver)
            assert ctx.gates == 0
            assert join(ctx, 4, 4).flags.all()  # at the limit it still joins


# -- batcher network: verbatim pre-vectorization double loop ------------------
def _loop_batcher_network(n):
    if n <= 1:
        return ()
    stages = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            lo: list[int] = []
            hi: list[int] = []
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (p * 2) == (i + j + k) // (p * 2):
                        lo.append(i + j)
                        hi.append(i + j + k)
            if lo:
                stages.append(
                    (np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64))
                )
            k //= 2
        p *= 2
    return tuple(stages)


class TestBatcherNetworkRegression:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 128, 512])
    def test_stages_match_loop_reference(self, n):
        fast = batcher_network(n)
        slow = _loop_batcher_network(n)
        assert len(fast) == len(slow)
        for (flo, fhi), (slo, shi) in zip(fast, slow):
            assert np.array_equal(flo, slo)
            assert np.array_equal(fhi, shi)

    def test_trivial_and_invalid_sizes(self):
        assert batcher_network(1) == ()
        with pytest.raises(ValueError):
            batcher_network(12)


# -- nested-loop join: verbatim pre-vectorization per-pair loops --------------
def _loop_nested_loop_join(
    ctx, probe_rows, probe_flags, probe_key_col, probe_caps,
    driver_rows, driver_flags, driver_key_col, driver_caps,
    omega, pair_predicate=None, output_left="probe",
):
    from repro.oblivious.sort import network_comparator_count

    n_probe, w_probe = probe_rows.shape if probe_rows.size else (0, probe_rows.shape[1])
    n_driver, w_driver = (
        driver_rows.shape if driver_rows.size else (0, driver_rows.shape[1])
    )
    out_width = w_probe + w_driver
    driver_order = np.arange(n_driver, dtype=np.int64)
    candidate_lists: list[list[int]] = []
    for d in range(n_driver):
        ctx.charge_join_probes(n_probe, out_width)
        ctx.charge_compare_exchanges(network_comparator_count(n_probe), out_width)
        cands: list[int] = []
        if driver_flags[d]:
            key = int(driver_rows[d, driver_key_col])
            for p in range(n_probe):
                if not probe_flags[p]:
                    continue
                if int(probe_rows[p, probe_key_col]) != key:
                    continue
                if pair_predicate is None or pair_predicate(
                    probe_rows[p], driver_rows[d]
                ):
                    cands.append(p)
        candidate_lists.append(cands)
    assigned, driver_emitted, probe_emitted, dropped = _loop_match_pairs(
        driver_order, candidate_lists, omega, driver_caps, probe_caps
    )
    out_rows = np.zeros((n_driver * omega, out_width), dtype=np.uint32)
    out_flags = np.zeros(n_driver * omega, dtype=bool)
    for d in range(n_driver):
        base = d * omega
        for j, p in enumerate(assigned[d]):
            if output_left == "probe":
                out_rows[base + j, :w_probe] = probe_rows[p]
                out_rows[base + j, w_probe:] = driver_rows[d]
            else:
                out_rows[base + j, :w_driver] = driver_rows[d]
                out_rows[base + j, w_driver:] = probe_rows[p]
            out_flags[base + j] = True
    return JoinResult(
        rows=out_rows,
        flags=out_flags,
        left_emitted=probe_emitted,
        right_emitted=driver_emitted,
        dropped=dropped,
    )


class TestNestedLoopJoinRegression:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("output_left", ["probe", "driver"])
    def test_join_result_and_gates_match_loop_version(self, seed, output_left):
        rng = np.random.default_rng(300 + seed)
        probe, p_flags, p_caps, driver, d_flags, d_caps = _random_inputs(
            rng, n_probe=18, n_driver=10, n_keys=5
        )
        results = []
        gates = []
        for impl in (truncated_nested_loop_join, _loop_nested_loop_join):
            runtime = MPCRuntime(seed=3)
            with runtime.protocol("join", 1) as ctx:
                res = impl(
                    ctx,
                    probe, p_flags, 0, p_caps.copy(),
                    driver, d_flags, 0, d_caps.copy(),
                    omega=2,
                    pair_predicate=VIEW.pair_predicate,
                    output_left=output_left,
                )
                gates.append(ctx.gates)
            results.append(res)
        fast, slow = results
        assert np.array_equal(fast.rows, slow.rows)
        assert np.array_equal(fast.flags, slow.flags)
        assert np.array_equal(fast.left_emitted, slow.left_emitted)
        assert np.array_equal(fast.right_emitted, slow.right_emitted)
        assert fast.dropped == slow.dropped
        assert gates[0] == gates[1], "vectorization must not change charges"

    def test_empty_sides(self):
        runtime = MPCRuntime(seed=0)
        probe = np.zeros((0, 2), dtype=np.uint32)
        driver = np.zeros((0, 2), dtype=np.uint32)
        with runtime.protocol("join", 1) as ctx:
            res = truncated_nested_loop_join(
                ctx,
                probe, np.zeros(0, dtype=bool), 0, np.zeros(0, dtype=np.int64),
                driver, np.zeros(0, dtype=bool), 0, np.zeros(0, dtype=np.int64),
                omega=2,
            )
        assert res.rows.shape == (0, 4)
        assert res.dropped == 0


# -- both kernels against their loops, over the shapes fixed seeds miss --------
def _plain_predicate(p, d):
    return int(p[1]) <= int(d[1])


_PREDICATES = (None, VIEW.pair_predicate, _plain_predicate)


def _sweep_case(rng):
    """One random join input.  Few keys against many drivers, so driver-key
    multiplicity regularly exceeds ω (several matcher rounds); caps start at
    0; dummy rows share keys with real ones; either side may be empty."""
    n_probe = int(rng.integers(0, 22))
    n_driver = int(rng.integers(0, 14))
    n_keys = int(rng.integers(1, 5))
    probe, p_flags, p_caps, driver, d_flags, d_caps = _random_inputs(
        rng, n_probe, n_driver, n_keys
    )
    if rng.random() < 0.15:
        p_caps[:] = 0
    if rng.random() < 0.15:
        d_caps[:] = 0
    return dict(
        probe_rows=probe, probe_flags=p_flags, probe_key_col=0, probe_caps=p_caps,
        driver_rows=driver, driver_flags=d_flags, driver_key_col=0,
        driver_caps=d_caps,
        omega=int(rng.integers(1, 5)),
        pair_predicate=_PREDICATES[int(rng.integers(0, 3))],
        output_left=("probe", "driver")[int(rng.integers(0, 2))],
    )


class TestKernelSweep:
    CASES_PER_BLOCK = 260  # × 4 blocks × 2 kernels = 2 080 cases

    @pytest.mark.parametrize("block", range(4))
    @pytest.mark.parametrize(
        "kernel, loop",
        [
            (truncated_sort_merge_join, _loop_sort_merge_join),
            (truncated_nested_loop_join, _loop_nested_loop_join),
        ],
        ids=["sort-merge", "nested-loop"],
    )
    def test_join_result_and_gates_match_loop_version(self, kernel, loop, block):
        rng = np.random.default_rng([500, block])
        multi_round = 0
        for case in range(self.CASES_PER_BLOCK):
            kwargs = _sweep_case(rng)
            outs = []
            for impl in (kernel, loop):
                runtime = MPCRuntime(seed=3)
                with runtime.protocol("join", 1) as ctx:
                    outs.append((impl(ctx, **kwargs), ctx.gates))
            (fast, fast_gates), (slow, slow_gates) = outs
            where = f"block {block} case {case}"
            assert np.array_equal(fast.rows, slow.rows), where
            assert np.array_equal(fast.flags, slow.flags), where
            assert np.array_equal(fast.left_emitted, slow.left_emitted), where
            assert np.array_equal(fast.right_emitted, slow.right_emitted), where
            assert fast.left_emitted.dtype == slow.left_emitted.dtype
            assert fast.right_emitted.dtype == slow.right_emitted.dtype
            assert fast.dropped == slow.dropped, where
            assert fast_gates == slow_gates, where
            live_keys = kwargs["driver_rows"][kwargs["driver_flags"], 0]
            if live_keys.size and np.bincount(live_keys).max() > kwargs["omega"]:
                multi_round += 1
        assert multi_round > self.CASES_PER_BLOCK // 10  # the sweep reaches them


@st.composite
def _kernel_case(draw):
    """One join input over the shapes a Transform run can hand a kernel:
    either side empty or all dummies, a key shared by up to ω + 3 live
    drivers (several matcher rounds), caps of 0, below, at and above ω,
    and a timestamp band that may be empty or lie wholly below zero."""
    omega = draw(st.integers(1, 4))
    n_keys = draw(st.integers(1, 3))
    n_probe = draw(st.integers(0, 14))
    n_driver = draw(st.integers(0, omega + 3 + 2))

    def side(n, ts_hi):
        rows = np.asarray(
            [
                [draw(st.integers(0, n_keys - 1)), draw(st.integers(0, ts_hi))]
                for _ in range(n)
            ],
            dtype=np.uint32,
        ).reshape(n, 2)
        liveness = draw(st.sampled_from(["mixed", "all-dummy", "all-live"]))
        if liveness == "mixed":
            flags = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        else:
            flags = np.full(n, liveness == "all-live")
        caps = np.asarray(
            draw(st.lists(st.integers(0, omega + 2), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        return rows, flags, caps

    probe, p_flags, p_caps = side(n_probe, 8)
    driver, d_flags, d_caps = side(n_driver, 10)
    lo = draw(st.integers(-6, 6))
    hi = draw(st.integers(-6, 6))
    kind = draw(st.sampled_from(["none", "view", "plain"]))
    if kind == "view" and lo <= hi:
        # The owner's batch hook (a view's band cannot be empty).
        predicate = replace(VIEW, window_lo=lo, window_hi=hi).pair_predicate
    elif kind == "none":
        predicate = None
    else:

        def predicate(p, d, lo=lo, hi=hi):
            return lo <= int(d[1]) - int(p[1]) <= hi

    return dict(
        probe_rows=probe, probe_flags=p_flags, probe_key_col=0, probe_caps=p_caps,
        driver_rows=driver, driver_flags=d_flags, driver_key_col=0,
        driver_caps=d_caps,
        omega=omega,
        pair_predicate=predicate,
        output_left=draw(st.sampled_from(["probe", "driver"])),
    )


class TestTransformKernelProperty:
    """Both kernels ≡ their loop references, over generated edge shapes:
    the padded rows, the isView flags, both emitted arrays, the dropped
    count and the gates charged."""

    @pytest.mark.parametrize(
        "kernel, loop",
        [
            (truncated_sort_merge_join, _loop_sort_merge_join),
            (truncated_nested_loop_join, _loop_nested_loop_join),
        ],
        ids=["sort-merge", "nested-loop"],
    )
    @given(case=_kernel_case())
    @settings(max_examples=500, deadline=None)
    def test_kernel_equals_its_loop(self, kernel, loop, case):
        outs = []
        for impl in (kernel, loop):
            runtime = MPCRuntime(seed=3)
            with runtime.protocol("join", 1) as ctx:
                outs.append((impl(ctx, **case), ctx.gates))
        (fast, fast_gates), (slow, slow_gates) = outs
        assert np.array_equal(fast.rows, slow.rows)
        assert np.array_equal(fast.flags, slow.flags)
        assert np.array_equal(fast.left_emitted, slow.left_emitted)
        assert np.array_equal(fast.right_emitted, slow.right_emitted)
        assert fast.left_emitted.dtype == slow.left_emitted.dtype
        assert fast.right_emitted.dtype == slow.right_emitted.dtype
        assert fast.dropped == slow.dropped and type(fast.dropped) is int
        assert fast_gates == slow_gates


class TestKernelShape:
    """Call counts, not timings: a per-driver loop creeping back in fails."""

    def test_one_predicate_call_and_one_probe_charge_for_200_drivers(
        self, monkeypatch
    ):
        rng = np.random.default_rng(8)
        probe, p_flags, p_caps, driver, d_flags, d_caps = _random_inputs(
            rng, n_probe=300, n_driver=200, n_keys=40
        )
        calls = {"batch": 0, "probes": 0}
        batch = JoinViewDefinition.pair_predicate_batch
        charge = ProtocolContext.charge_join_probes

        def counting_batch(self, probe_rows, driver_rows):
            calls["batch"] += 1
            return batch(self, probe_rows, driver_rows)

        def counting_charge(self, count, payload_words):
            calls["probes"] += 1
            return charge(self, count, payload_words)

        monkeypatch.setattr(JoinViewDefinition, "pair_predicate_batch", counting_batch)
        monkeypatch.setattr(ProtocolContext, "charge_join_probes", counting_charge)
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("join", 1) as ctx:
            res = truncated_sort_merge_join(
                ctx, probe, p_flags, 0, p_caps, driver, d_flags, 0, d_caps,
                omega=2, pair_predicate=VIEW.pair_predicate,
            )
        assert res.real_count > 0
        assert calls == {"batch": 1, "probes": 1}


# -- NM multi-aggregate: verbatim pre-vectorization per-right-row loop --------
def _loop_join_multi_aggregate(
    ctx, left_rows, left_flags, left_key_col, right_rows, right_flags,
    right_key_col, sum_specs=(), need_count=True, group_spec=None,
    group_domain=None, clause_specs=(), pair_predicate=None,
):
    grouped = group_spec is not None
    n_groups = len(group_domain) if grouped else 1
    n_left, w_left = left_rows.shape if left_rows.size else (0, left_rows.shape[1])
    n_right, w_right = right_rows.shape if right_rows.size else (0, right_rows.shape[1])
    out_width = w_left + w_right
    union_keys = np.concatenate(
        [
            left_rows[:, left_key_col] if n_left else np.zeros(0, dtype=np.uint32),
            right_rows[:, right_key_col] if n_right else np.zeros(0, dtype=np.uint32),
        ]
    )
    side = np.concatenate(
        [np.zeros(n_left, dtype=np.uint32), np.ones(n_right, dtype=np.uint32)]
    )
    sort_keys = composite_key(union_keys, side)
    payload_words = max(w_left, w_right) + 2
    oblivious_sort(ctx, sort_keys, [side], payload_words)

    def _pair_value(spec_side, col, i, j):
        row = left_rows[i] if spec_side == "left" else right_rows[j]
        return int(row[col])

    domain_index = (
        {int(v): g for g, v in enumerate(group_domain)} if grouped else None
    )
    slot_gates = ctx.cost_model.aggregate_slot_gates(
        need_count, len(sum_specs), n_groups, grouped
    ) + ctx.cost_model.predicate_eval_gates(len(clause_specs))
    counts = np.zeros(n_groups, dtype=np.int64)
    sums = np.zeros((n_groups, len(sum_specs)), dtype=np.uint64)
    live_left = np.flatnonzero(np.asarray(left_flags, dtype=bool)[:n_left])
    groups_left = (
        _group_by_key(left_rows[live_left, left_key_col]) if live_left.size else {}
    )
    empty = np.zeros(0, dtype=np.int64)
    for j in range(n_right):
        if not right_flags[j]:
            continue
        key = int(right_rows[j, right_key_col])
        partners = live_left[groups_left.get(key, empty)]
        ctx.charge_join_probes(len(partners), out_width)
        if slot_gates:
            ctx.charge_gates(len(partners) * slot_gates)
        for i in partners:
            i = int(i)
            if pair_predicate is not None and not pair_predicate(
                left_rows[i], right_rows[j]
            ):
                continue
            if any(
                not lo <= _pair_value(s, c, i, j) <= hi
                for s, c, lo, hi in clause_specs
            ):
                continue
            if grouped:
                g = domain_index.get(_pair_value(group_spec[0], group_spec[1], i, j))
                if g is None:
                    continue
            else:
                g = 0
            if need_count:
                counts[g] += 1
            for s, (spec_side, col) in enumerate(sum_specs):
                sums[g, s] += np.uint64(_pair_value(spec_side, col, i, j))
    ctx.charge_scan(n_left + n_right, payload_words)
    return counts, sums


class TestMultiAggregateRegression:
    #: Domain with a duplicate value (3): the historical dict build routes
    #: value 3 into its *last* slot — the vectorized bisect must match.
    DOMAINS = [None, (0, 1, 2, 3), (3, 1, 0, 3, 2)]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_counts_sums_gates_match_loop_version(self, seed, domain):
        rng = np.random.default_rng(400 + seed)
        probe, p_flags, _, driver, d_flags, _ = _random_inputs(
            rng, n_probe=24, n_driver=16, n_keys=5
        )
        kwargs = dict(
            sum_specs=(("left", 1), ("right", 1)),
            need_count=True,
            group_spec=("right", 0) if domain else None,
            group_domain=domain,
            clause_specs=(("left", 1, 1, 4),),
        )
        outs = []
        gates = []
        for impl, extra in (
            (oblivious_join_multi_aggregate, {"band": VIEW.band}),
            (_loop_join_multi_aggregate, {"pair_predicate": VIEW.pair_predicate}),
        ):
            runtime = MPCRuntime(seed=7)
            with runtime.protocol("agg", 1) as ctx:
                outs.append(
                    impl(ctx, probe, p_flags, 0, driver, d_flags, 0, **kwargs, **extra)
                )
                gates.append(ctx.gates)
        (fc, fs), (sc, ss) = outs
        assert np.array_equal(fc, sc)
        assert np.array_equal(fs, ss)
        assert fs.dtype == ss.dtype == np.uint64
        assert gates[0] == gates[1], "vectorization must not change charges"

    def test_kernel_charges_the_sort_without_running_a_network(self):
        """The NM union is heavily tied (``(key, side)`` keys) and its
        order is never read: the kernel charges the sort the loop oracle
        above still performs, and fetches no network to do it."""
        rng = np.random.default_rng(77)
        probe, p_flags, _, driver, d_flags, _ = _random_inputs(
            rng, n_probe=300, n_driver=200, n_keys=5
        )
        runtime = MPCRuntime(seed=7)
        before = batcher_network.cache_info()
        with runtime.protocol("agg", 1) as ctx:
            oblivious_join_multi_aggregate(ctx, probe, p_flags, 0, driver, d_flags, 0)
            fast_gates = ctx.gates
        assert batcher_network.cache_info() == before
        with runtime.protocol("agg", 2) as ctx:
            _loop_join_multi_aggregate(ctx, probe, p_flags, 0, driver, d_flags, 0)
            assert ctx.gates == fast_gates
        assert batcher_network.cache_info() != before  # the oracle did sort

    def test_sum_wraparound_matches_loop(self):
        """uint64 accumulator overflow must wrap identically in both paths:
        12 pairs of values near 2^64 sum past it many times over."""
        values = [(1 << 64) - 1, (1 << 64) - 2, (1 << 64) - 4096]
        left = np.asarray([[1, v] for v in values], dtype=np.uint64)
        right = np.asarray([[1, 0]] * 4, dtype=np.uint64)
        flags_l = np.ones(3, dtype=bool)
        flags_r = np.ones(4, dtype=bool)
        exact = 4 * sum(values)
        assert exact >= 1 << 64  # an accumulator that did not wrap would differ
        outs = []
        for impl in (oblivious_join_multi_aggregate, _loop_join_multi_aggregate):
            runtime = MPCRuntime(seed=1)
            with np.errstate(over="ignore"), runtime.protocol("agg", 1) as ctx:
                outs.append(
                    impl(
                        ctx, left, flags_l, 0, right, flags_r, 0,
                        sum_specs=(("left", 1),),
                    )
                )
        assert np.array_equal(outs[0][1], outs[1][1])
        for counts, sums in outs:
            assert counts[0] == 12
            assert int(sums[0, 0]) == exact % (1 << 64)


# -- the factorized NM kernel against the pair oracle, over generated shapes ---
_TS_MAX = (1 << 32) - 1
#: Window endpoints: the ±2^33 extremes, the uint32 delta's own range
#: (±(2^32 − 1)) and its neighbours, and small offsets either way.
_WINDOW_ENDS = st.one_of(
    st.sampled_from(
        [-(2**33), -(2**32), -_TS_MAX, -1, 0, 1, _TS_MAX, 2**32, 2**33]
    ),
    st.integers(-4, 4),
)


@st.composite
def _window(draw):
    """``(lo, hi)`` in order, or — now and then — reversed (empty)."""
    lo, hi = sorted((draw(_WINDOW_ENDS), draw(_WINDOW_ENDS)))
    return (hi, lo) if lo < hi and draw(st.integers(0, 7)) == 0 else (lo, hi)


@st.composite
def _nm_case(draw):
    """One NM kernel input.  Rows are ``(key, ts, small, value)``: three
    keys (repeats), ``small`` feeds clauses and GROUP BY, ``value`` the
    SUMs.  A side may be empty, all dummies, all real or mixed.  In
    uint64 rows the values sit near 2^64, so a handful of pairs wraps
    the accumulator (ring words are uint32, where that takes 2^32
    pairs)."""
    dtype = draw(st.sampled_from([np.uint32, np.uint64]))
    top = (1 << (64 if dtype is np.uint64 else 32)) - 1
    values = st.one_of(st.integers(top - 4096, top), st.integers(0, 9))
    # Timestamps sit at one end of the word or at both, so bands clamp at
    # 0 and at 2^32 − 1 as often as they fall inside.
    ends = draw(st.sampled_from([(0,), (_TS_MAX - 3,), (0, _TS_MAX - 3)]))
    timestamps = st.builds(
        lambda base, offset: base + offset, st.sampled_from(ends), st.integers(0, 3)
    )

    def side():
        # Hypothesis favours a draw's extremes: the rare shapes sit inside.
        n = 0 if draw(st.integers(0, 9)) == 5 else draw(st.integers(3, 9))
        rows = [
            (draw(st.integers(0, 2)), draw(timestamps), draw(st.integers(0, 5)),
             draw(values))
            for _ in range(n)
        ]
        real = draw(st.integers(0, 9))  # 5: all dummies, 1–3: mixed, else all real
        flags = [real not in (1, 2, 3, 5) or (real != 5 and draw(st.integers(0, 3)) > 0) for _ in range(n)]
        return np.asarray(rows, dtype=dtype).reshape(n, 4), np.asarray(flags, dtype=bool)

    left, left_flags = side()
    right, right_flags = side()
    band = (1, 1, *draw(_window())) if draw(st.integers(0, 3)) else None
    sides = st.sampled_from(["left", "right"])
    clause_specs = []
    for _ in range(draw(st.integers(0, 2))):
        col = draw(st.sampled_from([1, 2]))
        if col == 1:
            lo, hi = draw(_window())
        else:
            lo, hi = sorted((draw(st.integers(-1, 6)), draw(st.integers(-1, 6))))
        clause_specs.append((draw(sides), col, lo, hi))
    group_spec = group_domain = None
    if draw(st.integers(0, 2)):
        group_spec = (draw(sides), 2)
        # Duplicates route to their last slot; values 6 and 7 never occur.
        group_domain = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=8)))
    sum_specs = tuple((draw(sides), 3) for _ in range(draw(st.integers(0, 2))))
    return dict(
        left_rows=left, left_flags=left_flags, left_key_col=0,
        right_rows=right, right_flags=right_flags, right_key_col=0,
        sum_specs=sum_specs, need_count=draw(st.integers(0, 3)) > 0,
        group_spec=group_spec, group_domain=group_domain,
        clause_specs=tuple(clause_specs),
    ), band


class TestFactorizedKernelProperty:
    @settings(max_examples=600, deadline=None)
    @given(_nm_case())
    def test_counts_sums_dtypes_gates_match_the_pair_oracle(self, case):
        kwargs, band = case
        predicate = None
        if band is not None:
            lc, rc, lo, hi = band

            def predicate(left_row, right_row):
                return lo <= int(right_row[rc]) - int(left_row[lc]) <= hi

        outs = []
        for impl, extra in (
            (oblivious_join_multi_aggregate, {"band": band}),
            (_loop_join_multi_aggregate, {"pair_predicate": predicate}),
        ):
            runtime = MPCRuntime(seed=7)
            with np.errstate(over="ignore"), runtime.protocol("agg", 1) as ctx:
                counts, sums = impl(ctx, **kwargs, **extra)
                outs.append((counts, sums, ctx.gates))
        (fc, fs, fg), (sc, ss, sg) = outs
        assert fc.dtype == sc.dtype == np.int64
        assert fs.dtype == ss.dtype == np.uint64
        assert np.array_equal(fc, sc)
        assert np.array_equal(fs, ss)
        assert fs.shape == ss.shape
        assert fg == sg, "the factorized kernel must charge the pair circuit"


class TestFactorizedKernelEdges:
    """Hand-built bands the property test reaches only by chance: each
    anchor side, windows clamped at 0 and at 2^32 − 1, one-sided ±2^33."""

    # (key, ts, group, value); same-key deltas r.ts − l.ts: 2, −8, 12, 2
    # on key 1 and 0 on key 2, whose rows sit at the top of the word.
    LEFT = np.asarray(
        [[1, 10, 0, 5], [1, 0, 1, 7], [2, _TS_MAX, 0, 1]], dtype=np.uint32
    )
    RIGHT = np.asarray(
        [[1, 12, 2, 3], [1, 2, 2, 4], [2, _TS_MAX, 3, 9]], dtype=np.uint32
    )
    PAIRS = {(0, 3): 3, (-3, 0): 1, (-(2**33), -1): 1, (1, 2**33): 3, (0, 0): 1}

    @pytest.mark.parametrize("window", list(PAIRS))
    @pytest.mark.parametrize("group_side", [None, "left", "right"])
    def test_every_anchor_side_matches_the_oracle(self, group_side, window):
        kwargs = dict(
            left_rows=self.LEFT, left_flags=np.ones(3, dtype=bool), left_key_col=0,
            right_rows=self.RIGHT, right_flags=np.ones(3, dtype=bool), right_key_col=0,
            sum_specs=(("left", 3), ("right", 3)),
            group_spec=None if group_side is None else (group_side, 2),
            group_domain=None if group_side is None else (0, 1, 2, 3),
        )
        lo, hi = window
        outs = []
        for impl, extra in (
            (oblivious_join_multi_aggregate, {"band": (1, 1, lo, hi)}),
            (
                _loop_join_multi_aggregate,
                {"pair_predicate": lambda p, d: lo <= int(d[1]) - int(p[1]) <= hi},
            ),
        ):
            runtime = MPCRuntime(seed=7)
            with runtime.protocol("agg", 1) as ctx:
                outs.append((*impl(ctx, **kwargs, **extra), ctx.gates))
        (fc, fs, fg), (sc, ss, sg) = outs
        assert int(fc.sum()) == self.PAIRS[window]
        assert np.array_equal(fc, sc) and np.array_equal(fs, ss) and fg == sg


class TestFactorizedKernelShape:
    """Host memory is sized by the tables, not by the pairs they make."""

    @staticmethod
    def _peak_bytes(n_keys):
        rng = np.random.default_rng(5)
        rows = 2000

        def side():
            return np.column_stack(
                [rng.integers(0, n_keys, rows), rng.integers(0, 50, rows),
                 rng.integers(0, 9, rows)]
            ).astype(np.uint32), np.ones(rows, dtype=bool)

        (left, lf), (right, rf) = side(), side()
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("agg", 1) as ctx:
            tracemalloc.start()
            try:
                counts, _ = oblivious_join_multi_aggregate(
                    ctx, left, lf, 0, right, rf, 0,
                    sum_specs=(("left", 2), ("right", 2)),
                    band=(1, 1, -(2**32), 2**32),
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return int(counts[0]), peak

    def test_peak_memory_does_not_grow_with_the_pair_count(self):
        few_pairs, few_peak = self._peak_bytes(n_keys=1_000_000)
        many_pairs, many_peak = self._peak_bytes(n_keys=20)
        assert few_pairs < 50 and many_pairs > 150_000
        # 150k pairs of two int64 indices would be 2.4 MB on their own.
        assert many_peak < 1.5 * few_peak + 64 * 1024


class TestPredicateKeepMask:
    def test_batch_hook_equals_per_pair_calls(self):
        rng = np.random.default_rng(9)
        probe = rng.integers(0, 12, (40, 2)).astype(np.uint32)
        driver = rng.integers(0, 12, (40, 2)).astype(np.uint32)
        via_hook = _predicate_keep_mask(VIEW.pair_predicate, probe, driver)
        via_loop = np.asarray(
            [VIEW.pair_predicate(p, d) for p, d in zip(probe, driver)], dtype=bool
        )
        assert np.array_equal(via_hook, via_loop)
        assert via_hook.any() and not via_hook.all()  # non-degenerate case

    def test_plain_callable_falls_back_to_per_pair(self):
        calls = []

        def pred(p, d):
            calls.append(1)
            return int(p[0]) == int(d[0])

        probe = np.asarray([[1, 0], [2, 0], [3, 0]], dtype=np.uint32)
        driver = np.asarray([[1, 0], [9, 0], [3, 0]], dtype=np.uint32)
        mask = _predicate_keep_mask(pred, probe, driver)
        assert mask.tolist() == [True, False, True]
        assert len(calls) == 3

    def test_batch_matches_scalar_on_window_edges(self):
        probe = np.asarray(
            [[1, 5], [1, 5], [1, 5], [1, 8]], dtype=np.uint32
        )
        driver = np.asarray(
            [[1, 5], [1, 8], [1, 9], [1, 5]], dtype=np.uint32
        )  # deltas: 0, 3, 4, -3 against window [0, 3]
        batch = VIEW.pair_predicate_batch(probe, driver)
        scalar = [VIEW.pair_predicate(p, d) for p, d in zip(probe, driver)]
        assert batch.tolist() == scalar == [True, True, False, False]
