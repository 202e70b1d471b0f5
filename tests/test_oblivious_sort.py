"""Tests for the oblivious sort: the Batcher network (the executable
specification), the closed-form charge, and the argsort path that must
agree with the network wherever it is taken."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import spawn
from repro.common.types import Schema
from repro.experiments.harness import MultiViewRunConfig, run_multiview_experiment
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.sort import (
    NETWORK_CACHE_SIZE,
    PAD_KEY,
    apply_network,
    batcher_network,
    charge_oblivious_sort,
    composite_key,
    network_comparator_count,
    oblivious_sort,
)
from repro.sharing.shared_value import SharedTable
from repro.storage.secure_cache import SecureCache

GOLDEN = Path(__file__).parent / "golden" / "cpdb_multiview_40.json"


def _network_calls() -> int:
    """Times a network was fetched, built or not — one per application."""
    info = batcher_network.cache_info()
    return info.hits + info.misses


class TestNetworkConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            batcher_network(6)

    def test_trivial_sizes(self):
        assert batcher_network(1) == ()
        assert len(batcher_network(2)) == 1

    def test_comparator_count_known_values(self):
        # Batcher odd-even mergesort comparator counts for small n.
        assert network_comparator_count(2) == 1
        assert network_comparator_count(4) == 5
        assert network_comparator_count(8) == 19

    def test_comparator_count_pads_to_pow2(self):
        assert network_comparator_count(5) == network_comparator_count(8)

    def test_closed_form_equals_built_network(self):
        try:
            for t in range(17):
                m = 1 << t
                built = sum(len(lo) for lo, _ in batcher_network(m))
                assert network_comparator_count(m) == built, m
        finally:
            batcher_network.cache_clear()  # the 2^16 network alone is 70 MB

    def test_counting_builds_nothing(self):
        before = batcher_network.cache_info()
        assert network_comparator_count(0) == network_comparator_count(1) == 0
        assert network_comparator_count(1 << 40) == (40 * 39 + 4) * (1 << 38) - 1
        assert batcher_network.cache_info() == before

    def test_cache_is_bounded(self):
        assert batcher_network.cache_info().maxsize == NETWORK_CACHE_SIZE
        try:
            for t in range(1, NETWORK_CACHE_SIZE + 3):
                batcher_network(1 << t)
            assert batcher_network.cache_info().currsize == NETWORK_CACHE_SIZE
        finally:
            batcher_network.cache_clear()

    def test_stages_are_disjoint(self):
        """Comparators within one stage must touch disjoint positions —
        that is what makes them parallelisable (and our vectorised
        application correct)."""
        for n in (4, 8, 16, 32):
            for lo, hi in batcher_network(n):
                touched = np.concatenate([lo, hi])
                assert len(np.unique(touched)) == len(touched)

    def test_network_is_data_independent(self):
        """The comparator sequence depends only on n — the core oblivious
        property.  (The network is cached, so identity equality holds.)"""
        assert batcher_network(16) is batcher_network(16)


class TestApplyNetwork:
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=64)
    )
    @settings(max_examples=100, deadline=None)
    def test_sorts_any_input(self, values):
        keys = np.asarray(values, dtype=np.uint64)
        sorted_keys, perm = apply_network(keys)
        assert (sorted_keys == np.sort(keys)).all()
        assert (keys[perm] == sorted_keys).all()

    def test_permutation_is_bijection(self):
        keys = np.asarray([5, 3, 3, 1, 9, 0, 3], dtype=np.uint64)
        _, perm = apply_network(keys)
        assert sorted(perm.tolist()) == list(range(len(keys)))

    def test_non_power_of_two_padding_removed(self):
        keys = np.asarray([9, 1, 5], dtype=np.uint64)
        sorted_keys, perm = apply_network(keys)
        assert len(sorted_keys) == 3
        assert sorted_keys.tolist() == [1, 5, 9]

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 12])
    def test_keys_at_and_above_pad_key_are_not_padding(self, n):
        # Padding is dropped by slot index, so a real key equal to PAD_KEY,
        # or above it, keeps its row however many padding slots tie with it.
        values = [int(PAD_KEY), 0, int(PAD_KEY) + 1, 2**64 - 1, int(PAD_KEY)]
        keys = np.resize(np.asarray(values, dtype=np.uint64), n)
        sorted_keys, perm = apply_network(keys)
        assert np.array_equal(sorted_keys, np.sort(keys))
        assert sorted(perm.tolist()) == list(range(n))
        assert np.array_equal(keys[perm], sorted_keys)

    def test_empty_input(self):
        sorted_keys, perm = apply_network(np.zeros(0, dtype=np.uint64))
        assert len(sorted_keys) == 0
        assert len(perm) == 0


class TestObliviousSort:
    def test_payloads_follow_keys(self):
        runtime = MPCRuntime(seed=0)
        keys = np.asarray([3, 1, 2], dtype=np.uint64)
        payload = np.asarray([[30], [10], [20]], dtype=np.uint32)
        flags = np.asarray([1, 0, 1], dtype=np.uint32)
        with runtime.protocol("p") as ctx:
            sorted_keys, [rows, out_flags] = oblivious_sort(
                ctx, keys, [payload, flags], payload_words=2
            )
        assert rows[:, 0].tolist() == [10, 20, 30]
        assert out_flags.tolist() == [0, 1, 1]

    def test_charges_comparator_count(self):
        runtime = MPCRuntime(seed=0)
        keys = np.arange(8, dtype=np.uint64)
        with runtime.protocol("p") as ctx:
            oblivious_sort(ctx, keys, [keys.astype(np.uint32)], payload_words=1)
            expected = network_comparator_count(8) * runtime.cost_model.compare_exchange_gates(1)
            assert ctx.gates == expected

    def test_cost_depends_only_on_length(self):
        """Two different inputs of the same size must charge identical
        gates — the execution-time side of obliviousness."""
        costs = []
        for seed, data in ((0, [5, 1, 4, 2]), (0, [0, 0, 0, 0])):
            runtime = MPCRuntime(seed=seed)
            with runtime.protocol("p") as ctx:
                oblivious_sort(
                    ctx,
                    np.asarray(data, dtype=np.uint64),
                    [np.asarray(data, dtype=np.uint32)],
                    payload_words=1,
                )
                costs.append(ctx.gates)
        assert costs[0] == costs[1]


# -- the argsort path against the executable specification -------------------
def _cache_read_keys(rng, n):
    """``(¬flag, position)`` — :meth:`SecureCache.sorted_read`."""
    flags = rng.random(n) < rng.random()
    return composite_key(
        np.where(flags, 0, 1).astype(np.uint32), np.arange(n, dtype=np.uint32)
    )


def _join_keys(rng, n):
    """``(key, side, position)`` — :func:`truncated_sort_merge_join`."""
    n_probe = int(rng.integers(0, n + 1))
    side = np.repeat(np.asarray([0, 1], dtype=np.uint32), [n_probe, n - n_probe])
    position = np.concatenate(
        [np.arange(n_probe, dtype=np.uint32), np.arange(n - n_probe, dtype=np.uint32)]
    )
    # keys up to 2^32 - 1 put composites above PAD_KEY, as real keys may
    join_key = rng.choice(
        np.asarray([0, 1, 7, 2**31, 2**32 - 1], dtype=np.uint32), size=n
    )
    return composite_key(join_key, (side << np.uint32(24)) | position)


def _shuffle_keys(rng, n):
    """Uniform 64-bit keys: any uint64 a caller passes, ``PAD_KEY`` and
    above included, since padding is dropped by slot index."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


KEY_BUILDERS = (_cache_read_keys, _join_keys, _shuffle_keys)


def _assert_sort_equals_network(keys):
    """``oblivious_sort`` ≡ ``apply_network``: keys, permutation, every
    payload, and the charge."""
    n = len(keys)
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2**32, size=(n, 3), dtype=np.uint32)
    flags = rng.integers(0, 2, size=n, dtype=np.uint32)
    runtime = MPCRuntime(seed=0)
    with runtime.protocol("p") as ctx:
        sorted_keys, [out_rows, out_flags, perm] = oblivious_sort(
            ctx, keys, [rows, flags, np.arange(n, dtype=np.int64)], payload_words=4
        )
        charged = ctx.gates
    spec_keys, spec_perm = apply_network(keys)
    assert sorted_keys.dtype == spec_keys.dtype == np.uint64
    assert np.array_equal(sorted_keys, spec_keys)
    assert np.array_equal(perm, spec_perm)
    assert np.array_equal(out_rows, rows[spec_perm])
    assert np.array_equal(out_flags, flags[spec_perm])
    assert charged == network_comparator_count(
        n
    ) * runtime.cost_model.compare_exchange_gates(4)


class TestSortEqualsNetwork:
    @pytest.mark.parametrize("build", KEY_BUILDERS)
    def test_every_small_size(self, build):
        rng = np.random.default_rng(5)
        for n in range(258):
            _assert_sort_equals_network(build(rng, n))

    @given(
        st.integers(0, 2**13),
        st.sampled_from(KEY_BUILDERS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_keys_up_to_8192(self, n, build, seed):
        _assert_sort_equals_network(build(np.random.default_rng(seed), n))

    def test_network_tie_order_is_not_the_stable_order(self):
        """Why ties cannot take the argsort: the network is not stable."""
        keys = np.asarray([1, 1, 0], dtype=np.uint64)
        _, perm = apply_network(keys)
        assert perm.tolist() == [2, 1, 0]
        assert np.argsort(keys, kind="stable").tolist() == [2, 0, 1]

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tied_keys_execute_the_network(self, values, data):
        values.append(values[data.draw(st.integers(0, len(values) - 1))])
        before = _network_calls()
        _assert_sort_equals_network(np.asarray(values, dtype=np.uint64))
        # once inside oblivious_sort, once for the comparison above
        assert _network_calls() == before + 2

    def test_cache_read_executes_no_network(self):
        n = 10_000
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2**32, size=(n, 2), dtype=np.uint32)
        flags = rng.random(n) < 0.1
        schema = Schema(("k", "ts"))
        cache = SecureCache(schema)
        cache.append(SharedTable.from_plain(schema, rows, flags, spawn(0, "sort")))
        before = batcher_network.cache_info()
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            fetched, fetched_real, remaining_real = cache.sorted_read(ctx, 600)
            head_rows, head_flags = ctx.reveal_table(fetched)
            charged = ctx.gates
        assert batcher_network.cache_info() == before
        # Figure 3: real tuples first, in arrival order
        assert fetched_real == 600 and remaining_real == flags.sum() - 600
        assert head_flags.all()
        assert np.array_equal(head_rows, rows[flags][:600])
        assert charged == network_comparator_count(
            n
        ) * runtime.cost_model.compare_exchange_gates(3)

    def test_charge_only_entry_point_charges_the_same(self):
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("sorted") as ctx:
            oblivious_sort(ctx, np.arange(37, dtype=np.uint64), [], 5)
            sorted_gates = ctx.gates
        with runtime.protocol("charged") as ctx:
            charge_oblivious_sort(ctx, 37, 5)
            assert ctx.gates == sorted_gates > 0


class TestGoldenRun:
    def test_cpdb_multiview_gates_and_shares_match_the_network_era(self):
        """Per-protocol gate lists and the final secret shares of a fixed
        run, recorded at the last commit that executed the network for
        every sort (Transform joins, Timer/ANT/EP reads, a flush, one NM
        query).  Any drift in a charge, a permutation or the randomness
        consumed changes them."""
        golden = json.loads(GOLDEN.read_text())
        result = run_multiview_experiment(
            MultiViewRunConfig(dataset="cpdb", n_steps=40, seed=11, query_every=4)
        )
        database = result.database
        gates: dict[str, list[int]] = {}
        for run in database.runtime.runs:
            gates.setdefault(run.name, []).append(run.gates)
        assert gates == golden["gates"]
        shares = {}
        for name, vr in database.views.items():
            for kind, container in (("view", vr.view), ("cache", vr.cache)):
                table = container.table
                digest = hashlib.sha256()
                for half in (
                    table.rows.share0, table.rows.share1,
                    table.flags.share0, table.flags.share1,
                ):
                    digest.update(half.tobytes())
                shares[f"{name}.{kind}"] = [len(table.rows), digest.hexdigest()]
        assert shares == golden["shares"]
        assert database.realized_epsilon() == golden["realized_epsilon"]


class TestCompositeKey:
    def test_primary_dominates(self):
        keys = composite_key(
            np.asarray([1, 2], dtype=np.uint32), np.asarray([999, 0], dtype=np.uint32)
        )
        assert keys[0] < keys[1]

    def test_secondary_breaks_ties(self):
        keys = composite_key(
            np.asarray([7, 7], dtype=np.uint32), np.asarray([2, 1], dtype=np.uint32)
        )
        assert keys[1] < keys[0]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_injective(self, a, b):
        key = composite_key(
            np.asarray([a], dtype=np.uint32), np.asarray([b], dtype=np.uint32)
        )[0]
        assert int(key) >> 32 == a
        assert int(key) & 0xFFFFFFFF == b
