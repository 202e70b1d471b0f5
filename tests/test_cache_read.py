"""The cache read of Figure 3 against the sort it is charged as.

:meth:`SecureCache.sorted_read` computes the real-first order as a stable
partition (:func:`oblivious_compact`).  :func:`oracle_sorted_read` is the
read it replaced and is still defined by: composite ``(¬isView,
position)`` keys through :func:`oblivious_sort`.  Both must leave every
observable thing equal — fetched and kept shares, gate charges, the two
real counts, and where each server's randomness stream stands — however
many appends the cache's content arrived in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.sort import (
    composite_key,
    network_comparator_count,
    oblivious_compact,
    oblivious_sort,
)
from repro.sharing.shared_value import SharedTable
from repro.storage.secure_cache import SecureCache

SCHEMA = Schema(("k", "ts", "v"))


def oracle_sorted_read(cache, ctx, size, discard_rest=False):
    """The composite-key cache read: sort on ``(¬isView, position)``."""
    if size < 0:
        raise ProtocolError(f"read size must be non-negative, got {size}")
    n = len(cache)
    size = min(size, n)
    rows, flags = ctx.reveal_table(cache.table)
    primary = np.where(flags, 0, 1).astype(np.uint32)
    position = np.arange(n, dtype=np.uint32)
    keys = composite_key(primary, position)
    _, [sorted_rows, sorted_flags] = oblivious_sort(
        ctx, keys, [rows, flags.astype(np.uint32)], cache.schema.width + 1
    )
    sorted_flags = sorted_flags.astype(bool)

    head_rows, head_flags = sorted_rows[:size], sorted_flags[:size]
    tail_rows, tail_flags = sorted_rows[size:], sorted_flags[size:]
    fetched = ctx.share_table(cache.schema, head_rows, head_flags)
    fetched_real = int(head_flags.sum())
    remaining_real = int(tail_flags.sum())

    if discard_rest:
        cache.table = SharedTable.empty(cache.schema)
    else:
        cache.table = ctx.share_table(cache.schema, tail_rows, tail_flags)
    return fetched, fetched_real, remaining_real


def _flags(pattern: str, n: int, rng) -> np.ndarray:
    if pattern == "all-real":
        return np.ones(n, dtype=bool)
    if pattern == "all-dummy":
        return np.zeros(n, dtype=bool)
    if pattern == "alternating":
        return np.arange(n) % 2 == 0
    return rng.random(n) < rng.random()


def _build(n: int, pattern: str, n_appends: int, seed: int = 0):
    """A cache of ``n`` rows filled in ``n_appends`` appends, and its runtime."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2**32, size=(n, SCHEMA.width), dtype=np.uint32)
    flags = _flags(pattern, n, rng)
    cache = SecureCache(SCHEMA)
    gen = spawn(seed, "cache-read")
    for part in np.array_split(np.arange(n), n_appends):
        cache.append(SharedTable.from_plain(SCHEMA, rows[part], flags[part], gen))
    return cache, MPCRuntime(seed=seed)


def _halves(table: SharedTable) -> list[np.ndarray]:
    return [table.rows.share0, table.rows.share1, table.flags.share0, table.flags.share1]


def _assert_reads_equal(n, pattern, n_appends, size, discard_rest, seed=0):
    got_cache, got_rt = _build(n, pattern, n_appends, seed)
    ref_cache, ref_rt = _build(n, pattern, n_appends, seed)
    # A prior odd-sized draw leaves half a word held in each server stream.
    for runtime in (got_rt, ref_rt):
        with runtime.protocol("warm") as ctx:
            ctx.joint_uniform_u32(seed % 3)
    with got_rt.protocol("read", 1) as ctx:
        got = got_cache.sorted_read(ctx, size, discard_rest)
    with ref_rt.protocol("read", 1) as ctx:
        want = oracle_sorted_read(ref_cache, ctx, size, discard_rest)

    assert got[1:] == want[1:]
    for a, b in zip(_halves(got[0]), _halves(want[0])):
        assert np.array_equal(a, b)
    assert len(got_cache) == len(ref_cache)
    assert got_cache.byte_size == ref_cache.byte_size
    assert got_cache.content_version == ref_cache.content_version
    for a, b in zip(_halves(got_cache.table), _halves(ref_cache.table)):
        assert np.array_equal(a, b)
    assert got_rt.runs == ref_rt.runs
    for server in ("server0", "server1"):
        assert getattr(got_rt, server).words.state == getattr(ref_rt, server).words.state
    return got


@pytest.mark.parametrize("n_appends", [1, 3, 4])
@pytest.mark.parametrize("discard_rest", [False, True])
@pytest.mark.parametrize("pattern", ["random", "all-real", "all-dummy", "alternating"])
@pytest.mark.parametrize("n, size", [(0, 0), (0, 5), (57, 0), (57, 20), (57, 57), (57, 90)])
def test_read_equals_the_composite_key_sort(n, size, pattern, discard_rest, n_appends):
    _assert_reads_equal(n, pattern, n_appends, size, discard_rest)


@given(
    st.integers(0, 700),
    st.integers(0, 800),
    st.sampled_from(["random", "all-real", "all-dummy", "alternating"]),
    st.booleans(),
    st.sampled_from([1, 3, 4]),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_read_equals_the_oracle_everywhere(n, size, pattern, discard_rest, n_appends, seed):
    _assert_reads_equal(n, pattern, n_appends, size, discard_rest, seed)


def test_two_reads_in_a_row_match():
    """The kept suffix is itself a cache the next read must agree on."""
    got_cache, got_rt = _build(300, "random", 3, seed=9)
    ref_cache, ref_rt = _build(300, "random", 3, seed=9)
    for size in (40, 7, 500):
        with got_rt.protocol("read") as ctx:
            got = got_cache.sorted_read(ctx, size)
        with ref_rt.protocol("read") as ctx:
            want = oracle_sorted_read(ref_cache, ctx, size)
        assert got[1:] == want[1:]
        for a, b in zip(_halves(got[0]), _halves(want[0])):
            assert np.array_equal(a, b)
    assert got_rt.runs == ref_rt.runs
    assert got_rt.server0.words.state == ref_rt.server0.words.state


def test_negative_size_is_refused():
    cache, runtime = _build(4, "random", 1)
    with runtime.protocol("read") as ctx:
        with pytest.raises(ProtocolError, match="non-negative"):
            cache.sorted_read(ctx, -1)


class TestObliviousCompact:
    @given(st.lists(st.booleans(), max_size=300), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_is_the_distinct_key_sort(self, flags, words):
        """Permutation and charge are those of the sort on
        ``(¬flag, position)``, for 1-D and 2-D payloads."""
        flags = np.asarray(flags, dtype=bool)
        n = len(flags)
        rows = np.arange(2 * n, dtype=np.uint32).reshape(n, 2)
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("compact") as ctx:
            count, [got_rows, got_pos] = oblivious_compact(
                ctx, flags, [rows, np.arange(n)], words
            )
            compact_gates = ctx.gates
        keys = composite_key(
            np.where(flags, 0, 1).astype(np.uint32), np.arange(n, dtype=np.uint32)
        )
        with runtime.protocol("sort") as ctx:
            _, [want_rows, want_pos] = oblivious_sort(
                ctx, keys, [rows, np.arange(n)], words
            )
            assert compact_gates == ctx.gates
        assert count == int(flags.sum())
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_pos, want_pos)
        assert flags[got_pos].tolist() == [True] * count + [False] * (n - count)

    def test_charges_the_padded_network(self):
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("compact") as ctx:
            oblivious_compact(ctx, np.ones(5700, dtype=bool), [], 4)
            assert ctx.gates == network_comparator_count(
                5700
            ) * runtime.cost_model.compare_exchange_gates(4)
