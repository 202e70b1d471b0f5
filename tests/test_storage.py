"""Tests for the storage layer: growing DB, outsourced tables, cache, view."""

import numpy as np
import pytest

from repro.common.errors import ProtocolError, SchemaError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.mpc.runtime import MPCRuntime
from repro.sharing.shared_value import SharedTable
from repro.storage.growing_db import GrowingDatabase
from repro.storage.materialized_view import MaterializedView
from repro.storage.outsourced_table import OutsourcedTable
from repro.storage.secure_cache import SecureCache

SCHEMA = Schema(("k", "ts"))


def shared(rows, flags, seed=0):
    return SharedTable.from_plain(
        SCHEMA,
        np.asarray(rows, dtype=np.uint32).reshape(-1, 2),
        np.asarray(flags, dtype=np.uint32),
        spawn(seed, "storage"),
    )


class TestGrowingDatabase:
    def test_instance_at_accumulates(self):
        db = GrowingDatabase()
        db.create_table("t", SCHEMA)
        db.insert(1, "t", np.asarray([[1, 1]], dtype=np.uint32))
        db.insert(3, "t", np.asarray([[2, 3]], dtype=np.uint32))
        assert len(db.instance_at("t", 1)) == 1
        assert len(db.instance_at("t", 2)) == 1
        assert len(db.instance_at("t", 3)) == 2

    def test_empty_instance(self):
        db = GrowingDatabase()
        db.create_table("t", SCHEMA)
        assert db.instance_at("t", 100).shape == (0, 2)

    def test_duplicate_table_rejected(self):
        db = GrowingDatabase()
        db.create_table("t", SCHEMA)
        with pytest.raises(SchemaError):
            db.create_table("t", SCHEMA)

    def test_unknown_table_rejected(self):
        with pytest.raises(SchemaError):
            GrowingDatabase().instance_at("nope", 0)

    def test_time_travel_insert_rejected(self):
        db = GrowingDatabase()
        db.create_table("t", SCHEMA)
        db.insert(5, "t", np.asarray([[1, 5]], dtype=np.uint32))
        with pytest.raises(SchemaError, match="insertion-only"):
            db.insert(4, "t", np.asarray([[1, 4]], dtype=np.uint32))

    def test_wrong_width_rejected(self):
        db = GrowingDatabase()
        db.create_table("t", SCHEMA)
        with pytest.raises(SchemaError):
            db.insert(1, "t", np.zeros((1, 3), dtype=np.uint32))


class TestOutsourcedTable:
    def test_append_and_totals(self):
        table = OutsourcedTable(SCHEMA, "t")
        table.append_batch(shared([[1, 1]], [1]), time=1)
        table.append_batch(shared([[2, 2], [3, 2]], [1, 1]), time=2)
        assert table.total_rows == 3
        assert len(table.full_table()) == 3
        assert table.byte_size > 0

    def test_running_totals_equal_the_recomputed_sums(self):
        """The totals are kept beside the log, not re-summed per read:
        they must follow ``append_batch`` and a ``restore_state`` (to
        fewer rows) alike."""

        def recomputed(t):
            batches = [t.batch(k) for k in range(t.n_batches)]
            return (
                sum(len(b) for b in batches),
                sum(b.byte_size for b in batches),
            )

        table = OutsourcedTable(SCHEMA, "t")
        assert (table.total_rows, table.byte_size) == (0, 0)
        for time in range(1, 5):
            table.append_batch(shared([[time, time]] * time, [1] * time), time=time)
            assert (table.total_rows, table.byte_size) == recomputed(table)
        state = {**table.batches.columns(), **table.rows.columns()}
        table.adopt(
            {
                "times": state["times"][:2],
                "lengths": state["lengths"][:2],
                **{
                    part: {half: col[:3].copy() for half, col in state[part].items()}
                    for part in ("rows", "flags")
                },
            }
        )
        assert table.total_rows == 3
        assert table.starts.tolist() == [0, 1, 3]
        assert (table.total_rows, table.byte_size) == recomputed(table)
        table.append_batch(shared([[5, 5]], [1]), time=5)
        assert (table.total_rows, table.byte_size) == recomputed(table)

    def test_starts_follow_appends_and_an_adopt_of_as_many_batches(self):
        table = OutsourcedTable(SCHEMA, "t")
        assert table.starts.tolist() == [0]
        for time, size in ((1, 2), (2, 1), (3, 3)):
            table.append_batch(shared([[time, time]] * size, [1] * size), time=time)
            assert table.starts[-1] == table.total_rows
        assert table.starts.tolist() == [0, 2, 3, 6]
        columns = {**table.batches.columns(), **table.rows.columns()}
        table.adopt({**columns, "lengths": np.array([1, 2, 3])})
        assert table.starts.tolist() == [0, 1, 3, 6]

    def test_batches_are_slices_that_outlive_a_growth(self):
        """A batch, a window and the whole log are views of the log's
        buffers, with the uploaded shares; rows are never overwritten, so
        a slice taken before the buffers grow still holds its rows."""
        table = OutsourcedTable(SCHEMA, "t")
        uploads = [
            shared([[t, t]] * (t % 3), [1] * (t % 3), seed=t) for t in range(1, 200)
        ]
        early = None
        for time, upload in enumerate(uploads, start=1):
            assert table.append_batch(upload, time) == time - 1
            if time == 5:
                early = table.window(1, 5)
                kept = early.rows.share0.copy(), early.flags.share1.copy()
        assert table.n_batches == len(uploads)
        for k, upload in enumerate(uploads):
            batch = table.batch(k)
            for got, want in (
                (batch.rows.share0, upload.rows.share0),
                (batch.rows.share1, upload.rows.share1),
                (batch.flags.share0, upload.flags.share0),
                (batch.flags.share1, upload.flags.share1),
            ):
                assert np.array_equal(got, want)
        whole = table.full_table()
        assert np.shares_memory(whole.rows.share0, table.batch(7).rows.share0)
        assert len(whole) == table.total_rows == sum(len(u) for u in uploads)
        assert np.array_equal(early.rows.share0, kept[0])
        assert np.array_equal(early.flags.share1, kept[1])
        assert table.window(4, 4).rows.shape == (0, 2)

    def test_batch_at_names_the_batch_of_a_time(self):
        table = OutsourcedTable(SCHEMA, "t")
        assert table.batch_at(1) is None
        for time in (1, 3, 4):
            table.append_batch(shared([[time, time]] * time, [1] * time), time=time)
        assert [table.batch_at(t) for t in range(6)] == [None, 0, None, 1, 2, None]
        assert table.times.tolist() == [1, 3, 4]
        assert table.starts.tolist() == [0, 1, 4, 8]

    @pytest.mark.parametrize("time", [4, 5])
    def test_out_of_order_batch_rejected(self, time):
        table = OutsourcedTable(SCHEMA, "t")
        table.append_batch(shared([[1, 5]], [1]), time=5)
        with pytest.raises(ProtocolError, match="ordered"):
            table.append_batch(shared([[1, time]], [1]), time=time)
        assert table.n_batches == 1

    def test_schema_mismatch_rejected(self):
        table = OutsourcedTable(Schema(("other",)), "t")
        with pytest.raises(SchemaError):
            table.append_batch(shared([[1, 1]], [1]), time=1)

    def test_empty_full_table(self):
        table = OutsourcedTable(SCHEMA, "t")
        assert len(table.full_table()) == 0


class TestSecureCache:
    def _cache_with(self, rows, flags):
        cache = SecureCache(SCHEMA)
        cache.append(shared(rows, flags))
        return cache

    def test_sorted_read_fetches_real_first(self):
        cache = self._cache_with(
            [[0, 0], [1, 1], [0, 0], [2, 2]], [0, 1, 0, 1]
        )
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            fetched, fetched_real, remaining_real = cache.sorted_read(ctx, 2)
            rows, flags = ctx.reveal_table(fetched)
        assert fetched_real == 2
        assert remaining_real == 0
        assert flags.all()
        assert {int(r[0]) for r in rows} == {1, 2}

    def test_sorted_read_fifo_among_reals(self):
        cache = self._cache_with([[5, 1], [6, 2]], [1, 1])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            fetched, _, _ = cache.sorted_read(ctx, 1)
            rows, _ = ctx.reveal_table(fetched)
        assert int(rows[0][0]) == 5  # earliest cached entry first

    def test_sorted_read_clamps_to_cache_size(self):
        cache = self._cache_with([[1, 1]], [1])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            fetched, _, _ = cache.sorted_read(ctx, 100)
        assert len(fetched) == 1
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        cache = self._cache_with([[1, 1]], [1])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            with pytest.raises(ProtocolError):
                cache.sorted_read(ctx, -1)

    def test_deferred_reals_stay_in_cache(self):
        cache = self._cache_with([[1, 1], [2, 2], [3, 3]], [1, 1, 1])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            _, fetched_real, remaining_real = cache.sorted_read(ctx, 1)
        assert fetched_real == 1
        assert remaining_real == 2
        assert len(cache) == 2

    def test_discard_rest_empties_cache(self):
        cache = self._cache_with([[1, 1], [2, 2]], [1, 1])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            _, rescued, recycled = cache.sorted_read(ctx, 1, discard_rest=True)
        assert len(cache) == 0
        assert rescued == 1
        assert recycled == 1  # a real tuple was destroyed

    def test_real_count(self):
        cache = self._cache_with([[1, 1], [0, 0]], [1, 0])
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert cache.real_count(ctx) == 1

    def test_append_accumulates(self):
        cache = SecureCache(SCHEMA)
        cache.append(shared([[1, 1]], [1]))
        cache.append(shared([[2, 2]], [0]))
        assert len(cache) == 2
        assert cache.byte_size > 0


class TestMaterializedView:
    def test_append_and_sizes(self):
        view = MaterializedView(SCHEMA)
        view.append(shared([[1, 1], [0, 0]], [1, 0]))
        assert view.update_count == 1
        assert view.byte_size == 2 * 2 * 4 + 2 * 4

    def test_flush_append_not_counted_as_update(self):
        view = MaterializedView(SCHEMA)
        view.append(shared([[1, 1]], [1]), count_as_update=False)
        assert view.update_count == 0

    def test_real_count_inside_protocol(self):
        view = MaterializedView(SCHEMA)
        view.append(shared([[1, 1], [0, 0], [2, 2]], [1, 0, 1]))
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            assert view.real_count(ctx) == 2


def assert_counters_exact(view: MaterializedView) -> None:
    """The public sizes equal what the shards themselves hold."""
    shards = view.shards
    assert len(shards) == view.n_shards
    assert view.shard_lengths() == tuple(len(t) for t in shards)
    assert view.byte_size == sum(t.byte_size for t in shards)
    assert len(view) == sum(view.shard_lengths())


def assert_cache_sizes_exact(cache: SecureCache) -> None:
    """The cache's kept sizes equal what its one table holds."""
    assert len(cache) == len(cache.table)
    assert cache.byte_size == cache.table.byte_size


def reveal(table: SharedTable) -> tuple[list, list]:
    """Plaintext of a shared table (inside a throwaway protocol scope)."""
    with MPCRuntime(seed=0).protocol("peek") as ctx:
        rows, flags = ctx.reveal_table(table)
    return rows.tolist(), flags.tolist()


def view_state(view: MaterializedView) -> dict:
    """What a restore hands ``restore_state``: the shards and the count."""
    return {"shards": view.shards, "update_count": view.update_count}


def random_delta(gen, n_rows: int) -> SharedTable:
    return SharedTable.from_plain(
        SCHEMA,
        gen.integers(0, 50, size=(n_rows, 2), dtype=np.uint32),
        gen.integers(0, 2, size=n_rows).astype(np.uint32),
        gen,
    )


class TestContainerCounters:
    """``byte_size``/``shard_lengths()`` are kept, not recomputed: every
    path that touches the shards or the cache's chunk list must keep them
    exact, and every cache mutation must move its ``content_version``."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_exact_after_every_mutation_path(self, n_shards):
        gen = np.random.default_rng(n_shards)
        view = MaterializedView(SCHEMA, n_shards=n_shards)
        cache = SecureCache(SCHEMA)
        runtime = MPCRuntime(seed=0)
        version = cache.content_version
        for n_rows in (0, 1, 5, 2, 7):
            view.append(random_delta(gen, n_rows))
            cache.append(random_delta(gen, n_rows))
            assert_counters_exact(view)
            assert_cache_sizes_exact(cache)  # consolidates the chunk list
            assert cache.content_version > version
            version = cache.content_version
        assert_cache_sizes_exact(cache)

        with runtime.protocol("read") as ctx:
            cache.sorted_read(ctx, 4)
        assert_cache_sizes_exact(cache)
        assert len(cache) == 11 and cache.content_version > version
        version = cache.content_version
        cache.table = random_delta(gen, 6)  # the EP baseline's drain
        assert_cache_sizes_exact(cache)
        assert len(cache) == 6 and cache.content_version > version
        version = cache.content_version
        with runtime.protocol("flush") as ctx:
            cache.sorted_read(ctx, 2, discard_rest=True)
        assert_cache_sizes_exact(cache)
        assert len(cache) == 0 and cache.byte_size == 0
        assert cache.content_version > version

        for k in (4, 2):
            view.reshard(k)
            assert_counters_exact(view)
            assert len(view) == 15

    @pytest.mark.parametrize("saved_shards, restored_shards", [(3, 3), (3, 2), (1, 4)])
    def test_exact_after_restore_state(self, saved_shards, restored_shards):
        gen = np.random.default_rng(11)
        saved = MaterializedView(SCHEMA, n_shards=saved_shards)
        for n_rows in (4, 0, 9):
            saved.append(random_delta(gen, n_rows))
        restored = MaterializedView(SCHEMA, n_shards=restored_shards)
        restored.append(random_delta(gen, 5))  # content the restore replaces
        restored.restore_state(view_state(saved))
        assert_counters_exact(restored)
        assert len(restored) == 13 and restored.byte_size == saved.byte_size

        cache = SecureCache(SCHEMA)
        cache.append(random_delta(gen, 3))
        version = cache.content_version
        cache.restore_state(saved.table)
        assert_cache_sizes_exact(cache)
        assert len(cache) == 13 and cache.byte_size == saved.byte_size
        assert cache.content_version > version

    def test_sizes_are_read_without_walking_the_chunks(self, monkeypatch):
        """500 one-row appends leave 500 chunks; reading the sizes must
        not touch one of them."""
        gen = np.random.default_rng(2)
        view = MaterializedView(SCHEMA)
        for _ in range(500):
            view.append(random_delta(gen, 1))
        touched = []
        monkeypatch.setattr(
            SharedTable, "byte_size", property(lambda self: touched.append("bytes"))
        )
        monkeypatch.setattr(
            SharedTable, "__len__", lambda self: touched.append("len") or 0
        )
        assert view.byte_size == 500 * (2 * 4 + 4)
        assert view.shard_lengths() == (500,)
        assert touched == []


class TestColumnShards:
    """The view's shards are zero-copy faces over buffers appended in place."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_table_equals_the_gather_of_the_row_major_reference(self, n_shards):
        gen = np.random.default_rng(n_shards)
        view = MaterializedView(SCHEMA, n_shards=n_shards)
        deltas = [random_delta(gen, n) for n in (5, 0, 1, 300, 17)]
        for i, delta in enumerate(deltas):
            view.append(delta)
            # the row-major reference: shard s holds rows s, s + k, …
            reference = SharedTable.concat_all(deltas[: i + 1])
            for s, ours in enumerate(view.shards):
                theirs = reference.take(slice(s, None, n_shards))
                assert reveal(ours) == reveal(theirs)
        assert reveal(view.table) == reveal(SharedTable.concat_all(deltas))

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_held_shards_stay_an_exact_prefix_across_growth(self, n_shards):
        """Appends land past a held face's length; a growth moves the
        shard into fresh buffers and leaves the held ones alone."""
        gen = np.random.default_rng(5)
        view = MaterializedView(SCHEMA, n_shards=n_shards)
        view.append(random_delta(gen, 9))
        held = view.shards
        before = [reveal(t) for t in held]
        buffers = {id(t.rows.share0.base) for t in held}
        grew = False
        for _ in range(12):
            view.append(random_delta(gen, 150))
            grew |= not buffers & {id(t.rows.share0.base) for t in view.shards}
            assert [reveal(t) for t in held] == before
            assert [len(t) for t in held] == [len(b[1]) for b in before]
        assert grew, "the scenario must cross at least one buffer growth"
        # ...and the live shards continue the held ones.
        for old, new in zip(before, view.shards):
            rows, flags = reveal(new)
            assert (rows[: len(old[0])], flags[: len(old[1])]) == old

    def test_shards_are_faces_not_copies(self):
        view = MaterializedView(SCHEMA, n_shards=2)
        view.append(random_delta(np.random.default_rng(1), 40))
        first, second = view.shards, view.shards
        for a, b in zip(first, second):
            assert np.shares_memory(a.rows.share0, b.rows.share0)
            assert np.shares_memory(a.flags.share1, b.flags.share1)
            # column-major: each column of a share half is one run
            assert a.rows.share0[:, 0].flags.c_contiguous
            assert a.rows.share1[:, 1].flags.c_contiguous

    def test_version_and_epoch_move_as_documented(self):
        gen = np.random.default_rng(2)
        view = MaterializedView(SCHEMA, n_shards=2)
        cache = SecureCache(SCHEMA)
        version, epoch = view.content_version, view.append_epoch
        for n_rows in (3, 0, 4):  # appends: a version each, same epoch
            view.append(random_delta(gen, n_rows))
            cache.append(random_delta(gen, n_rows))
            version += 1
            assert view.content_version == version
            assert cache.content_version == version
            assert view.append_epoch == epoch
        view.reshard(3)  # clear + re-place
        assert view.content_version == version + 2
        assert view.append_epoch == epoch + 1
        version, epoch = view.content_version, view.append_epoch
        view.restore_state(view_state(view))  # same shard count
        assert view.content_version > version and view.append_epoch == epoch + 1
        other = MaterializedView(SCHEMA, n_shards=2)
        other.append(random_delta(gen, 5))
        epoch = view.append_epoch
        view.restore_state(view_state(other))  # another shard count
        assert view.append_epoch == epoch + 1 and len(view) == 5
        with MPCRuntime(seed=0).protocol("flush") as ctx:
            version = cache.content_version
            cache.sorted_read(ctx, 2)
        assert cache.content_version > version and len(cache) == 5

    @pytest.mark.parametrize("saved_shards, restored_shards", [(3, 3), (3, 2), (1, 4)])
    def test_restore_then_append_continues_the_round_robin(
        self, saved_shards, restored_shards
    ):
        gen = np.random.default_rng(13)
        deltas = [random_delta(gen, n) for n in (4, 7, 2)]
        saved = MaterializedView(SCHEMA, n_shards=saved_shards)
        for delta in deltas[:2]:
            saved.append(delta)
        restored = MaterializedView(SCHEMA, n_shards=restored_shards)
        restored.restore_state(view_state(saved))
        restored.append(deltas[2])
        assert_counters_exact(restored)
        assert reveal(restored.table) == reveal(SharedTable.concat_all(deltas))
        # the donor is untouched by the append into the restored copy
        assert reveal(saved.table) == reveal(SharedTable.concat_all(deltas[:2]))
