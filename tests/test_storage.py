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
from repro.storage.outsourced_table import OutsourcedBatch, OutsourcedTable
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
        assert db.count_at("t", 3) == 2

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
        they must follow ``append_batch``, a direct list append and a
        ``restore_state`` (to fewer rows) alike."""

        def recomputed(t):
            return (
                sum(len(b.table) for b in t.batches),
                sum(b.table.byte_size for b in t.batches),
            )

        table = OutsourcedTable(SCHEMA, "t")
        assert (table.total_rows, table.byte_size) == (0, 0)
        for time in range(1, 4):
            table.append_batch(shared([[time, time]] * time, [1] * time), time=time)
            assert (table.total_rows, table.byte_size) == recomputed(table)
        table.batches.append(OutsourcedBatch(time=4, table=shared([[4, 4]], [1])))
        assert table.total_rows == 7
        assert (table.total_rows, table.byte_size) == recomputed(table)
        state = table.snapshot_state()[:2]
        table.restore_state(state)
        assert table.total_rows == 3
        assert (table.total_rows, table.byte_size) == recomputed(table)
        table.append_batch(shared([[5, 5]], [1]), time=5)
        assert (table.total_rows, table.byte_size) == recomputed(table)

    def test_out_of_order_batch_rejected(self):
        table = OutsourcedTable(SCHEMA, "t")
        table.append_batch(shared([[1, 5]], [1]), time=5)
        with pytest.raises(ProtocolError, match="ordered"):
            table.append_batch(shared([[1, 4]], [1]), time=4)

    def test_schema_mismatch_rejected(self):
        table = OutsourcedTable(Schema(("other",)), "t")
        with pytest.raises(SchemaError):
            table.append_batch(shared([[1, 1]], [1]), time=1)

    def test_active_window_slides_with_budget(self):
        """With b=4 and ω=2, a batch survives exactly 2 invocations."""
        table = OutsourcedTable(SCHEMA, "t")
        b1 = table.append_batch(shared([[1, 1]], [1]), time=1)
        assert table.active_batches(2, 4) == [b1]
        table.charge_invocation([b1], 2, 4)
        assert table.active_batches(2, 4) == [b1]
        table.charge_invocation([b1], 2, 4)
        assert table.active_batches(2, 4) == []

    def test_charging_exhausted_batch_raises(self):
        table = OutsourcedTable(SCHEMA, "t")
        b1 = table.append_batch(shared([[1, 1]], [1]), time=1)
        table.charge_invocation([b1], 2, 2)
        with pytest.raises(ProtocolError, match="exhausted"):
            table.charge_invocation([b1], 2, 2)

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
        assert view.row_count == 2
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
