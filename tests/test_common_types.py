"""Unit tests for schemas, rows, and record batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.common.types import DUMMY_VALUE, RecordBatch, Schema, as_rows
from row_helpers import multiset, rows_to_tuples


class TestSchema:
    def test_width_counts_fields(self):
        assert Schema(("a", "b", "c")).width == 3

    def test_index_finds_position(self):
        s = Schema(("pid", "ts"))
        assert s.index("pid") == 0
        assert s.index("ts") == 1

    def test_index_missing_field_raises(self):
        with pytest.raises(SchemaError, match="no field"):
            Schema(("a",)).index("b")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(("a", "a"))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_concat_prefixes_disambiguate(self):
        left = Schema(("key", "ts"))
        right = Schema(("key", "ts"))
        joined = left.concat(right, prefix_self="l_", prefix_other="r_")
        assert joined.fields == ("l_key", "l_ts", "r_key", "r_ts")

    def test_concat_without_prefix_collision_raises(self):
        s = Schema(("key",))
        with pytest.raises(SchemaError, match="duplicate"):
            s.concat(s)

    def test_empty_rows_shape_and_value(self):
        rows = Schema(("a", "b")).empty_rows(3)
        assert rows.shape == (3, 2)
        assert (rows == DUMMY_VALUE).all()
        assert rows.dtype == np.uint32


class TestAsRows:
    def test_coerces_lists(self):
        s = Schema(("a", "b"))
        arr = as_rows(s, [[1, 2], [3, 4]])
        assert arr.dtype == np.uint32
        assert arr.shape == (2, 2)

    def test_single_row_reshaped(self):
        s = Schema(("a", "b"))
        assert as_rows(s, np.asarray([1, 2])).shape == (1, 2)

    def test_wrong_width_raises(self):
        with pytest.raises(SchemaError, match="width"):
            as_rows(Schema(("a",)), [[1, 2]])

    def test_value_overflow_raises(self):
        with pytest.raises(SchemaError, match="32 bits"):
            as_rows(Schema(("a",)), [[1 << 33]])

    def test_empty_input_ok(self):
        assert as_rows(Schema(("a", "b")), []).shape == (0, 2)


class TestRecordBatch:
    def test_defaults_all_real(self):
        b = RecordBatch(Schema(("a",)), [[1], [2]])
        assert b.real_count == 2
        assert len(b) == 2

    def test_real_rows_filters_dummies(self):
        b = RecordBatch(
            Schema(("a",)), [[1], [2], [0]], np.asarray([True, True, False])
        )
        assert b.real_count == 2
        assert rows_to_tuples(b.real_rows()) == [(1,), (2,)]

    def test_padded_to_adds_dummies(self):
        b = RecordBatch(Schema(("a",)), [[7]]).padded_to(4)
        assert len(b) == 4
        assert b.real_count == 1
        assert not b.is_real[1:].any()

    def test_padded_to_smaller_raises(self):
        b = RecordBatch(Schema(("a",)), [[1], [2]])
        with pytest.raises(SchemaError, match="pad"):
            b.padded_to(1)

    def test_flag_length_mismatch_raises(self):
        with pytest.raises(SchemaError, match="is_real"):
            RecordBatch(Schema(("a",)), [[1]], np.asarray([True, False]))

    def test_column_access(self):
        b = RecordBatch(Schema(("x", "y")), [[1, 10], [2, 20]])
        assert list(b.column("y")) == [10, 20]

    def test_concat_merges_flags(self):
        s = Schema(("a",))
        b1 = RecordBatch(s, [[1]]).padded_to(2)
        b2 = RecordBatch(s, [[2]])
        merged = RecordBatch.concat([b1, b2])
        assert len(merged) == 3
        assert merged.real_count == 2

    def test_concat_mismatched_schema_raises(self):
        b1 = RecordBatch(Schema(("a",)), [[1]])
        b2 = RecordBatch(Schema(("b",)), [[1]])
        with pytest.raises(SchemaError):
            RecordBatch.concat([b1, b2])

    def test_concat_empty_list_raises(self):
        with pytest.raises(SchemaError):
            RecordBatch.concat([])

    def test_empty_constructor(self):
        b = RecordBatch.empty(Schema(("a", "b")))
        assert len(b) == 0
        assert b.real_count == 0


class TestMultiset:
    def test_counts_duplicates(self):
        rows = np.asarray([[1, 2], [1, 2], [3, 4]], dtype=np.uint32)
        ms = multiset(rows)
        assert ms[(1, 2)] == 2
        assert ms[(3, 4)] == 1

    def test_empty(self):
        assert multiset(np.zeros((0, 2), dtype=np.uint32)) == {}


def _reference_as_rows(schema, rows):
    """``as_rows`` before its ``uint32`` fast path: every input through a
    ``uint64`` round trip and a range scan."""
    arr = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.uint64)
    if arr.size == 0:
        return schema.empty_rows(0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != schema.width:
        raise SchemaError(f"rows of shape {arr.shape} do not match schema width {schema.width}")
    if (arr >= (1 << 32)).any():
        raise SchemaError("row values must fit in 32 bits (ring Z_2^32)")
    return arr.astype(np.uint32)


class TestUint32FastPath:
    """A 2-D ``uint32`` array of the schema's width is copied, not re-checked;
    the result is the one the ``uint64`` round trip gave."""

    @given(
        width=st.integers(1, 4),
        n=st.integers(0, 9),
        fortran=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_returns_an_equal_copy_that_does_not_alias(self, width, n, fortran, data):
        values = data.draw(
            st.lists(st.integers(0, (1 << 32) - 1), min_size=n * width, max_size=n * width)
        )
        rows = np.array(values, dtype=np.uint32).reshape(n, width)
        if fortran:
            rows = np.asfortranarray(rows)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        out = as_rows(schema, rows)
        want = _reference_as_rows(schema, rows)
        assert out.dtype == np.uint32 and out.shape == want.shape
        assert np.array_equal(out, want)
        assert out.flags.c_contiguous == want.flags.c_contiguous
        assert not np.shares_memory(out, rows)
        if n:
            rows[0, 0] ^= 1
            assert out[0, 0] != rows[0, 0]

    def test_a_strided_view_is_copied_whole(self):
        rows = np.arange(24, dtype=np.uint32).reshape(6, 4)[::2, 1:3]
        out = as_rows(Schema(("a", "b")), rows)
        assert np.array_equal(out, rows) and not np.shares_memory(out, rows)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (2, 3, 2)])
    def test_wrong_width_is_refused_with_the_same_error(self, shape):
        schema = Schema(("a", "b"))
        rows = np.zeros(shape, dtype=np.uint32)
        with pytest.raises(SchemaError) as got:
            as_rows(schema, rows)
        with pytest.raises(SchemaError) as want:
            _reference_as_rows(schema, rows)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_a_value_past_32_bits_in_a_wider_dtype_is_refused(self, dtype):
        rows = np.array([[1, 2], [3, 1 << 32]], dtype=dtype)
        with pytest.raises(SchemaError, match="must fit in 32 bits"):
            as_rows(Schema(("a", "b")), rows)
        with pytest.raises(SchemaError, match="must fit in 32 bits"):
            RecordBatch(Schema(("a", "b")), rows)

    @given(
        n=st.integers(0, 6),
        extra=st.integers(0, 5),
        flags=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_padded_to_equals_the_vstack_construction(self, n, extra, flags):
        schema = Schema(("a", "b", "c"))
        rows = np.arange(n * 3, dtype=np.uint32).reshape(n, 3) + 7
        batch = RecordBatch(schema, rows, np.array(flags[:n], dtype=bool))
        padded = batch.padded_to(n + extra)
        want = RecordBatch(
            schema,
            np.vstack([batch.rows, schema.empty_rows(extra)]),
            np.concatenate([batch.is_real, np.zeros(extra, dtype=bool)]),
        )
        assert type(padded) is RecordBatch and padded.schema == schema
        assert padded.rows.dtype == np.uint32 and padded.is_real.dtype == bool
        assert np.array_equal(padded.rows, want.rows)
        assert np.array_equal(padded.is_real, want.is_real)
        assert padded.rows.flags.c_contiguous
        assert not np.shares_memory(padded.rows, batch.rows)
        assert not np.shares_memory(padded.is_real, batch.is_real)
