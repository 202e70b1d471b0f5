"""Unit tests for schemas, rows, and record batches."""

import numpy as np
import pytest

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
