"""Unit + property tests for XOR secret sharing and shared containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.errors import ProtocolError, SchemaError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.sharing.fixed_point import decode_fixed, encode_fixed
from repro.sharing.shared_value import SharedArray, SharedTable
from repro.sharing.xor_sharing import (
    recover_array,
    recover_array_k,
    reshare_from_contributions,
    share_array,
    share_array_k,
)

u32_arrays = hnp.arrays(
    dtype=np.uint32,
    shape=st.integers(0, 40),
    elements=st.integers(0, 2**32 - 1),
)


class TestXorSharing:
    @given(u32_arrays)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, values):
        s0, s1 = share_array(values, spawn(0, "t"))
        assert (recover_array(s0, s1) == values).all()

    def test_single_share_is_not_the_secret(self):
        values = np.arange(256, dtype=np.uint32)
        s0, s1 = share_array(values, spawn(1, "t"))
        # Uniform masking: a share matching the plaintext everywhere would
        # have probability 2^-8192; any match beyond a handful is a bug.
        assert (s0 == values).sum() < 8
        assert (s1 == values).sum() < 8

    def test_shares_differ_between_calls(self):
        values = np.arange(64, dtype=np.uint32)
        gen = spawn(2, "t")
        a0, _ = share_array(values, gen)
        b0, _ = share_array(values, gen)
        assert (a0 != b0).any()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ProtocolError):
            recover_array(np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.uint32))

    @given(u32_arrays, st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_k_of_k_roundtrip(self, values, k):
        shares = share_array_k(values, k, spawn(3, "t"))
        assert len(shares) == k
        assert (recover_array_k(shares) == values).all()

    def test_k_of_k_partial_shares_uniform(self):
        values = np.full(512, 42, dtype=np.uint32)
        shares = share_array_k(values, 3, spawn(4, "t"))
        # XOR of any strict subset should not reveal the constant secret.
        partial = shares[0] ^ shares[1]
        assert (partial == values).sum() < 8

    def test_k_below_two_rejected(self):
        with pytest.raises(ProtocolError):
            share_array_k(np.zeros(1, dtype=np.uint32), 1, spawn(0, "t"))

    def test_recover_needs_two_shares(self):
        with pytest.raises(ProtocolError):
            recover_array_k([np.zeros(1, dtype=np.uint32)])

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_reshare_from_contributions_recovers(self, value, z0, z1):
        def u32(x):
            return np.array([x], dtype=np.uint32)

        buffers = u32(z0), u32(z1)
        c0, c1 = reshare_from_contributions(u32(value), *buffers)
        assert int(c0[0]) ^ int(c1[0]) == value
        assert c0 is buffers[0] and c1 is buffers[1]  # written in place
        assert int(c0[0]) == z0 ^ z1

    def test_reshare_share0_independent_of_value(self):
        # c0 = z0 ^ z1 does not involve the secret at all.
        def contributions():
            return np.array([10], dtype=np.uint32), np.array([20], dtype=np.uint32)

        c0a, _ = reshare_from_contributions(np.uint32(1), *contributions())
        c0b, _ = reshare_from_contributions(np.uint32(999), *contributions())
        assert int(c0a[0]) == int(c0b[0])


class TestSharedArray:
    def test_from_plain_roundtrip(self):
        values = np.arange(12, dtype=np.uint32).reshape(3, 4)
        arr = SharedArray.from_plain(values, spawn(0, "t"))
        assert (arr._recover() == values).all()

    def test_concat_and_take(self):
        gen = spawn(1, "t")
        a = SharedArray.from_plain(np.asarray([1, 2], dtype=np.uint32), gen)
        b = SharedArray.from_plain(np.asarray([3], dtype=np.uint32), gen)
        merged = a.concat(b)
        assert len(merged) == 3
        assert (merged._recover() == [1, 2, 3]).all()
        assert (merged.take(slice(1, 3))._recover() == [2, 3]).all()

    def test_byte_size(self):
        arr = SharedArray.empty((5, 3))
        assert arr.byte_size == 5 * 3 * 4

    def test_mismatched_share_shapes_rejected(self):
        with pytest.raises(ProtocolError):
            SharedArray(np.zeros(2, dtype=np.uint32), np.zeros(3, dtype=np.uint32))


class TestSharedTable:
    def test_from_plain_shapes(self):
        schema = Schema(("a", "b"))
        t = SharedTable.from_plain(
            schema,
            np.asarray([[1, 2], [3, 4]], dtype=np.uint32),
            np.asarray([1, 0], dtype=np.uint32),
            spawn(0, "t"),
        )
        assert len(t) == 2
        assert t.byte_size == 2 * 2 * 4 + 2 * 4

    def test_schema_width_mismatch_raises(self):
        schema = Schema(("a",))
        with pytest.raises(SchemaError):
            SharedTable(
                schema,
                SharedArray.empty((2, 3)),
                SharedArray.empty((2,)),
            )

    def test_flag_length_mismatch_raises(self):
        schema = Schema(("a",))
        with pytest.raises(SchemaError):
            SharedTable(schema, SharedArray.empty((2, 1)), SharedArray.empty((3,)))

    def test_concat_requires_same_schema(self):
        t1 = SharedTable.empty(Schema(("a",)))
        t2 = SharedTable.empty(Schema(("b",)))
        with pytest.raises(SchemaError):
            t1.concat(t2)

    def test_concat_all(self):
        schema = Schema(("a",))
        gen = spawn(2, "t")
        tables = [
            SharedTable.from_plain(
                schema,
                np.asarray([[i]], dtype=np.uint32),
                np.asarray([1], dtype=np.uint32),
                gen,
            )
            for i in range(3)
        ]
        merged = SharedTable.concat_all(tables)
        assert len(merged) == 3

    def test_concat_all_empty_raises(self):
        with pytest.raises(SchemaError):
            SharedTable.concat_all([])

    def test_take_slice(self):
        schema = Schema(("a",))
        t = SharedTable.from_plain(
            schema,
            np.asarray([[1], [2], [3]], dtype=np.uint32),
            np.asarray([1, 1, 0], dtype=np.uint32),
            spawn(3, "t"),
        )
        assert len(t.take(slice(0, 2))) == 2


class TestFixedPoint:
    @given(st.floats(min_value=-30000, max_value=30000, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_within_resolution(self, x):
        # Resolution is 2^-FRACTION_BITS; max rounding error is half that.
        assert decode_fixed(encode_fixed(x)) == pytest.approx(x, abs=0.002)

    def test_out_of_range_raises(self):
        with pytest.raises(ProtocolError):
            encode_fixed(1e9)

    def test_nan_raises(self):
        with pytest.raises(ProtocolError):
            encode_fixed(float("nan"))

    def test_negative_values_supported(self):
        assert decode_fixed(encode_fixed(-1234.5)) == pytest.approx(-1234.5, abs=0.002)

    def test_range_covers_extreme_privacy_noise(self):
        """ε = 0.01 SVT thresholds (Lap scale 4b/ε ≈ 8000) must encode."""
        assert decode_fixed(encode_fixed(80_000.0)) == pytest.approx(80_000.0, abs=0.002)
