"""Secret-shared containers the servers store and the protocols manipulate.

A :class:`SharedArray` is the pair of XOR shares of a ``uint32`` array —
one share held (conceptually) by each server.  A :class:`SharedTable`
bundles a shared row matrix with a shared ``is_real``/``isView`` flag
column and a plaintext :class:`~repro.common.types.Schema` (schemas are
public metadata in the paper's model; only the *data* is hidden).

These containers deliberately expose **no plaintext accessor**: recovery
goes through :meth:`repro.mpc.runtime.MPCRuntime.reveal`, which enforces
that recombination only happens inside a protocol scope.  Structural
operations that a real MPC deployment performs share-locally (concatenate,
slice, apply a public permutation) are provided directly because they
touch each share independently and leak nothing beyond public lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.errors import ProtocolError, SchemaError
from ..common.rng import random_ring_elements
from ..common.types import Schema
from .xor_sharing import recover_array, share_array

#: Bytes each secret-shared ring element occupies on one server.
WORD_BYTES = 4


@dataclass
class SharedArray:
    """XOR shares of an integer array (any shape), one per server."""

    share0: np.ndarray
    share1: np.ndarray

    def __post_init__(self) -> None:
        self.share0 = np.asarray(self.share0, dtype=np.uint32)
        self.share1 = np.asarray(self.share1, dtype=np.uint32)
        if self.share0.shape != self.share1.shape:
            raise ProtocolError("share halves must have identical shapes")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_plain(cls, values: np.ndarray, gen: np.random.Generator) -> "SharedArray":
        """Share a plaintext array (an owner-side or in-protocol action)."""
        s0, s1 = share_array(np.asarray(values), gen)
        return cls(s0, s1)

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "SharedArray":
        z = np.zeros(shape, dtype=np.uint32)
        return cls(z, z.copy())

    @classmethod
    def wrap(cls, share0: np.ndarray, share1: np.ndarray) -> "SharedArray":
        """Pair two halves that are ``uint32`` arrays of one shape by
        construction — share-local slices and copies of checked shares,
        or a re-share's fresh buffers — without checking them again."""
        out = object.__new__(cls)
        out.share0 = share0
        out.share1 = share1
        return out

    # -- public structure -----------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.share0.shape

    def __len__(self) -> int:
        return len(self.share0)

    @property
    def byte_size(self) -> int:
        """Bytes of ciphertext held per server."""
        return int(self.share0.size) * WORD_BYTES

    # -- share-local structural ops (leak only public lengths) ----------
    def concat(self, other: "SharedArray") -> "SharedArray":
        return SharedArray.concat_all([self, other])

    @classmethod
    def concat_all(cls, arrays: Sequence["SharedArray"]) -> "SharedArray":
        """Concatenate many shared arrays in one pass per share half.

        One :func:`np.concatenate` per half, however many inputs — the
        pairwise chain ``a.concat(b).concat(c)…`` recopies every prefix
        and is quadratic in the total length, which made it a hot spot on
        cache reads and on the shard-gather path.
        """
        if not arrays:
            raise ProtocolError("cannot concat zero shared arrays")
        if len(arrays) == 1:
            return arrays[0]
        return cls.wrap(
            np.concatenate([a.share0 for a in arrays]),
            np.concatenate([a.share1 for a in arrays]),
        )

    def take(self, index: np.ndarray | slice) -> "SharedArray":
        """Select rows by a *public* index or slice.

        Oblivious protocols only ever call this with data-independent
        indices (a prefix cut after an oblivious sort, a public
        permutation), so using it never widens the leakage surface.
        """
        return SharedArray.wrap(self.share0[index], self.share1[index])

    def _recover(self) -> np.ndarray:
        """Recombine shares.  Internal: only the MPC runtime calls this."""
        return recover_array(self.share0, self.share1)


@dataclass
class SharedTable:
    """A secret-shared relation: shared rows + shared reality flags.

    ``flags`` holds the ``isView``/``is_real`` bit of each row (stored as a
    full ring element, as it would be in a real garbled-circuit wire
    bundle).  The row count and schema are public; everything else is
    hidden.
    """

    schema: Schema
    rows: SharedArray
    flags: SharedArray

    def __post_init__(self) -> None:
        if self.rows.shape and len(self.rows.shape) != 2:
            raise SchemaError("shared rows must be a 2-D array")
        if self.rows.shape and self.rows.shape[1] != self.schema.width:
            raise SchemaError(
                f"shared rows width {self.rows.shape[1]} != schema width {self.schema.width}"
            )
        if len(self.flags) != len(self.rows):
            raise SchemaError("flag column length must match row count")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_plain(
        cls,
        schema: Schema,
        rows: np.ndarray,
        flags: np.ndarray,
        gen: np.random.Generator,
    ) -> "SharedTable":
        """Share a plaintext table with one draw from ``gen``.

        The mask covers the rows and then the flag column, so the shares
        (and ``gen`` afterwards) are what sharing the two arrays one after
        the other would give.
        """
        mask = random_ring_elements(gen, np.size(rows) + np.size(flags))
        return cls.from_mask(schema, rows, flags, mask)

    @classmethod
    def from_mask(
        cls,
        schema: Schema,
        rows: np.ndarray,
        flags: np.ndarray,
        mask: np.ndarray,
    ) -> "SharedTable":
        """Share ``rows`` and ``flags`` under an already drawn mask.

        ``mask`` holds ``rows.size + flags.size`` uniform words: the
        row mask is its head, the flag mask its tail, and each becomes
        share 0 of its column as it stands (no copy).
        """
        rows = np.ascontiguousarray(rows, dtype=np.uint32)
        if rows.ndim != 2:
            rows = rows.reshape(-1, schema.width)
        flags = np.ascontiguousarray(flags, dtype=np.uint32)
        row_mask = mask[: rows.size].reshape(rows.shape)
        flag_mask = mask[rows.size :].reshape(flags.shape)
        return cls(
            schema,
            SharedArray(row_mask, rows ^ row_mask),
            SharedArray(flag_mask, flags ^ flag_mask),
        )

    @classmethod
    def wrap(cls, schema: Schema, rows: SharedArray, flags: SharedArray) -> "SharedTable":
        """A table over shares that fit ``schema`` by construction (see
        :meth:`SharedArray.wrap`), without checking them again."""
        out = object.__new__(cls)
        out.schema = schema
        out.rows = rows
        out.flags = flags
        return out

    @classmethod
    def empty(cls, schema: Schema) -> "SharedTable":
        return cls(
            schema,
            SharedArray.empty((0, schema.width)),
            SharedArray.empty((0,)),
        )

    # -- public structure -----------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    @property
    def byte_size(self) -> int:
        """Per-server ciphertext bytes (rows plus flag column)."""
        return self.rows.byte_size + self.flags.byte_size

    def concat(self, other: "SharedTable") -> "SharedTable":
        if other.schema != self.schema:
            raise SchemaError("cannot concat shared tables with different schemas")
        return SharedTable(
            self.schema, self.rows.concat(other.rows), self.flags.concat(other.flags)
        )

    def take(self, index: np.ndarray | slice) -> "SharedTable":
        """Row selection by a public index/slice (see :meth:`SharedArray.take`)."""
        return SharedTable.wrap(self.schema, self.rows.take(index), self.flags.take(index))

    @classmethod
    def concat_all(cls, tables: Sequence["SharedTable"]) -> "SharedTable":
        """Concatenate many shared tables with one batched copy per half.

        Delegates to :meth:`SharedArray.concat_all`, so merging N tables
        costs one :func:`np.concatenate` per share half instead of the
        quadratic pairwise chain.
        """
        if not tables:
            raise SchemaError("cannot concat zero shared tables")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise SchemaError(
                    "cannot concat shared tables with different schemas"
                )
        if len(tables) == 1:
            return tables[0]
        return cls.wrap(
            schema,
            SharedArray.concat_all([t.rows for t in tables]),
            SharedArray.concat_all([t.flags for t in tables]),
        )
