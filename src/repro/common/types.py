"""Plaintext relational building blocks: schemas, rows, and batches.

Every value in the system is an element of the ring Z_{2^32} (the paper
secret-shares 32-bit words), so rows are fixed-width ``uint32`` vectors
and a table is a 2-D ``uint32`` array plus a schema naming its columns.

Plaintext tables exist in two places only:

* inside the *data owners* (who generate and upload data), and
* inside the *logical* ground-truth database used to score query accuracy.

Everything the servers hold is secret-shared (see :mod:`repro.sharing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError

#: Sentinel value used in padding/dummy rows.  Dummies are additionally
#: marked by an explicit ``is_real`` flag column; the sentinel merely makes
#: accidental use of dummy payloads visible in debugging.
DUMMY_VALUE = 0


@dataclass(frozen=True)
class Schema:
    """An ordered set of named ``uint32`` columns.

    >>> s = Schema(("pid", "sale_date"))
    >>> s.width
    2
    >>> s.index("sale_date")
    1
    """

    fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.fields)) != len(self.fields):
            raise SchemaError(f"duplicate field names in {self.fields!r}")
        if not self.fields:
            raise SchemaError("schema must have at least one field")

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.fields)

    def index(self, name: str) -> int:
        """Column position of ``name`` (raises :class:`SchemaError` if absent)."""
        try:
            return self.fields.index(name)
        except ValueError:
            raise SchemaError(f"no field {name!r} in schema {self.fields!r}") from None

    def has(self, name: str) -> bool:
        return name in self.fields

    def concat(self, other: "Schema", prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Schema of a join output: this schema's fields then ``other``'s.

        Optional prefixes disambiguate identically named columns, which is
        required when joining a table with itself or when both inputs share
        a column name.
        """
        left = tuple(prefix_self + f for f in self.fields)
        right = tuple(prefix_other + f for f in other.fields)
        return Schema(left + right)

    def empty_rows(self, n: int = 0) -> np.ndarray:
        """An ``(n, width)`` array of dummy-valued rows."""
        return np.full((n, self.width), DUMMY_VALUE, dtype=np.uint32)


def as_rows(schema: Schema, rows: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Validate and coerce ``rows`` into an ``(n, width)`` ``uint32`` array."""
    arr = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.uint64)
    if arr.size == 0:
        return schema.empty_rows(0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != schema.width:
        raise SchemaError(
            f"rows of shape {arr.shape} do not match schema width {schema.width}"
        )
    if (arr >= (1 << 32)).any():
        raise SchemaError("row values must fit in 32 bits (ring Z_2^32)")
    return arr.astype(np.uint32)


@dataclass
class RecordBatch:
    """A batch of rows plus per-row reality flags.

    ``is_real[i]`` is False for padding rows.  Owners upload fixed-size
    batches padded with dummies; the flag column is secret-shared alongside
    the payload so the servers never learn how many rows are real.
    """

    schema: Schema
    rows: np.ndarray
    is_real: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.rows = as_rows(self.schema, self.rows)
        if self.is_real is None:
            self.is_real = np.ones(len(self.rows), dtype=bool)
        else:
            self.is_real = np.asarray(self.is_real, dtype=bool)
        if self.is_real.ndim != 1:
            raise SchemaError(
                f"is_real must be one-dimensional, got shape {self.is_real.shape}"
            )
        if len(self.is_real) != len(self.rows):
            raise SchemaError("is_real length does not match row count")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def real_count(self) -> int:
        """Number of non-dummy rows."""
        return int(self.is_real.sum())

    def real_rows(self) -> np.ndarray:
        return self.rows[self.is_real]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.index(name)]

    def padded_to(self, size: int) -> "RecordBatch":
        """Return a copy padded with dummy rows up to ``size`` rows.

        This is the owner-side exhaustive padding step: uploads always have
        a data-independent size.
        """
        if size < len(self.rows):
            raise SchemaError(
                f"cannot pad batch of {len(self.rows)} rows down to {size}"
            )
        pad = size - len(self.rows)
        rows = np.vstack([self.rows, self.schema.empty_rows(pad)])
        flags = np.concatenate([self.is_real, np.zeros(pad, dtype=bool)])
        return RecordBatch(self.schema, rows, flags)

    @classmethod
    def empty(cls, schema: Schema) -> "RecordBatch":
        return cls(schema, schema.empty_rows(0), np.zeros(0, dtype=bool))

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches that share a schema."""
        if not batches:
            raise SchemaError("cannot concat zero batches")
        schema = batches[0].schema
        for b in batches[1:]:
            if b.schema != schema:
                raise SchemaError("cannot concat batches with different schemas")
        rows = np.vstack([b.rows for b in batches])
        flags = np.concatenate([b.is_real for b in batches])
        return cls(schema, rows, flags)


@dataclass(frozen=True)
class Update:
    """A single timestamped logical update (insertion) to a growing DB."""

    time: int
    table: str
    row: tuple[int, ...]


def rows_to_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Convert a row array to hashable tuples (useful for set comparisons)."""
    return [tuple(int(v) for v in r) for r in rows]


def multiset(rows: np.ndarray) -> Mapping[tuple[int, ...], int]:
    """Multiset view of a row array, for order-insensitive equality checks."""
    out: dict[tuple[int, ...], int] = {}
    for t in rows_to_tuples(rows):
        out[t] = out.get(t, 0) + 1
    return out
