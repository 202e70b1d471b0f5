"""Server-side secret-shared storage of an outsourced table (DS).

Owners upload fixed-size, exhaustively padded batches at fixed intervals
(the paper's default record-synchronisation strategy).  The table keeps
them as one append-only **columnar log**: per server, one buffer of row
shares and one of flag shares, batch ``k`` being the rows
``[starts[k], starts[k + 1])`` uploaded at ``times[k]``.  Batch
boundaries, sizes, and times are public — that is the whole point of the
padded upload policy — so a batch, a run of batches (a Transform window)
and the whole log (the NM baseline's ``DS_t``) are zero-copy slices.

What is *not* public is which rows are real; that travels in the shared
flag column.  The contribution budget each row has spent is MPC-internal
state kept per transform group, in columns aligned to this log
(:class:`~repro.core.budget.ContributionLedger`).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ProtocolError, SchemaError
from ..common.types import Schema
from ..sharing.shared_value import WORD_BYTES, SharedArray, SharedTable
from .materialized_view import CAPACITY_FACTOR, MIN_CAPACITY_ROWS


def grown(array: np.ndarray, needed: int, keep: int) -> np.ndarray:
    """``array`` with room for ``needed`` entries along its first axis:
    itself if it has it, else a zero-filled copy of its first ``keep``
    with room to spare, as a view shard grows.

    Content is never overwritten — a growth moves into a fresh array — so
    a slice taken earlier keeps the entries it was taken over.
    """
    if needed <= len(array):
        return array
    capacity = CAPACITY_FACTOR * max(needed, MIN_CAPACITY_ROWS)
    new = np.zeros((capacity, *array.shape[1:]), dtype=array.dtype)
    new[:keep] = array[:keep]
    return new


class OutsourcedTable:
    """Append-only columnar log of one relation's uploaded batches."""

    def __init__(self, schema: Schema, name: str) -> None:
        self.schema = schema
        self.name = name
        # One (share 0, share 1) pair each, ``[:total_rows]`` the content.
        self._rows = (np.zeros((0, schema.width), np.uint32),) * 2
        self._flags = (np.zeros(0, np.uint32),) * 2
        self._starts = np.zeros(1, dtype=np.int64)
        self._times = np.zeros(0, dtype=np.int64)
        # Readers (the planner, on every query) take these two without a
        # lock: an append fills its rows and bounds first and publishes
        # the new counts last, so any count read has its content behind it.
        self.n_batches = 0
        self.total_rows = 0

    def append_batch(self, table: SharedTable, time: int) -> int:
        """Append one uploaded batch; returns its position in the log."""
        if table.schema != self.schema:
            raise SchemaError(
                f"batch schema {table.schema.fields} does not match table "
                f"{self.name!r} schema {self.schema.fields}"
            )
        n, lo = self.n_batches, self.total_rows
        if n and time <= self._times[n - 1]:
            raise ProtocolError(
                f"batch at time {time} of {self.name!r} does not follow its "
                f"last batch at {self._times[n - 1]}; uploads are ordered, "
                "one batch per table and time"
            )
        hi = lo + len(table)
        rows = tuple(grown(half, hi, lo) for half in self._rows)
        flags = tuple(grown(half, hi, lo) for half in self._flags)
        rows[0][lo:hi], rows[1][lo:hi] = table.rows.share0, table.rows.share1
        flags[0][lo:hi], flags[1][lo:hi] = table.flags.share0, table.flags.share1
        self._rows, self._flags = rows, flags
        self._times = grown(self._times, n + 1, n)
        self._starts = grown(self._starts, n + 2, n + 1)
        self._times[n] = time
        self._starts[n + 1] = hi
        self.total_rows = hi
        self.n_batches = n + 1
        return n

    # -- public structure --------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Upload time of every batch (a view)."""
        return self._times[: self.n_batches]

    @property
    def starts(self) -> np.ndarray:
        """Batch ``k`` is the rows ``[starts[k], starts[k + 1])`` (a view)."""
        return self._starts[: self.n_batches + 1]

    def batch_at(self, time: int) -> int | None:
        """Position of the batch uploaded at ``time``, if any."""
        times = self.times
        k = int(np.searchsorted(times, time, side="right")) - 1
        return k if k >= 0 and times[k] == time else None

    def window(self, lo: int, hi: int) -> SharedTable:
        """Batches ``[lo, hi)`` as one table — slices, no copy."""
        a, b = int(self._starts[lo]), int(self._starts[hi])
        (rows0, rows1), (flags0, flags1) = self._rows, self._flags
        return SharedTable(
            self.schema,
            SharedArray(rows0[a:b], rows1[a:b]),
            SharedArray(flags0[a:b], flags1[a:b]),
        )

    def batch(self, k: int) -> SharedTable:
        return self.window(k, k + 1)

    def full_table(self) -> SharedTable:
        """Every uploaded batch (the entire DS_t)."""
        return self.window(0, self.n_batches)

    @property
    def byte_size(self) -> int:
        """Per-server ciphertext bytes (rows plus flag column)."""
        return self.total_rows * (self.schema.width + 1) * WORD_BYTES

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> dict:
        """The log as columns: the live buffers, sliced to their content."""
        rows = self.total_rows
        return {
            "times": self.times,
            "lengths": np.diff(self.starts),
            "rows": tuple(half[:rows] for half in self._rows),
            "flags": tuple(half[:rows] for half in self._flags),
        }

    def restore_state(
        self,
        times: np.ndarray,
        lengths: np.ndarray,
        rows: tuple[np.ndarray, np.ndarray],
        flags: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Adopt previously snapshotted columns as the log's buffers; the
        caller has checked that ``lengths`` tile them."""
        if any(half.shape[1:] != (self.schema.width,) for half in rows):
            raise SchemaError(f"snapshot rows do not fit table {self.name!r}")
        self._rows, self._flags = tuple(rows), tuple(flags)
        self._times = np.asarray(times, dtype=np.int64)
        self._starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        self.total_rows = len(flags[0])
        self.n_batches = len(times)
