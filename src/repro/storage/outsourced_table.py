"""Server-side secret-shared storage of an outsourced table (DS).

Owners upload fixed-size, exhaustively padded batches at fixed intervals
(the paper's default record-synchronisation strategy).  The table keeps
them as two append-only logs (:class:`~repro.common.column_log.ColumnLog`):
a **batch log** of upload ``times`` (strictly increasing) and row
``lengths`` (which tile the row log), and a **row log** of one ``rows``
and one ``flags`` share column per server, batch ``k`` being the rows
``[starts[k], starts[k + 1])``.  Batch boundaries, sizes, and times are
public — that is the whole point of the padded upload policy — so a
batch, a run of batches (a Transform window) and the whole log (the NM
baseline's ``DS_t``) are zero-copy slices.

What is *not* public is which rows are real; that travels in the shared
flag column.  The contribution budget each row has spent is MPC-internal
state kept per transform group, in logs aligned to these two
(:class:`~repro.core.budget.ContributionLedger`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..common.column_log import Column, ColumnLog, Increasing, Tiles, starts_log
from ..common.errors import ProtocolError, SchemaError
from ..common.types import Schema
from ..sharing.shared_value import WORD_BYTES, SharedArray, SharedTable


class OutsourcedTable:
    """Append-only columnar log of one relation's uploaded batches."""

    def __init__(self, schema: Schema, name: str) -> None:
        self.schema = schema
        self.name = name
        row_words = (schema.width,)
        self.rows = ColumnLog(
            f"table {name!r} rows",
            [
                Column("rows.s0", np.uint32, row_words),
                Column("rows.s1", np.uint32, row_words),
                Column("flags.s0", np.uint32),
                Column("flags.s1", np.uint32),
            ],
        )
        self.batches = ColumnLog(
            f"table {name!r} batches",
            [
                Column("times", np.int64, invariants=(Increasing(),)),
                Column("lengths", np.int64, invariants=(Tiles(self.rows),)),
            ],
        )
        self._starts = starts_log(f"table {name!r} run starts", [])

    def append_batch(self, table: SharedTable, time: int) -> int:
        """Append one uploaded batch; returns its position in the log.

        The rows and their run start go first and the batch last, so a
        reader that takes the counts without a lock finds every batch it
        counts behind them.
        """
        if table.schema != self.schema:
            raise SchemaError(
                f"batch schema {table.schema.fields} does not match table "
                f"{self.name!r} schema {self.schema.fields}"
            )
        n = self.n_batches
        if n and time <= self.times[n - 1]:
            raise ProtocolError(
                f"batch at time {time} of {self.name!r} does not follow its "
                f"last batch at {self.times[n - 1]}; uploads are ordered, "
                "one batch per table and time"
            )
        rows, flags = table.rows, table.flags
        self.rows.append(rows.share0, rows.share1, flags.share0, flags.share1)
        self._starts.append_row(len(self.rows))
        self.batches.append_row(time, len(table))
        return n

    # -- public structure --------------------------------------------------
    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def total_rows(self) -> int:
        return len(self.rows)

    @property
    def times(self) -> np.ndarray:
        """Upload time of every batch (a view)."""
        return self.batches["times"]

    @property
    def starts(self) -> np.ndarray:
        """Batch ``k`` is the rows ``[starts[k], starts[k + 1])`` (a view)."""
        return self._starts["start"]

    def batch_at(self, time: int) -> int | None:
        """Position of the batch uploaded at ``time``, if any."""
        times = self.times
        k = int(np.searchsorted(times, time, side="right")) - 1
        return k if k >= 0 and times[k] == time else None

    def window(self, lo: int, hi: int) -> SharedTable:
        """Batches ``[lo, hi)`` as one table — slices, no copy."""
        starts = self.starts
        a, b = int(starts[lo]), int(starts[hi])
        rows = self.rows.view(b)
        return SharedTable.wrap(
            self.schema,
            SharedArray.wrap(rows["rows.s0"][a:], rows["rows.s1"][a:]),
            SharedArray.wrap(rows["flags.s0"][a:], rows["flags.s1"][a:]),
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
    def adopt(self, columns: Mapping) -> None:
        """Take both logs' columns (nested as the snapshot file nests
        them) as their buffers — the row log first, so the batch log's
        lengths are checked to tile it."""
        self.rows.adopt(columns)
        self.batches.adopt(columns)
        self._starts = starts_log(self._starts.name, self.batches["lengths"])
