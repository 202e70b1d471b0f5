"""Server-side secret-shared storage of an outsourced table (DS).

Owners upload fixed-size, exhaustively padded batches at fixed intervals
(the paper's default record-synchronisation strategy); each batch is kept
as one :class:`~repro.sharing.shared_value.SharedTable` tagged with its
upload time.  Batch boundaries, sizes, and times are public — that is the
whole point of the padded upload policy.

What is *not* public is which rows are real; that travels in the shared
flag column.  Per-row lifetime emission counters (needed to enforce the
contribution budget ``b``) are MPC-internal state: a real deployment
carries them as extra shared columns, and we model that by storing them
beside the shares and only reading them inside protocol scopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ProtocolError, SchemaError
from ..common.types import Schema
from ..sharing.shared_value import SharedTable


@dataclass
class OutsourcedBatch:
    """One uploaded batch: shares plus budget bookkeeping."""

    time: int
    table: SharedTable
    #: number of Transform invocations this batch has participated in
    invocations_used: int = 0
    #: per-row lifetime view-entry emissions (MPC-internal shared state)
    emitted: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.emitted is None:
            self.emitted = np.zeros(len(self.table), dtype=np.int64)


class OutsourcedTable:
    """Append-only store of uploaded batches for one relation."""

    def __init__(self, schema: Schema, name: str) -> None:
        self.schema = schema
        self.name = name
        self.batches: list[OutsourcedBatch] = []
        # ``(n, rows, bytes)``: the totals over ``batches[:n]``.  The
        # planner reads them on every query and a stream is hundreds of
        # batches; counting on from the log's own length keeps a direct
        # ``batches.append`` correct.  One tuple, replaced whole, so
        # concurrent readers race only to store the same value.
        self._totals = (0, 0, 0)
        # ``(max_uses, n)``: ``batches[:n]`` are exhausted for a budget of
        # ``max_uses`` invocations.  Uploads are time-ordered and every
        # Transform run charges the whole active window, so exhausted
        # batches form a prefix; budget is never refunded, so the prefix
        # only grows and the active window is the suffix after it.
        self._exhausted = (0, 0)

    def append_batch(self, table: SharedTable, time: int) -> OutsourcedBatch:
        if table.schema != self.schema:
            raise SchemaError(
                f"batch schema {table.schema.fields} does not match table "
                f"{self.name!r} schema {self.schema.fields}"
            )
        if self.batches and time < self.batches[-1].time:
            raise ProtocolError(
                f"batch at time {time} precedes last batch at "
                f"{self.batches[-1].time}; uploads are ordered"
            )
        batch = OutsourcedBatch(time=time, table=table)
        self.batches.append(batch)
        return batch

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> list[dict]:
        """Per-batch persistable state, shares passed through by reference.

        The returned dicts carry the live :class:`SharedTable` objects —
        :mod:`repro.server.persistence` encodes them (and preserves the
        aliasing between the physical store and per-group budget scopes,
        which wrap the *same* share objects).
        """
        return [
            {
                "time": b.time,
                "table": b.table,
                "invocations_used": b.invocations_used,
                "emitted": b.emitted,
            }
            for b in self.batches
        ]

    def restore_state(self, entries: list[dict]) -> None:
        """Replace the batch log with previously snapshotted state."""
        restored: list[OutsourcedBatch] = []
        for e in entries:
            table: SharedTable = e["table"]
            if table.schema != self.schema:
                raise SchemaError(
                    f"snapshot batch schema {table.schema.fields} does not "
                    f"match table {self.name!r} schema {self.schema.fields}"
                )
            emitted = np.asarray(e["emitted"], dtype=np.int64)
            if len(emitted) != len(table):
                raise ProtocolError(
                    f"snapshot batch of {self.name!r} at t={e['time']} has "
                    f"{len(emitted)} emission counters for {len(table)} rows"
                )
            restored.append(
                OutsourcedBatch(
                    time=int(e["time"]),
                    table=table,
                    invocations_used=int(e["invocations_used"]),
                    emitted=emitted,
                )
            )
        self.batches = restored
        self._totals = (0, 0, 0)
        self._exhausted = (0, 0)

    # -- budget-aware access ------------------------------------------------
    def active_batches(self, omega: int, budget: int) -> list[OutsourcedBatch]:
        """Batches that still have contribution budget to spend.

        Each Transform invocation a batch participates in costs ω of its
        records' budget ``b`` (Section 5.1, "Contribution over time"), so
        a batch is usable while ``b - ω·uses ≥ ω``.  Because consumption
        is uniform per invocation, eligibility depends only on public
        upload times — using it leaks nothing.
        """
        if omega <= 0 or budget <= 0:
            raise ProtocolError("omega and budget must be positive")
        max_uses = budget // omega
        keyed, first = self._exhausted
        batches = self.batches
        n = len(batches)
        if keyed != max_uses or first > n:
            first = 0
        while first < n and batches[first].invocations_used >= max_uses:
            first += 1
        self._exhausted = (max_uses, first)
        window = batches[first:]
        # A log built by hand may hold an exhausted batch past the
        # prefix; the window is short, so looking costs O(window).
        if any(b.invocations_used >= max_uses for b in window[1:]):
            return [b for b in window if b.invocations_used < max_uses]
        return window

    def charge_invocation(self, batches: list[OutsourcedBatch], omega: int, budget: int) -> None:
        """Consume ω budget from every participating batch."""
        max_uses = budget // omega
        for b in batches:
            if b.invocations_used >= max_uses:
                raise ProtocolError(
                    f"batch at time {b.time} of {self.name!r} has exhausted "
                    "its contribution budget"
                )
            b.invocations_used += 1

    # -- whole-table access (NM baseline) ------------------------------------
    def full_table(self) -> SharedTable:
        """Concatenation of every uploaded batch (the entire DS_t)."""
        if not self.batches:
            return SharedTable.empty(self.schema)
        return SharedTable.concat_all([b.table for b in self.batches])

    def _current_totals(self) -> tuple[int, int]:
        counted, rows, size = self._totals
        n = len(self.batches)
        if counted != n:
            for b in self.batches[counted:n]:
                rows += len(b.table)
                size += b.table.byte_size
            self._totals = (n, rows, size)
        return rows, size

    @property
    def total_rows(self) -> int:
        return self._current_totals()[0]

    @property
    def byte_size(self) -> int:
        return self._current_totals()[1]
