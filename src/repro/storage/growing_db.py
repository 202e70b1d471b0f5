"""The logical growing database D = {u_i} (paper Section 4.1).

This is the *owners'* plaintext data, used for two things only:

* the owner side of the simulation reads it to produce upload batches;
* the experiment harness queries it for ground-truth answers so that the
  L1 error of the view-based answers can be measured.

The untrusted servers never see this object — their world consists of
secret shares in :mod:`repro.storage.outsourced_table` and friends.

Ground truth is a join over ``D_t``, and ``D_t`` only grows, so the join
is maintained the way the paper maintains its views: from the delta.
:meth:`GrowingDatabase.joined_at` keeps, per join signature, the joined
rows materialised up to a watermark and extends them by

    ΔP ⋈ D_old  ∪  (P_old ∪ ΔP) ⋈ ΔD

one step time at a time, with a ``(time, row count)`` checkpoint per
step: a query at the watermark does no join work, a query behind it is a
bisect and a prefix slice.  This mirror is evaluation apparatus held by
the process, like the accumulator cache: never snapshotted, rebuilt from
empty after :meth:`GrowingDatabase.restore_state`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..common.column_log import Column, ColumnLog, Increasing, Tiles, starts_log
from ..common.errors import SchemaError
from ..common.types import Schema

if TYPE_CHECKING:  # storage sits below core; the join spec is duck-typed
    from ..core.view_def import JoinViewDefinition

#: Join signatures kept materialised at once; the least recently queried
#: one is dropped beyond this (a dropped signature re-extends from empty).
MAX_JOIN_MIRRORS = 8


def _row_log(name: str, width: int) -> ColumnLog:
    return ColumnLog(name, [Column("rows", np.uint32, (width,))])


def _rows(log: ColumnLog, start: int, end: int) -> np.ndarray:
    """Rows ``[start, end)`` of a row log: a read-only view, which stays
    what it is while the log grows (see :class:`ColumnLog`)."""
    view = log["rows"][start:end]
    view.flags.writeable = False
    return view


class _TableLog:
    """One table's insertion log: a batch log of insertion ``times``
    (non-decreasing) and row ``lengths`` (which tile the row log), and
    the row log itself."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.schema = schema
        self.rows = _row_log(f"logical table {name!r} rows", schema.width)
        self.batches = ColumnLog(
            f"logical table {name!r} batches",
            [
                Column("times", np.int64, invariants=(Increasing(strict=False),)),
                Column("lengths", np.int64, invariants=(Tiles(self.rows),)),
            ],
        )
        self.starts = starts_log(f"logical table {name!r} run starts", [])

    def append(self, time: int, rows: np.ndarray) -> None:
        self.rows.append(rows)
        self.starts.append_row(len(self.rows))
        self.batches.append_row(time, len(rows))

    def adopt(self, columns: dict) -> None:
        self.rows.adopt(columns)
        self.batches.adopt(columns)
        self.starts = starts_log(self.starts.name, self.batches["lengths"])

    @property
    def times(self) -> np.ndarray:
        return self.batches["times"]

    def batches_through(self, time: int, lo: int = 0) -> int:
        """How many batches were inserted at or before ``time``."""
        return lo + int(np.searchsorted(self.times[lo:], time, side="right"))

    def rows_in(self, n_batches: int) -> int:
        """Row count of the first ``n_batches`` batches."""
        return int(self.starts["start"][n_batches])


@dataclass
class _JoinMirror:
    """Joined rows of one join signature, materialised up to a watermark."""

    rows: ColumnLog
    #: batches of each side already joined (always a prefix of the log)
    probe_batches: int = 0
    driver_batches: int = 0
    #: per consumed step, in non-decreasing time: joined rows through it
    times: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    #: database generation and highest query time this mirror last synced at
    generation: int = -1
    synced_time: int = 0


def _semi_join(rows: np.ndarray, key_col: int, keys: np.ndarray) -> np.ndarray:
    """The ``rows`` whose key occurs in the sorted, non-empty ``keys``."""
    own = rows[:, key_col]
    at = np.searchsorted(keys, own).clip(max=len(keys) - 1)
    return rows[keys[at] == own]


def _delta_join(
    spec: JoinViewDefinition, probe_rows: np.ndarray, driver_rows: np.ndarray
) -> np.ndarray:
    """``probe_rows ⋈ driver_rows`` when one side is a small delta.

    The larger side is first cut to the rows whose key the smaller side
    carries, so the join kernel sorts and pairs delta-sized inputs.
    """
    if len(probe_rows) == 0 or len(driver_rows) == 0:
        return spec.view_schema.empty_rows(0)
    if len(probe_rows) <= len(driver_rows):
        keys = np.sort(probe_rows[:, spec.probe_key_col])
        driver_rows = _semi_join(driver_rows, spec.driver_key_col, keys)
    else:
        keys = np.sort(driver_rows[:, spec.driver_key_col])
        probe_rows = _semi_join(probe_rows, spec.probe_key_col, keys)
    return spec.logical_join_rows(probe_rows, driver_rows)


class GrowingDatabase:
    """Insertion-only timestamped relational store.

    ``D_t`` — the instance at time ``t`` — is the union of all batches
    inserted at times ≤ t (Definition: D = {D_t}, D_t ⊆ D).

    Inserts and :meth:`restore_state` need exclusive access (the serving
    runtime's write lock); the read side, :meth:`joined_at` included, may
    run from many threads at once.
    """

    def __init__(self) -> None:
        self._tables: dict[str, _TableLog] = {}
        #: bumped by every insert — empty ones too, so it counts uploads
        #: and never says whether a padded batch held a real row
        self._generation = 0
        self._mirrors: OrderedDict[tuple, _JoinMirror] = OrderedDict()
        self._mirror_lock = threading.Lock()
        self._mirror_hits = 0
        self._mirror_extensions = 0

    def create_table(self, name: str, schema: Schema) -> None:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        self._tables[name] = _TableLog(name, schema)

    def schema(self, name: str) -> Schema:
        return self._log(name).schema

    def insert(self, time: int, name: str, rows: np.ndarray) -> None:
        """Append a batch of logical updates at time ``time``.

        Times must be non-decreasing per table — the database only grows.
        An empty batch changes no ``D_t`` and is not logged.
        """
        log = self._log(name)
        rows = np.asarray(rows, dtype=np.uint32)
        if rows.ndim != 2 or rows.shape[1] != log.schema.width:
            raise SchemaError(
                f"rows shape {rows.shape} does not match table {name!r} "
                f"schema width {log.schema.width}"
            )
        self._generation += 1
        if len(rows) == 0:
            return
        times = log.times
        if len(times) and time < times[-1]:
            raise SchemaError(
                f"insert at time {time} before last insert {times[-1]}: "
                "growing databases are insertion-only"
            )
        log.append(time, rows)

    # -- persistence hooks ----------------------------------------------------
    def restore_state(self, state: dict) -> None:
        """Refill already-created tables with their ``fields`` and the
        columns of their :meth:`table_logs` (plaintext — this is the
        owners' data).

        Drops every materialised join: a restored database starts cold.
        """
        for name, entry in state.items():
            log = self._log(name)
            if tuple(entry["fields"]) != log.schema.fields:
                raise SchemaError(
                    f"snapshot of logical table {name!r} has fields "
                    f"{tuple(entry['fields'])}, expected {log.schema.fields}"
                )
            restored = _TableLog(name, log.schema)
            restored.adopt(entry)
            self._tables[name] = restored
        with self._mirror_lock:
            self._generation += 1
            self._mirrors.clear()

    def instance_at(self, name: str, time: int) -> np.ndarray:
        """All rows of ``name`` inserted at or before ``time`` (D_t)."""
        log = self._log(name)
        return _rows(log.rows, 0, log.rows_in(log.batches_through(time)))

    def tables(self) -> list[str]:
        return list(self._tables)

    def table_logs(self) -> dict[str, tuple[ColumnLog, ColumnLog]]:
        """Each table's batch log and row log, whose columns a checkpoint
        writes."""
        return {name: (log.batches, log.rows) for name, log in self._tables.items()}

    def batch_log(self, name: str) -> ColumnLog:
        """The insertion ``times`` and row ``lengths`` of ``name``."""
        return self._log(name).batches

    # -- incrementally maintained join ----------------------------------------
    def joined_at(self, spec: JoinViewDefinition, time: int) -> np.ndarray:
        """Rows of the truncation-free join ``spec`` over ``D_time``.

        View-schema layout, read-only, in no particular order (every
        consumer folds them in the ring).  Work is proportional to the
        batches inserted at or before ``time`` that this join signature
        has not consumed yet; none when there are none.
        """
        signature = spec.join_signature
        with self._mirror_lock:
            mirror = self._mirrors.get(signature)
            if mirror is None:
                mirror = _JoinMirror(_row_log("join mirror", spec.view_schema.width))
                self._mirrors[signature] = mirror
                if len(self._mirrors) > MAX_JOIN_MIRRORS:
                    self._mirrors.popitem(last=False)
            else:
                self._mirrors.move_to_end(signature)
            if mirror.generation == self._generation and time <= mirror.synced_time:
                self._mirror_hits += 1
            else:
                self._mirror_extensions += 1
                self._extend(mirror, spec, time)
                mirror.generation, mirror.synced_time = self._generation, time
            steps = bisect_right(mirror.times, time)
            return _rows(mirror.rows, 0, mirror.counts[steps - 1] if steps else 0)

    def join_mirror_stats(self) -> dict:
        """Gauges of the join mirror — functions of upload and query counts.

        Deliberately no row counts: the true join cardinality is what
        Shrink's DP release hides.  ``hits`` are queries answered without
        looking at the insertion logs, ``extensions`` the ones that did
        (whether or not a batch was waiting).
        """
        with self._mirror_lock:
            return {
                "hits": self._mirror_hits,
                "extensions": self._mirror_extensions,
                "signatures": len(self._mirrors),
            }

    def _extend(
        self, mirror: _JoinMirror, spec: JoinViewDefinition, time: int
    ) -> None:
        """Consume the unjoined batches with ``t ≤ time``, one step at a time."""
        probe, driver = self._log(spec.probe_table), self._log(spec.driver_table)

        def pending() -> list[int]:
            return sorted(
                {
                    *probe.times[mirror.probe_batches : probe.batches_through(time)].tolist(),
                    *driver.times[mirror.driver_batches : driver.batches_through(time)].tolist(),
                }
            )

        steps = pending()
        if steps and mirror.times and steps[0] < mirror.times[-1]:
            # The tables' clocks are independent: a batch landed behind
            # the watermark, so joined prefixes no longer nest by time.
            mirror.rows = _row_log("join mirror", spec.view_schema.width)
            mirror.probe_batches = mirror.driver_batches = 0
            mirror.times, mirror.counts = [], []
            steps = pending()
        for step in steps:
            # Row offsets of each side before and after this step's batches.
            p_old = probe.rows_in(mirror.probe_batches)
            d_old = driver.rows_in(mirror.driver_batches)
            mirror.probe_batches = probe.batches_through(step, mirror.probe_batches)
            mirror.driver_batches = driver.batches_through(step, mirror.driver_batches)
            p_new = probe.rows_in(mirror.probe_batches)
            d_new = driver.rows_in(mirror.driver_batches)
            mirror.rows.append(  # ΔP ⋈ D_old
                _delta_join(
                    spec, _rows(probe.rows, p_old, p_new), _rows(driver.rows, 0, d_old)
                )
            )
            mirror.rows.append(  # (P_old ∪ ΔP) ⋈ ΔD
                _delta_join(
                    spec, _rows(probe.rows, 0, p_new), _rows(driver.rows, d_old, d_new)
                )
            )
            # A step consumed twice (a second insert at its time) leaves two
            # checkpoints; bisect_right finds the later one.
            mirror.times.append(step)
            mirror.counts.append(len(mirror.rows))

    def _log(self, name: str) -> _TableLog:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None
