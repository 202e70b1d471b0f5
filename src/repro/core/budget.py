"""Contribution-budget ledger (paper KI-3 and Section 5.1).

Two invariants implement the paper's bounded-stability design:

* **Invocation budget** — a record (batch) may participate as Transform
  input at most ``b // ω`` times; every participation consumes ω
  regardless of whether real join entries were produced.  Consumption is
  uniform per invocation, so it is tracked per batch.
* **Emission cap** — a record contributes at most ω output rows per
  invocation and at most ``b`` rows over its lifetime (Eq. 3 plus
  Theorem 3's finite-contribution requirement).

One :class:`ContributionLedger` holds a transform group's budget, per
table the group reads, as two logs
(:class:`~repro.common.column_log.ColumnLog`) aligned to that table's
upload logs (:class:`~repro.storage.outsourced_table.OutsourcedTable`):
``uses`` (in ``0..b // ω``) and the times of each batch's
``invocations`` per batch, ``emitted`` (in ``0..b``) per row.  They are
padded to the table's logs when next read — a batch uploaded since has
spent nothing.  Every Transform run charges the whole active window, a
suffix of the probe log, so uses never increase along the log and the
exhausted batches form a prefix: the window is ``[first, n)``, and it is
revealed, capped and settled as one slice.  A restore adopts the columns
once each log keeps its declared invariants and the matrix relates to
them row by row as a stream leaves it
(:meth:`ContributionLedger.restore_state`).

The ledger also exports a per-record contribution map in the form
Theorem 3 wants, so the privacy accountant can compute the realised
end-to-end ε — and keeps the one entry of that map that attains the
theorem's maximum *running* (:meth:`ContributionLedger.worst_contributions`),
because the map itself has an entry per record ever uploaded.
"""

from __future__ import annotations

import sys
from typing import Hashable

import numpy as np

from ..common.column_log import Column, ColumnLog, InRange
from ..common.errors import ContributionBudgetError, PersistenceError
from ..storage.outsourced_table import OutsourcedTable

#: The order a table's budget columns are written in.
_COLUMN_ORDER = ("uses", "emitted", "invocations")


class _LogBudget:
    """One table's budget columns, aligned to its upload logs."""

    __slots__ = ("log", "batches", "rows", "first", "charged")

    def __init__(self, log: OutsourcedTable, max_uses: int, budget: int) -> None:
        self.log = log
        self.batches = ColumnLog(
            f"table {log.name!r} batch budget",
            [
                #: invocations each batch took part in
                Column("uses", np.int64, invariants=(InRange(0, max_uses),)),
                #: row ``k``: the times of batch ``k``'s first ``uses[k]`` invocations
                Column("invocations", np.int64, (max_uses,)),
            ],
            aligned_to=log.batches,
        )
        self.rows = ColumnLog(
            f"table {log.name!r} row budget",
            #: lifetime view entries each row emitted (MPC-internal state)
            [Column("emitted", np.int64, invariants=(InRange(0, budget),))],
            aligned_to=log.rows,
        )
        #: batches ``[:first]`` are exhausted
        self.first = 0
        #: per checkpoint chain: the first batch charged since it last asked
        self.charged: dict = {}

    def synced(self) -> "_LogBudget":
        """These columns, padded to cover every batch of the log (whose
        rows are in before its batch count moves)."""
        log = self.log
        if len(self.batches) != len(log.batches):
            self.batches.pad(len(log.batches))
            self.rows.pad(len(log.rows))
        return self

    # Faces of the logs' buffers, which a charge writes in place.
    @property
    def uses(self) -> np.ndarray:
        return self.batches["uses"]

    @property
    def invocations(self) -> np.ndarray:
        return self.batches["invocations"]

    @property
    def emitted(self) -> np.ndarray:
        return self.rows["emitted"]


class Span:
    """One table's batches ``[lo, hi)`` in a ledger, sliced once: what a
    Transform run reads caps from and then settles.  Use it before the
    table's next upload (an upload may move the columns)."""

    __slots__ = ("ledger", "side", "lo", "hi", "emitted")

    def __init__(self, ledger: "ContributionLedger", side: _LogBudget, lo: int, hi: int) -> None:
        self.ledger, self.side, self.lo, self.hi = ledger, side, lo, hi
        starts = side.log.starts
        #: the window's rows' lifetime emissions (a face of the column)
        self.emitted = side.emitted[starts[lo] : starts[hi]]

    @property
    def caps(self) -> np.ndarray:
        """Remaining lifetime emission allowance per row."""
        return np.maximum(self.ledger.budget - self.emitted, 0)

    def settle(self, at_time: int, counts: np.ndarray) -> None:
        """Charge one invocation at ``at_time`` to every batch and record
        ``counts`` — one per row — as their emissions.

        The checks are made **once** over the whole window.  A window that
        fails one is settled batch by batch instead, so the error raised —
        type, message, how far the window got — is the one charging each
        batch in turn raises.
        """
        ledger, side, lo, hi = self.ledger, self.side, self.lo, self.hi
        for key, first in side.charged.items():
            if lo < first:
                side.charged[key] = lo
        emitted = self.emitted
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != emitted.shape:
            raise ContributionBudgetError(
                f"emission count shape {counts.shape} != window rows "
                f"{emitted.shape}"
            )
        uses, totals = side.uses[lo:hi], emitted + counts
        if (
            np.count_nonzero(uses >= ledger.max_uses)
            or np.count_nonzero(counts > ledger.omega)
            or np.count_nonzero(totals > ledger.budget)
        ):
            ledger._settle_batch_by_batch(side, lo, hi, at_time, counts)
            return
        side.invocations[np.arange(lo, hi), uses] = at_time
        uses += 1
        emitted[:] = totals
        ledger._note_uses(side, lo, hi)


class ContributionLedger:
    """Tracks per-record lifetime contributions for one transform group."""

    def __init__(
        self, omega: int, budget: int, logs: tuple[OutsourcedTable, ...]
    ) -> None:
        if omega <= 0 or budget < omega:
            raise ContributionBudgetError(
                f"need 0 < omega <= budget, got omega={omega}, budget={budget}"
            )
        self.omega = omega
        self.budget = budget
        self.max_uses = budget // omega
        self._logs = {log.name: _LogBudget(log, self.max_uses, budget) for log in logs}
        if len(self._logs) != len(logs):
            raise ContributionBudgetError("a ledger's tables must be distinct")
        # ``(participations, batch key)`` of the most-charged batch that
        # holds at least one record; kept by every charge, rebuilt by
        # ``restore``.
        self._worst: tuple[int, tuple[str, int] | None] = (0, None)

    def _budget(self, table: str) -> _LogBudget:
        try:
            return self._logs[table].synced()
        except KeyError:
            raise ContributionBudgetError(
                f"table {table!r} is not read by this ledger's group"
            ) from None

    # -- one Transform window at a time ---------------------------------------
    def window(self, table: str) -> tuple[int, int]:
        """The active window ``[lo, hi)``: the batches with budget left.

        Each Transform invocation a batch participates in costs ω of its
        records' budget ``b`` (Section 5.1, "Contribution over time"), so
        a batch is usable while ``b - ω·uses ≥ ω``.  Because consumption
        is uniform per invocation, eligibility depends only on public
        upload times — using it leaks nothing.
        """
        span = self.span(table)
        return span.lo, span.hi

    def span(self, table: str, batch: int | None = None) -> "Span":
        """The active window of ``table`` (:meth:`window`), or its one
        batch ``batch``, synced and sliced once for a Transform run to
        read caps from and settle."""
        side = self._budget(table)
        if batch is not None:
            return Span(self, side, batch, batch + 1)
        first, n, uses = side.first, side.log.n_batches, side.uses
        while first < n and uses[first] >= self.max_uses:
            first += 1
        side.first = first
        return Span(self, side, first, n)

    def caps(self, table: str, lo: int, hi: int) -> np.ndarray:
        """Remaining lifetime emission allowance per row of batches ``[lo, hi)``."""
        return Span(self, self._budget(table), lo, hi).caps

    def settle(
        self, table: str, lo: int, hi: int, at_time: int, counts: np.ndarray
    ) -> None:
        """Charge one invocation at ``at_time`` to every batch of
        ``[lo, hi)`` and record ``counts`` — one per row — as their
        emissions (see :meth:`Span.settle`)."""
        Span(self, self._budget(table), lo, hi).settle(at_time, counts)

    def _settle_batch_by_batch(
        self, side: _LogBudget, lo: int, hi: int, at_time: int, counts: np.ndarray
    ) -> None:
        starts = side.log.starts
        for k in range(lo, hi):
            if side.uses[k] >= self.max_uses:
                raise ContributionBudgetError(
                    f"batch ({side.log.name!r}, t={side.log.times[k]}) has no "
                    f"remaining contribution budget (b={self.budget}, "
                    f"omega={self.omega})"
                )
            side.invocations[k, side.uses[k]] = at_time
            side.uses[k] += 1
            self._note_uses(side, k, k + 1)
            rows = slice(starts[k], starts[k + 1])
            batch = counts[starts[k] - starts[lo] : starts[k + 1] - starts[lo]]
            if (batch > self.omega).any():
                raise ContributionBudgetError(
                    f"a record emitted more than omega={self.omega} rows in one "
                    "invocation"
                )
            if (side.emitted[rows] + batch > self.budget).any():
                raise ContributionBudgetError(
                    f"a record exceeded its lifetime budget b={self.budget}"
                )
            side.emitted[rows] += batch

    def _note_uses(self, side: _LogBudget, lo: int, hi: int) -> None:
        """Keep the worst batch after a charge to ``[lo, hi)``: the first,
        in charge order, to reach the most uses while holding a record."""
        if hi <= lo or self._worst[0] >= self.max_uses:  # nothing can exceed it
            return
        starts = side.log.starts[lo : hi + 1]
        held = np.where(starts[1:] > starts[:-1], side.uses[lo:hi], 0)
        k = int(held.argmax())
        if held[k] > self._worst[0]:
            self._worst = (int(held[k]), (side.log.name, int(side.log.times[lo + k])))

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self, table: str, since: int = 0) -> dict:
        """One table's columns from batch ``since`` on (all, by default),
        ``emitted`` from the row that batch starts at — the live arrays,
        sliced to the log."""
        side = self._budget(table)
        columns = {
            **side.batches.columns(since),
            **side.rows.columns(int(side.log.starts[since])),
        }
        return {key: columns[key] for key in _COLUMN_ORDER}

    def charged_since(self, table: str, key: Hashable) -> int:
        """The first batch charged to ``table`` since the last call with
        ``key`` — ``sys.maxsize`` if none was, and 0 on the first call,
        when any may have been: what a checkpoint chain asks to know which
        batches' budget changed since its last checkpoint."""
        side = self._budget(table)
        first = side.charged.get(key, 0)
        side.charged[key] = sys.maxsize
        return first

    def restore_state(self, columns: dict[str, dict]) -> None:
        """Adopt :meth:`snapshot_state` columns for every table at once.

        Each table's logs must keep their declared invariants and be
        aligned to its upload logs, and the invocation matrix must be one
        a stream of Transform runs leaves; a :class:`PersistenceError`
        names the table otherwise.
        """
        if columns.keys() != self._logs.keys():
            raise ContributionBudgetError(
                f"snapshot ledger covers tables {sorted(columns)}, this "
                f"ledger {sorted(self._logs)}"
            )
        for rank, (table, side) in enumerate(self._logs.items()):
            state = columns[table]
            side.batches.adopt(state)
            side.rows.adopt(state)
            side.first = 0
            # The first table is the probe's (see ``TransformGroup``).
            problem = self._run_problem(side, probe=rank == 0)
            if problem is not None:
                raise PersistenceError(f"table {table!r}: {problem}")
        self._worst = (0, None)
        # In charge order: the most uses first, then the earliest to reach
        # them, then the table charged first in a run, then the log order.
        best = None
        for rank, side in enumerate(self._logs.values()):
            starts = side.log.starts
            held = np.where(starts[1:] > starts[:-1], side.uses, 0)
            top = int(held.max(initial=0))
            if top:
                at = np.flatnonzero(held == top)
                reached = side.invocations[at, top - 1]
                k = int(at[reached.argmin()])
                key = (-top, int(reached.min()), rank)
                if best is None or key < best[0]:
                    best = (key, (side.log.name, int(side.log.times[k])))
        if best is not None:
            self._worst = (-best[0][0], best[1])

    def _run_problem(self, side: _LogBudget, probe: bool) -> str | None:
        """What, if anything, ties one table's invocation matrix to no
        stream of Transform runs — checked row by row against its uses
        and the log's upload times."""
        uses, invocations = side.uses, side.invocations
        # Every Transform run charges a suffix of the probe log.
        if probe and (np.diff((uses >= self.max_uses).astype(np.int8)) > 0).any():
            return "its exhausted batches are not a prefix of the log"
        spent = np.arange(self.max_uses) < uses[:, None]
        if invocations[~spent].any():
            return "a batch has an invocation time past its uses"
        if (invocations < side.log.times[:, None])[spent].any():
            return "a batch was charged before it was uploaded"
        if (np.diff(invocations, axis=1) < 0)[spent[:, 1:]].any():
            return "a batch's invocation times are out of order"
        return None

    # -- accounting exports --------------------------------------------------
    def theorem3_contributions(
        self, per_release_epsilon: float
    ) -> dict[tuple[str, int, int], list[tuple[float, float]]]:
        """Contribution map for :func:`repro.dp.accountant.theorem3_epsilon`.

        Each record ``u`` maps to one ``(q_i, ε_i)`` pair per Transform
        invocation it participated in, with ``q_i = ω`` (the stability of
        the truncated transformation) and ``ε_i = per_release_epsilon``
        (the DP cost of the release covering that invocation's window).
        """
        out: dict[tuple[str, int, int], list[tuple[float, float]]] = {}
        for table in self._logs:
            side = self._budget(table)
            times, starts = side.log.times.tolist(), side.log.starts.tolist()
            for k, time in enumerate(times):
                pairs = [(float(self.omega), per_release_epsilon)] * int(side.uses[k])
                for row in range(starts[k + 1] - starts[k]):
                    out[(table, time, row)] = pairs
        return out

    def worst_contributions(
        self, per_release_epsilon: float
    ) -> dict[tuple[str, int, int], list[tuple[float, float]]]:
        """The entry of :meth:`theorem3_contributions` that attains
        Theorem 3's maximum — empty while no record has participated.

        Every record of a batch shares its batch's pairs and all pairs
        are equal, so the per-record sum ``Σ q_i·ε_i`` grows with the
        number of participations alone: the most-charged batch holding a
        record is the worst, and summing its pairs is the very float
        additions the maximum over the full map would report.
        """
        uses, key = self._worst
        if key is None:
            return {}
        return {(*key, 0): [(float(self.omega), per_release_epsilon)] * uses}
