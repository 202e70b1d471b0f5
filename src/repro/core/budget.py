"""Contribution-budget ledger (paper KI-3 and Section 5.1).

Two invariants implement the paper's bounded-stability design:

* **Invocation budget** — a record (batch) may participate as Transform
  input at most ``b // ω`` times; every participation consumes ω
  regardless of whether real join entries were produced.  Tracked at
  batch granularity in :class:`~repro.storage.outsourced_table.OutsourcedTable`
  (consumption is uniform per invocation, so batch-level tracking is
  exact) and re-validated here.
* **Emission cap** — a record contributes at most ω output rows per
  invocation and at most ``b`` rows over its lifetime (Eq. 3 plus
  Theorem 3's finite-contribution requirement).

The ledger also exports a per-record contribution map in the form
Theorem 3 wants, so the privacy accountant can compute the realised
end-to-end ε — and keeps the one entry of that map that attains the
theorem's maximum *running* (:meth:`ContributionLedger.worst_contributions`),
because the map itself has an entry per record ever uploaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ContributionBudgetError


@dataclass
class _RecordGroup:
    """Budget state for the rows of one uploaded batch."""

    n_rows: int
    emitted: np.ndarray
    invocations: list[int] = field(default_factory=list)  # times of participation


class ContributionLedger:
    """Tracks per-record lifetime contributions for one view definition."""

    def __init__(self, omega: int, budget: int) -> None:
        if omega <= 0 or budget < omega:
            raise ContributionBudgetError(
                f"need 0 < omega <= budget, got omega={omega}, budget={budget}"
            )
        self.omega = omega
        self.budget = budget
        self._groups: dict[tuple[str, int], _RecordGroup] = {}
        # ``(participations, batch key)`` of the most-charged batch that
        # holds at least one record; kept by every charge, rebuilt by
        # ``restore_state``.
        self._worst: tuple[int, tuple[str, int] | None] = (0, None)

    # -- registration ----------------------------------------------------
    def register_batch(self, table: str, time: int, n_rows: int) -> None:
        key = (table, time)
        if key in self._groups:
            raise ContributionBudgetError(f"batch {key} already registered")
        self._groups[key] = _RecordGroup(n_rows, np.zeros(n_rows, dtype=np.int64))

    # -- per-invocation flow ------------------------------------------------
    def remaining_uses(self, table: str, time: int) -> int:
        group = self._group(table, time)
        return self.budget // self.omega - len(group.invocations)

    def charge_invocation(self, table: str, time: int, at_time: int) -> None:
        group = self._group(table, time)
        if self.remaining_uses(table, time) <= 0:
            raise ContributionBudgetError(
                f"batch ({table!r}, t={time}) has no remaining contribution "
                f"budget (b={self.budget}, omega={self.omega})"
            )
        group.invocations.append(at_time)
        self._note_uses((table, time), group)

    def _note_uses(self, key: tuple[str, int], group: _RecordGroup) -> None:
        if group.n_rows and len(group.invocations) > self._worst[0]:
            self._worst = (len(group.invocations), key)

    def caps(self, table: str, time: int) -> np.ndarray:
        """Remaining lifetime emission allowance per row of a batch."""
        group = self._group(table, time)
        return np.maximum(self.budget - group.emitted, 0)

    def record_emissions(self, table: str, time: int, counts: np.ndarray) -> None:
        group = self._group(table, time)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != group.emitted.shape:
            raise ContributionBudgetError(
                f"emission count shape {counts.shape} != batch rows "
                f"{group.emitted.shape}"
            )
        if (counts > self.omega).any():
            raise ContributionBudgetError(
                f"a record emitted more than omega={self.omega} rows in one "
                "invocation"
            )
        new_totals = group.emitted + counts
        if (new_totals > self.budget).any():
            raise ContributionBudgetError(
                f"a record exceeded its lifetime budget b={self.budget}"
            )
        group.emitted = new_totals

    # -- one Transform window at a time ---------------------------------------
    def window_caps(self, table: str, times: list[int]) -> np.ndarray:
        """:meth:`caps` of the batches at ``times``, concatenated."""
        emitted = self._window_emitted([self._group(table, t) for t in times])
        return np.maximum(self.budget - emitted, 0)

    def settle_window(
        self, table: str, times: list[int], at_time: int, counts: np.ndarray
    ) -> None:
        """Charge one invocation to every batch of a Transform window and
        record ``counts`` — one entry per window row, batches in ``times``
        order — as their emissions.

        Equal to :meth:`charge_invocation` + :meth:`record_emissions` per
        batch, with the checks made **once** over the whole window.  A
        window that fails one is replayed batch by batch instead, so the
        error raised — type, message, how far the window got — is the
        per-batch one.
        """
        groups = [self._group(table, t) for t in times]
        counts = np.asarray(counts, dtype=np.int64)
        emitted = self._window_emitted(groups)
        if counts.shape != emitted.shape:
            raise ContributionBudgetError(
                f"emission count shape {counts.shape} != window rows "
                f"{emitted.shape}"
            )
        max_uses = self.budget // self.omega
        clean = all(len(g.invocations) < max_uses for g in groups) and not (
            counts > np.minimum(self.budget - emitted, self.omega)
        ).any()
        lo = 0
        for time, group in zip(times, groups):
            hi = lo + group.n_rows
            if clean:
                group.invocations.append(at_time)
                self._note_uses((table, time), group)
                group.emitted = group.emitted + counts[lo:hi]
            else:
                self.charge_invocation(table, time, at_time)
                self.record_emissions(table, time, counts[lo:hi])
            lo = hi

    @staticmethod
    def _window_emitted(groups: list[_RecordGroup]) -> np.ndarray:
        if not groups:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([g.emitted for g in groups])

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full per-batch budget state, in registration order."""
        return {
            "omega": self.omega,
            "budget": self.budget,
            "groups": [
                {
                    "table": table,
                    "time": time,
                    "n_rows": group.n_rows,
                    "emitted": group.emitted,
                    "invocations": list(group.invocations),
                }
                for (table, time), group in self._groups.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        if int(state["omega"]) != self.omega or int(state["budget"]) != self.budget:
            raise ContributionBudgetError(
                f"snapshot ledger has omega={state['omega']}, "
                f"budget={state['budget']}; this ledger was configured with "
                f"omega={self.omega}, budget={self.budget}"
            )
        groups: dict[tuple[str, int], _RecordGroup] = {}
        for g in state["groups"]:
            emitted = np.asarray(g["emitted"], dtype=np.int64)
            n_rows = int(g["n_rows"])
            if len(emitted) != n_rows:
                raise ContributionBudgetError(
                    f"snapshot ledger group ({g['table']!r}, t={g['time']}) "
                    f"has {len(emitted)} emission counters for {n_rows} rows"
                )
            groups[(str(g["table"]), int(g["time"]))] = _RecordGroup(
                n_rows, emitted, [int(t) for t in g["invocations"]]
            )
        self._groups = groups
        self._worst = (0, None)
        for key, group in groups.items():
            self._note_uses(key, group)

    # -- accounting exports --------------------------------------------------
    def max_lifetime_emissions(self) -> int:
        """Largest realised lifetime contribution of any record."""
        totals = [int(g.emitted.max()) for g in self._groups.values() if g.n_rows]
        return max(totals, default=0)

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
        for (table, time), group in self._groups.items():
            pairs = [(float(self.omega), per_release_epsilon)] * len(group.invocations)
            for row in range(group.n_rows):
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

    def _group(self, table: str, time: int) -> _RecordGroup:
        try:
            return self._groups[(table, time)]
        except KeyError:
            raise ContributionBudgetError(
                f"batch ({table!r}, t={time}) was never registered"
            ) from None
