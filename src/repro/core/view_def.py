"""View definitions: what the servers materialize.

The paper's evaluation uses temporal join views ("products returned
within 10 days of purchase", "awards within 10 days of a misconduct
finding").  A :class:`JoinViewDefinition` captures such a view:

* a **probe** table — the side whose records wait around to be joined
  (Sales, Allegation).  Probe records stay usable for ``b/ω`` Transform
  invocations before their contribution budget retires them;
* a **driver** table — the side whose arrivals trigger new view rows
  (Returns, Award).  Each new driver row owns ``ω`` padded output slots;
* an equality key plus a timestamp-window condition
  ``lo ≤ driver.ts − probe.ts ≤ hi``;
* the truncation bound ``ω`` and lifetime contribution budget ``b``.

The definition also knows how to compute the *logical* (plaintext,
truncation-free) join count — the ground truth the L1 error is measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..common.types import Schema


@dataclass(frozen=True)
class JoinViewDefinition:
    """Specification of a materialized temporal-join view."""

    name: str
    probe_table: str
    probe_schema: Schema
    probe_key: str
    probe_ts: str
    driver_table: str
    driver_schema: Schema
    driver_key: str
    driver_ts: str
    window_lo: int
    window_hi: int
    omega: int
    budget: int
    #: True when the driver relation is public (the CPDB Award table);
    #: affects only documentation/leakage accounting — the protocol path
    #: treats it identically (conservatively secret-shared).
    driver_public: bool = False

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if self.budget < self.omega:
            raise ConfigurationError(
                f"budget b={self.budget} must be at least omega={self.omega}"
            )
        if self.window_hi < self.window_lo:
            raise ConfigurationError(
                f"empty join window [{self.window_lo}, {self.window_hi}]"
            )

    # -- derived structure ---------------------------------------------------
    @property
    def view_schema(self) -> Schema:
        """Output schema: probe columns then driver columns, prefixed."""
        return self.probe_schema.concat(
            self.driver_schema, prefix_self="p_", prefix_other="d_"
        )

    @property
    def probe_key_col(self) -> int:
        return self.probe_schema.index(self.probe_key)

    @property
    def driver_key_col(self) -> int:
        return self.driver_schema.index(self.driver_key)

    @property
    def probe_ts_col(self) -> int:
        return self.probe_schema.index(self.probe_ts)

    @property
    def driver_ts_col(self) -> int:
        return self.driver_schema.index(self.driver_ts)

    # -- join semantics --------------------------------------------------------
    def pair_predicate(self, probe_row: np.ndarray, driver_row: np.ndarray) -> bool:
        """Temporal condition beyond key equality for one candidate pair."""
        delta = int(driver_row[self.driver_ts_col]) - int(probe_row[self.probe_ts_col])
        return self.window_lo <= delta <= self.window_hi

    def pair_predicate_batch(
        self, probe_rows: np.ndarray, driver_rows: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`pair_predicate` over aligned candidate arrays.

        ``probe_rows[k]`` is paired with ``driver_rows[k]``; returns the
        boolean keep mask.  The join kernels detect this method on the
        bound predicate's owner and use it instead of per-pair calls —
        the timestamps are uint32, so the difference is exact in int64.
        """
        delta = driver_rows[:, self.driver_ts_col].astype(np.int64) - probe_rows[
            :, self.probe_ts_col
        ]
        return (delta >= self.window_lo) & (delta <= self.window_hi)

    @property
    def band(self) -> tuple[int, int, int, int]:
        """:meth:`pair_predicate` as data for the NM kernel:
        ``(probe_ts_col, driver_ts_col, window_lo, window_hi)``.

        The kernel counts each row's partners inside this timestamp band
        (:func:`repro.oblivious.sort_merge_join.oblivious_join_multi_aggregate`)
        instead of testing pairs one by one.
        """
        return (self.probe_ts_col, self.driver_ts_col, self.window_lo, self.window_hi)

    @property
    def join_signature(self) -> tuple:
        """What determines the joined rows: sides, key/ts columns, window.

        Neither the view's name nor ``omega``/``budget`` (truncation is a
        property of the *served* view, not of the logical join), so every
        view and ad-hoc query over the same join shares one entry of the
        plaintext mirror (:meth:`GrowingDatabase.joined_at`).
        """
        return (
            self.probe_table,
            self.driver_table,
            self.probe_key,
            self.driver_key,
            self.probe_ts,
            self.driver_ts,
            self.window_lo,
            self.window_hi,
        )

    def logical_join_rows(
        self, probe_rows: np.ndarray, driver_rows: np.ndarray
    ) -> np.ndarray:
        """All qualifying joined rows in plaintext, truncation-free.

        The one plaintext join kernel: the ground truth the L1 error is
        measured against (:meth:`logical_join_count` folds it) and the
        delta join of the owners' mirror.  Probe keys are sorted once and
        every driver key ``searchsorted`` into them, so all equal-key
        candidate pairs come out of array arithmetic;
        :meth:`pair_predicate_batch` then applies the window.  Rows are driver-major, probes in input order within
        one driver row.
        """
        if len(probe_rows) == 0 or len(driver_rows) == 0:
            return self.view_schema.empty_rows(0)
        probe_keys = probe_rows[:, self.probe_key_col]
        order = np.argsort(probe_keys, kind="stable")
        sorted_keys = probe_keys[order]
        driver_keys = driver_rows[:, self.driver_key_col]
        first = np.searchsorted(sorted_keys, driver_keys, side="left")
        matches = np.searchsorted(sorted_keys, driver_keys, side="right") - first
        # Candidate pair k joins driver row d[k] with the (k - start of
        # d[k]'s run)-th probe row carrying its key.
        d = np.repeat(np.arange(len(driver_rows)), matches)
        run_start = np.repeat(np.cumsum(matches) - matches, matches)
        p = order[np.repeat(first, matches) + np.arange(len(d)) - run_start]
        probe_side, driver_side = probe_rows[p], driver_rows[d]
        keep = self.pair_predicate_batch(probe_side, driver_side)
        joined = np.hstack([probe_side[keep], driver_side[keep]])
        return joined.astype(np.uint32, copy=False)

    def logical_join_count(
        self, probe_rows: np.ndarray, driver_rows: np.ndarray
    ) -> int:
        """Exact, truncation-free count of qualifying pairs (ground truth)."""
        return len(self.logical_join_rows(probe_rows, driver_rows))
