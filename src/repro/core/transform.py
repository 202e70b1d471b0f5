"""The Transform protocol (paper Algorithm 1).

Invoked whenever owners submit new data.  One invocation:

1. determines the *active* probe window — every probe batch that still
   has contribution budget (``b // ω`` invocations per batch), a suffix
   of the probe table's log — plus the driver batch uploaded at the
   current step, and reveals each as one slice of its log; the ledger
   hands out each side's budget as one :class:`~repro.core.budget.Span`,
   synced and sliced once for the caps and the settlement;
2. runs the ω-truncated oblivious join (``trans_truncate``), producing an
   exhaustively padded delta of ``ω × |driver batch|`` view-entry slots;
3. charges the contribution ledger: ω budget per participating record,
   plus per-record emission counts (Eq. 3 enforcement), checked once
   per window and written as slice updates;
4. recovers and increments the cardinality counter c — one per consuming
   view — (Algorithm 1 lines 4-6) and freshly re-shares the counters and
   the padded delta from one draw of each server's randomness;
5. appends the padded delta to the secure cache (line 7).

The only transcript event is the public delta length, which depends
solely on public batch sizes and ω.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError
from ..mpc.runtime import MPCRuntime
from ..oblivious.join_common import JoinResult
from ..oblivious.nested_loop_join import truncated_nested_loop_join
from ..oblivious.sort_merge_join import truncated_sort_merge_join
from ..storage.outsourced_table import OutsourcedTable
from ..storage.secure_cache import SecureCache
from .budget import ContributionLedger
from .counter import SharedCounter
from .view_def import JoinViewDefinition

#: Supported truncated-join circuit shapes.
JOIN_IMPLS = ("sort-merge", "nested-loop")


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one Transform invocation.

    ``seconds`` and ``cache_delta`` are public; the remaining fields are
    MPC-internal diagnostics used for scoring and tests.
    """

    time: int
    seconds: float
    cache_delta: int
    real_entries: int
    dropped: int
    counter_value: int


class TransformProtocol:
    """Per-view-definition Transform circuit shared by all Shrink modes."""

    def __init__(
        self,
        runtime: MPCRuntime,
        view_def: JoinViewDefinition,
        probe_store: OutsourcedTable,
        driver_store: OutsourcedTable,
        ledger: ContributionLedger,
        join_impl: str = "sort-merge",
    ) -> None:
        if join_impl not in JOIN_IMPLS:
            raise ConfigurationError(
                f"join_impl must be one of {JOIN_IMPLS}, got {join_impl!r}"
            )
        self.runtime = runtime
        self.view_def = view_def
        self.probe_store = probe_store
        self.driver_store = driver_store
        self.ledger = ledger
        self.join_impl = join_impl
        # Derived per access on the definition; fixed for this circuit.
        self.view_schema = view_def.view_schema
        self._key_cols = (view_def.probe_key_col, view_def.driver_key_col)
        #: One cardinality counter per consuming view-update policy.  A
        #: single-view deployment has exactly one; when several views share
        #: this Transform (same join, different Shrink policies), each
        #: policy resets its own counter on its own update schedule, so the
        #: invocation increments every counter inside the same circuit.
        self.counters: list[SharedCounter] = [SharedCounter()]

    @property
    def counter(self) -> SharedCounter:
        """The first consuming view's counter."""
        return self.counters[0]

    def attach_counter(self, counter: SharedCounter) -> None:
        """Register an additional policy's counter for joint increments."""
        self.counters.append(counter)

    def run(self, time: int, cache: SecureCache) -> TransformReport:
        """Execute one invocation for the batches uploaded at ``time``."""
        vd = self.view_def
        batch = self.driver_store.batch_at(time)
        if batch is None:
            raise ProtocolError(
                f"no driver batch uploaded at t={time}; Transform runs only "
                "on owner submissions"
            )
        probe = self.ledger.span(vd.probe_table)
        driver = self.ledger.span(vd.driver_table, batch)

        with self.runtime.protocol("transform", time) as ctx:
            probe_rows, probe_flags = ctx.reveal_table(
                self.probe_store.window(probe.lo, probe.hi)
            )
            driver_rows, driver_flags = ctx.reveal_table(self.driver_store.batch(batch))
            join = self._join(
                ctx,
                probe_rows,
                probe_flags,
                probe.caps,
                driver_rows,
                driver_flags,
                driver.caps,
            )
            probe.settle(time, join.left_emitted)
            driver.settle(time, join.right_emitted)
            real = join.real_count
            values = [counter.next_value(ctx, real) for counter in self.counters]

            # One draw per server re-shares the counters and the delta.
            shares, delta = ctx.share_table(
                self.view_schema, join.rows, join.flags, lead=values
            )
            for i, counter in enumerate(self.counters):
                counter.reshared(ctx, shares.take(slice(i, i + 1)))
            cache.append(delta)
            ctx.publish("transform", cache_delta=len(delta))
            seconds = ctx.seconds

        return TransformReport(
            time=time,
            seconds=seconds,
            cache_delta=len(join.flags),
            real_entries=real,
            dropped=join.dropped,
            counter_value=values[0],
        )

    # -- helpers ------------------------------------------------------------
    def _join(
        self,
        ctx,
        probe_rows: np.ndarray,
        probe_flags: np.ndarray,
        probe_caps: np.ndarray,
        driver_rows: np.ndarray,
        driver_flags: np.ndarray,
        driver_caps: np.ndarray,
    ) -> JoinResult:
        vd = self.view_def
        impl = (
            truncated_sort_merge_join
            if self.join_impl == "sort-merge"
            else truncated_nested_loop_join
        )
        probe_key_col, driver_key_col = self._key_cols
        return impl(
            ctx,
            probe_rows,
            probe_flags,
            probe_key_col,
            probe_caps,
            driver_rows,
            driver_flags,
            driver_key_col,
            driver_caps,
            vd.omega,
            vd.pair_predicate,
            output_left="probe",
        )
