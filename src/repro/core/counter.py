"""The secret-shared cardinality counter c (Algorithm 1, lines 1-2, 4-6).

Transform counts how many *real* view entries it has cached since the
last view update; Shrink adds DP noise to this count to size its cache
read.  The counter must round-trip between the two independent protocols
without either server learning it, so it lives as an XOR-shared ring
element that is recovered, modified, and re-shared **inside** protocol
scopes only.

Re-sharing uses fresh randomness contributed by both servers (Section
5.1, "Secret-sharing inside MPC") so that a server comparing the stored
shares across rounds learns nothing.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ProtocolError
from ..mpc.runtime import ProtocolContext
from ..sharing.shared_value import SharedArray


class SharedCounter:
    """An XOR-shared non-negative integer with in-protocol access only."""

    def __init__(self) -> None:
        # Initialised to 0 with a trivial-but-valid sharing; the first
        # protocol touch re-shares it with joint randomness.
        self._shares = SharedArray(
            np.zeros(1, dtype=np.uint32), np.zeros(1, dtype=np.uint32)
        )

    def read(self, ctx: ProtocolContext) -> int:
        """Recover the counter inside a protocol scope."""
        return int(ctx.reveal(self._shares)[0])

    def add(self, ctx: ProtocolContext, delta: int) -> int:
        """Recover, add ``delta``, re-share with fresh randomness.

        Returns the new plaintext value (still protocol-internal).
        Charges the counter-update circuit to the cost model.
        """
        value = self.next_value(ctx, delta)
        self.reshared(ctx, ctx.share_array(np.asarray([value], dtype=np.uint32)))
        return value

    def next_value(self, ctx: ProtocolContext, delta: int) -> int:
        """Recover the counter and add ``delta`` (in the ring), leaving
        the re-share of the result to the caller — who may draw it jointly
        with other protocol outputs — and :meth:`reshared`."""
        return (self.read(ctx) + int(delta)) % (1 << 32)

    def reshared(self, ctx: ProtocolContext, shares: SharedArray) -> None:
        """Hold ``shares``, freshly drawn for :meth:`next_value`'s result;
        charges the counter-update circuit."""
        self._shares = shares
        ctx.charge_counter_update()

    def reset(self, ctx: ProtocolContext) -> None:
        """Set the counter back to 0 and re-share (Algorithm 2, line 9)."""
        self._shares = ctx.share_array(np.zeros(1, dtype=np.uint32))
        ctx.charge_counter_update()

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> SharedArray:
        """The counter's current shares (by reference, never recombined).

        Persisting the *shares* rather than the value keeps the secrecy
        model intact: each server durably stores its own half, and a
        restore hands each server its half back.
        """
        return self._shares

    def restore_state(self, shares: SharedArray) -> None:
        if shares.shape != (1,):
            raise ProtocolError(
                f"counter shares must have shape (1,), got {shares.shape}"
            )
        self._shares = shares
