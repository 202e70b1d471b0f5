"""Data-independent sharding of secret-shared state.

The paper answers every query with one padded linear scan over the
materialized view (Section 6 / Appendix A.1.1), so query latency grows
with the view's total (real + dummy) size.  Partitioning the view lets
the scan run one shard per evaluator lane — but the partition itself
must not become a side channel.  :class:`ShardLayout` therefore assigns
rows **round-robin by global append position**: row ``g`` lives in shard
``g mod k`` at local offset ``g div k``.  The assignment is a pure
function of public lengths — it consults neither keys, nor values, nor
reality flags — so the per-shard sizes an adversary observes are fully
determined by the already-public total length.  Formally, the sharded
deployment's transcript is a deterministic post-processing of the
unsharded one, and every DP guarantee (Shrinkwrap-style: the guarantees
attach to released *sizes*, not physical layout) carries over unchanged.

Placement and gather are **share-local**: each server slices and
permutes its own half with public indices (:meth:`SharedTable.take`),
exactly the class of structural operation a real MPC deployment performs
outside the circuit.  No recombination, no randomness, no protocol
scope — so the sharded and unsharded engines consume *identical* RNG
streams and stay byte-for-byte equivalent.

See ``docs/SHARDING.md`` for the full leakage argument and a doctested
walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError
from ..sharing.shared_value import SharedTable


@dataclass(frozen=True)
class ShardLayout:
    """Deterministic round-robin placement of global rows onto shards.

    A pure function of public lengths: global row ``g`` is stored in
    shard ``g % n_shards`` at local position ``g // n_shards``.  The
    gather below is share-local (public-index ``take`` and concatenation
    only); the view writes each shard's stride of a delta itself
    (:class:`~repro.storage.materialized_view.MaterializedView`).
    """

    n_shards: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n_shards, int) or isinstance(self.n_shards, bool):
            raise ConfigurationError(
                f"n_shards must be an int, got {self.n_shards!r}"
            )
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )

    # -- pure index arithmetic (public lengths in, public indices out) ----
    def shard_lengths(self, total_rows: int) -> tuple[int, ...]:
        """Per-shard row counts for a global prefix of ``total_rows``.

        Round-robin balances to within one row:
        ``max(lengths) - min(lengths) <= 1``.
        """
        if total_rows < 0:
            raise ConfigurationError(
                f"total_rows must be >= 0, got {total_rows}"
            )
        k = self.n_shards
        return tuple((total_rows - s + k - 1) // k for s in range(k))

    def gather_order(self, lengths: Sequence[int]) -> np.ndarray:
        """Permutation mapping global positions into shard-concat order.

        For shards concatenated ``shard 0 ++ shard 1 ++ …``, entry ``g``
        is where global row ``g`` sits in that concatenation.  Raises
        :class:`~repro.common.errors.ProtocolError` when ``lengths`` is
        not a valid round-robin split of its own total.
        """
        lengths = tuple(int(n) for n in lengths)
        total = sum(lengths)
        expected = self.shard_lengths(total)
        if lengths != expected:
            raise ProtocolError(
                f"shard lengths {lengths} are not a round-robin split of "
                f"{total} rows over {self.n_shards} shards "
                f"(expected {expected})"
            )
        offsets = np.concatenate(
            [[0], np.cumsum(np.asarray(lengths, dtype=np.int64))[:-1]]
        )
        g = np.arange(total, dtype=np.int64)
        return offsets[g % self.n_shards] + g // self.n_shards

    # -- share-local gather on SharedTable ---------------------------------
    def gather(self, shards: Sequence[SharedTable]) -> SharedTable:
        """Reassemble per-shard tables into exact global append order.

        The inverse of round-robin placement: one batched concatenation
        per share half (:meth:`SharedTable.concat_all`) followed by one
        public permutation ``take``.
        """
        if len(shards) != self.n_shards:
            raise ProtocolError(
                f"shard count {len(shards)} does not match layout "
                f"n_shards {self.n_shards}"
            )
        if self.n_shards == 1:
            # One shard *is* the global order: return it by reference so
            # the default layout costs what the pre-sharding flat table
            # cost (no permutation copy on every .table access).
            return shards[0]
        order = self.gather_order([len(t) for t in shards])
        return SharedTable.concat_all(list(shards)).take(order)


#: The degenerate layout an unsharded view is equivalent to.
SINGLE_SHARD = ShardLayout(1)
