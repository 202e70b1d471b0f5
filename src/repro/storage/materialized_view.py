"""The materialized view V (paper Sections 2.2 and 4.1).

A secret-shared, append-only relation the servers answer queries from.
Like the cache, only its length (and therefore byte size) is public; the
mix of real and dummy tuples inside is hidden.  Appends happen exclusively
through Shrink (DP-sized), the EP baseline (everything), or a cache
flush.

The view is a shard-aware container
(:class:`~repro.storage.sharded_container.ShardedTableContainer`): rows
are placed round-robin by global append position — a pure function of
public lengths — and :attr:`table` always reconstructs the exact global
append order, so sharding changes *where* shares sit, never what any
protocol computes.  The parallel scan engine reads :attr:`shards`
directly, one per worker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..common.errors import ProtocolError
from ..common.types import Schema
from ..mpc.runtime import ProtocolContext
from ..sharing.shared_value import SharedTable
from .sharded_container import ShardedTableContainer, make_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..server.sharding import ShardLayout


class MaterializedView(ShardedTableContainer):
    """Append-only secret-shared view instance, stored in shards."""

    container_name = "view"

    def __init__(self, schema: Schema, layout: "ShardLayout | None" = None) -> None:
        super().__init__(schema, layout)
        #: number of Shrink-driven updates applied so far (public)
        self.update_count = 0

    @property
    def row_count(self) -> int:
        return len(self)

    def append(self, delta: SharedTable, count_as_update: bool = True) -> None:
        """Scatter one update's rows round-robin across the shards."""
        self._scatter_append(delta)
        if count_as_update:
            self.update_count += 1

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Per-shard content plus the public update counter."""
        return {"shards": self.shards, "update_count": self.update_count}

    def restore_state(self, state: dict) -> None:
        shards = list(state["shards"])
        for table in shards:
            self._check_schema(table, "snapshot")
        total = sum(len(t) for t in shards)
        if len(shards) == self.layout.n_shards:
            expected = self.layout.shard_lengths(total)
            observed = tuple(len(t) for t in shards)
            if observed != expected:
                raise ProtocolError(
                    f"snapshot shard_lengths must be a round-robin split, "
                    f"got {observed} (expected {expected} for {total} rows "
                    f"over {self.layout.n_shards} shards)"
                )
            self._shard_chunks = [[t] if len(t) else [] for t in shards]
            self._shard_rows = list(observed)
            self._total_rows = total
            self._byte_size = sum(t.byte_size for t in shards)
            self._bump_version()
            # A restore replaces content wholesale — even when the shard
            # shape matches, cached prefixes over the old content must
            # never be merged with suffixes of the new one.
            self._mark_rebuilt()
        else:
            # Shard-count mismatch (state taken under another layout):
            # re-scatter under this one.
            gathered = make_layout(len(shards)).gather(shards)
            self._clear()
            self._scatter_append(gathered)
        self.update_count = int(state["update_count"])

    def real_count(self, ctx: ProtocolContext) -> int:
        """MPC-internal true cardinality (used for scoring, never leaked)."""
        _, flags = ctx.reveal_table(self.table)
        return int(flags.sum())
