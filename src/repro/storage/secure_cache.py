"""The secure outsourced cache σ (paper Sections 2.2 and 5).

Transform appends exhaustively padded view deltas here; Shrink later
moves a DP-sized portion into the materialized view.  The cache is a
secret-shared array across the two servers; its only public attribute is
its length.

The cache-read operation (Figure 3) is: obliviously sort by the isView
bit so real tuples come first, cut a prefix of the requested (public,
DP-noised) size, hand the prefix to the view, keep the suffix.  The flush
operation is the same but discards the suffix entirely, reclaiming the
space (Theorem 5's ``s``/``f`` machinery).  The sort is charged as the
sorting network on ``(¬isView, position)`` keys; its output on those
distinct keys is a stable partition, which
:func:`~repro.oblivious.sort.oblivious_compact` computes directly.

Like the view, the cache is a shard-aware container
(:class:`~repro.storage.sharded_container.ShardedTableContainer`), but
its sorted read is inherently global — real tuples must sort to the
head of the *whole* cache — so it reads the content in exact append
order, runs the one oblivious sort the unsharded cache runs, and keeps
the suffix.  Identical circuit, identical charges, identical randomness
consumption.

Unlike the view, the cache stays **row-major** and in **global order**:
it is read whole and row-wise once a step (reveal, sort, re-share) and
then replaced, so it keeps the deltas exactly as they were handed over —
an append stores a reference, and the deltas are concatenated, one
batched copy per share half, when a read asks for them.  Round-robin
placement makes shard ``s`` the rows ``s, s + k, s + 2k, …`` of that
content, so :attr:`SecureCache.shards` are strided faces of it, never
copies.  (The prototype of the view's column-major buffers gave them to
the cache as well; it cost ``upload_p50_ms`` +12–16 % on the
ingest-bound workload.)
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ProtocolError
from ..mpc.runtime import ProtocolContext
from ..oblivious.sort import oblivious_compact
from ..sharing.shared_value import SharedTable
from .sharded_container import ShardedTableContainer


class SecureCache(ShardedTableContainer):
    """Secret-shared staging area for not-yet-synchronised view tuples."""

    container_name = "cache"

    # -- physical storage: the deltas in append order -------------------------
    def _reset_storage(self) -> None:
        #: the appended deltas as they were handed over, in global order
        self._chunks: list[SharedTable] = []

    def _store(self, delta: SharedTable, start: int) -> None:
        if len(delta):
            self._chunks.append(delta)

    @property
    def table(self) -> SharedTable:
        """The whole content in exact global append order (consolidated
        lazily, then kept)."""
        chunks = self._chunks
        if not chunks:
            return SharedTable.empty(self.schema)
        if len(chunks) > 1:
            self._chunks = chunks = [SharedTable.concat_all(chunks)]
        return chunks[0]

    @table.setter
    def table(self, value: SharedTable) -> None:
        """Replace the cache's content (used by the EP baseline's drain)."""
        self._replace(value)

    @property
    def shards(self) -> list[SharedTable]:
        """Per-shard tables: strided faces of the global content."""
        table, k = self.table, self.layout.n_shards
        if k == 1:
            return [table]
        return [table.take(slice(s, None, k)) for s in range(k)]

    def append(self, delta: SharedTable) -> None:
        """Append a padded Transform output (share-local, no leakage
        beyond the public delta length)."""
        self._scatter_append(delta)

    def _replace(self, table: SharedTable) -> None:
        self._check_schema(table, "cache content")
        self._clear()
        self._scatter_append(table)

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> SharedTable:
        """The cache's entire secret-shared content, in global order."""
        return self.table

    def restore_state(self, table: SharedTable) -> None:
        """Adopt previously snapshotted cache content."""
        self._check_schema(table, "snapshot cache")
        self._clear()
        self._scatter_append(table)

    # -- protocol-scope operations ------------------------------------------
    def sorted_read(
        self, ctx: ProtocolContext, size: int, discard_rest: bool = False
    ) -> tuple[SharedTable, int, int]:
        """The cache read of Figure 3: sort by isView, cut ``size`` rows.

        Returns ``(fetched, fetched_real, remaining_real)``.  The two real
        counts are MPC-internal diagnostics (they never enter the
        transcript); experiments use them to measure deferred data.  With
        ``discard_rest`` the suffix is recycled instead of kept — the
        cache-flush behaviour — and ``remaining_real`` then reports how
        many real tuples were destroyed (Theorem 4 makes this unlikely
        for a well-chosen flush size).

        Sharding is invisible here: the content is read in exact append
        order for the one global oblivious sort, and the kept suffix is
        stored in that order — same circuit, same gate charges, same
        resharing randomness as the unsharded cache.
        The real counts need no second pass: after the partition the
        first ``n_real`` rows are exactly the real ones.
        """
        if size < 0:
            raise ProtocolError(f"read size must be non-negative, got {size}")
        n = len(self)
        size = min(size, n)
        rows, flags = ctx.reveal_table(self.table)
        # Real tuples (flag=1) go to the head in FIFO order, dummies after
        # them: the sort on (¬isView, position), charged as that sort.
        n_real, [sorted_rows] = oblivious_compact(
            ctx, flags, [rows], self.schema.width + 1
        )
        sorted_flags = np.zeros(n, dtype=np.uint32)
        sorted_flags[:n_real] = 1

        fetched = ctx.share_table(self.schema, sorted_rows[:size], sorted_flags[:size])
        fetched_real = min(size, n_real)
        remaining_real = n_real - fetched_real

        if discard_rest:
            self._clear()
        else:
            self._replace(
                ctx.share_table(self.schema, sorted_rows[size:], sorted_flags[size:])
            )
        return fetched, fetched_real, remaining_real

    def real_count(self, ctx: ProtocolContext) -> int:
        """MPC-internal count of real tuples currently cached."""
        _, flags = ctx.reveal_table(self.table)
        return int(flags.sum())
