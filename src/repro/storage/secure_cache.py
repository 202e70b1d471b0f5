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

The cache is **not sharded**: it is read whole — one global oblivious
sort per Shrink or flush — and never scanned by a query, so shards would
buy it nothing.  It is one table in global append order, kept
**row-major**: it is read row-wise once a step (reveal, sort, re-share)
and then replaced, so it keeps the deltas exactly as they were handed
over — an append stores a reference, and the deltas are concatenated,
one batched copy per share half, when a read asks for them.  (The
prototype of the view's column-major buffers gave them to the cache as
well; it cost ``upload_p50_ms`` +12–16 % on the ingest-bound workload.)
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ProtocolError
from ..common.types import Schema
from ..mpc.runtime import ProtocolContext
from ..oblivious.sort import oblivious_compact
from ..sharing.shared_value import WORD_BYTES, SharedTable


class SecureCache:
    """Secret-shared staging area for not-yet-synchronised view tuples."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: the appended deltas as they were handed over, in append order
        self._chunks: list[SharedTable] = []
        self._rows = 0
        self._content_version = 0

    def __len__(self) -> int:
        return self._rows

    @property
    def byte_size(self) -> int:
        """Per-server ciphertext bytes: every row's words plus its flag."""
        return self._rows * (self.schema.width + 1) * WORD_BYTES

    @property
    def content_version(self) -> int:
        """Monotone counter bumped on every content mutation: a
        checkpoint rewrites the cache only when it moved."""
        return self._content_version

    @property
    def table(self) -> SharedTable:
        """The whole content in append order (consolidated lazily, then
        kept)."""
        chunks = self._chunks
        if not chunks:
            return SharedTable.empty(self.schema)
        if len(chunks) > 1:
            self._chunks = chunks = [SharedTable.concat_all(chunks)]
        return chunks[0]

    @table.setter
    def table(self, value: SharedTable) -> None:
        """Replace the cache's content (used by the EP baseline's drain)."""
        self._check_schema(value, "cache content")
        self._replace(value)

    def append(self, delta: SharedTable) -> None:
        """Append a padded Transform output (share-local, no leakage
        beyond the public delta length)."""
        self._check_schema(delta, "delta")
        if len(delta):
            self._chunks.append(delta)
        self._rows += len(delta)
        self._content_version += 1

    def _replace(self, table: SharedTable) -> None:
        self._chunks = [table] if len(table) else []
        self._rows = len(table)
        self._content_version += 1

    def _check_schema(self, table: SharedTable, what: str) -> None:
        if table.schema != self.schema:
            raise ProtocolError(
                f"{what} schema {table.schema.fields} does not match "
                f"cache schema {self.schema.fields}"
            )

    # -- persistence hooks ----------------------------------------------------
    def snapshot_state(self) -> SharedTable:
        """The cache's entire secret-shared content, in append order."""
        return self.table

    def restore_state(self, table: SharedTable) -> None:
        """Adopt previously snapshotted cache content."""
        self._check_schema(table, "snapshot cache")
        self._replace(table)

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
            self._replace(SharedTable.empty(self.schema))
        else:
            self._replace(
                ctx.share_table(self.schema, sorted_rows[size:], sorted_flags[size:])
            )
        return fetched, fetched_real, remaining_real

    def real_count(self, ctx: ProtocolContext) -> int:
        """MPC-internal count of real tuples currently cached."""
        _, flags = ctx.reveal_table(self.table)
        return int(flags.sum())
