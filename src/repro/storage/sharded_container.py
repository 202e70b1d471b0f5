"""Shared machinery of the shard-aware secret-shared containers.

The materialized view and the secure cache store their content the same
way: rows placed round-robin by global append position across the shards
of a :class:`~repro.server.sharding.ShardLayout` (one shard by default —
byte-identical to the historical flat table), with per-shard *chunked*
storage so appends are O(delta) and consolidation into contiguous shard
tables happens lazily with one batched concatenation per share half.
:class:`ShardedTableContainer` holds that one copy; the view and the
cache subclass it with their protocol-facing surfaces.

Everything here is share-local — public-index ``take`` and
concatenation on each server's own half — so the containers add no
leakage beyond the already-public lengths and consume no randomness.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..common.errors import ProtocolError
from ..common.types import Schema
from ..sharing.shared_value import SharedTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..server.sharding import ShardLayout

#: Process-wide source of :attr:`ShardedTableContainer.container_uid`.
_CONTAINER_UIDS = itertools.count(1)


def _single_shard() -> "ShardLayout":
    # Imported lazily: the server package imports storage at module load.
    from ..server.sharding import SINGLE_SHARD

    return SINGLE_SHARD


def make_layout(n_shards: int) -> "ShardLayout":
    """A :class:`ShardLayout` without a storage→server import cycle."""
    from ..server.sharding import ShardLayout

    return ShardLayout(n_shards)


class ShardedTableContainer:
    """Round-robin-sharded, chunk-buffered secret-shared relation."""

    #: Subclasses name themselves in schema-mismatch errors.
    container_name = "container"

    def __init__(self, schema: Schema, layout: "ShardLayout | None" = None) -> None:
        self.schema = schema
        self.layout = layout if layout is not None else _single_shard()
        self._shard_chunks: list[list[SharedTable]] = [
            [] for _ in range(self.layout.n_shards)
        ]
        self._total_rows = 0
        #: Running per-shard row counts and total ciphertext bytes of the
        #: chunks above, kept by every path that replaces or extends them
        #: (the sizes are read every step; the chunk lists only grow).
        self._shard_rows = [0] * self.layout.n_shards
        self._byte_size = 0
        self._gathered: SharedTable | None = None
        self._content_version = 0
        self._append_epoch = 0
        #: Process-unique public identity of this container.  Derived
        #: caches that outlive a container reference (the incremental
        #: accumulator cache of :mod:`repro.query.incremental`) key
        #: entries on this instead of ``id()``, which the allocator may
        #: reuse.
        self.container_uid = next(_CONTAINER_UIDS)

    # -- public structure -------------------------------------------------------
    def __len__(self) -> int:
        return self._total_rows

    @property
    def n_shards(self) -> int:
        return self.layout.n_shards

    @property
    def byte_size(self) -> int:
        return self._byte_size

    @property
    def content_version(self) -> int:
        """Monotone counter bumped on every content mutation.

        Caches holding derived copies of the shard content — the
        process-backend shared-memory publications of
        :mod:`repro.query.shard_workers` — key their staleness checks on
        this, so a republish happens exactly when the shares changed.
        """
        return self._content_version

    def _bump_version(self) -> None:
        self._gathered = None
        self._content_version += 1

    @property
    def append_epoch(self) -> int:
        """Monotone counter bumped on every **non-append** mutation.

        Appends leave it unchanged: within one epoch, every shard's row
        sequence is a strict prefix of its later self (round-robin
        placement continues from the public total), which is exactly the
        property prefix-accumulator caches need.  ``_clear`` — and
        therefore ``reshard`` and every restore path — advances it, so a
        cached per-shard prefix can never be merged across a rebuild
        that reordered rows.  Like the lengths, this is a pure function
        of the public mutation history.
        """
        return self._append_epoch

    def _mark_rebuilt(self) -> None:
        self._append_epoch += 1

    def shard_lengths(self) -> tuple[int, ...]:
        """Public per-shard row counts (balanced to within one row)."""
        return tuple(self._shard_rows)

    @property
    def shards(self) -> list[SharedTable]:
        """Contiguous per-shard tables (consolidated lazily, then cached)."""
        out = []
        for s, chunks in enumerate(self._shard_chunks):
            if not chunks:
                table = SharedTable.empty(self.schema)
            elif len(chunks) == 1:
                table = chunks[0]
            else:
                table = SharedTable.concat_all(chunks)
                self._shard_chunks[s] = [table]
            out.append(table)
        return out

    @property
    def table(self) -> SharedTable:
        """The whole content in exact global append order (share-local).

        Single-shard layouts return the shard by reference (no copy);
        multi-shard gathers are memoized until the next mutation, so the
        whole-table surfaces (the serial scan oracle, ``real_count``,
        snapshots) pay the permutation copy once per
        content change, not once per access.
        """
        if self._gathered is None:
            self._gathered = self.layout.gather(self.shards)
        return self._gathered

    # -- mutation ---------------------------------------------------------------
    def _check_schema(self, table: SharedTable, what: str) -> None:
        if table.schema != self.schema:
            raise ProtocolError(
                f"{what} schema {table.schema.fields} does not match "
                f"{self.container_name} schema {self.schema.fields}"
            )

    def _scatter_append(self, delta: SharedTable) -> None:
        """Scatter one delta round-robin, continuing from the public total."""
        self._check_schema(delta, "delta")
        self._bump_version()
        if self.layout.n_shards == 1:
            parts = [delta]
        else:
            parts = self.layout.scatter(delta, self._total_rows)
        for s, part in enumerate(parts):
            if len(part):
                self._shard_chunks[s].append(part)
                self._shard_rows[s] += len(part)
        self._total_rows += len(delta)
        self._byte_size += delta.byte_size

    def _clear(self) -> None:
        self._shard_chunks = [[] for _ in range(self.layout.n_shards)]
        self._shard_rows = [0] * self.layout.n_shards
        self._total_rows = 0
        self._byte_size = 0
        self._bump_version()
        self._mark_rebuilt()

    def reshard(self, layout: "ShardLayout") -> None:
        """Re-scatter the content under a new layout.

        Share-local (gather then scatter with public indices): leaks
        nothing beyond the already-public lengths and changes no
        protocol's inputs or outputs.
        """
        gathered = self.table
        self.layout = layout
        self._clear()
        self._scatter_append(gathered)
