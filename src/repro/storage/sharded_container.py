"""Shared machinery of the shard-aware secret-shared containers.

The materialized view and the secure cache place their content the same
way: rows round-robin by global append position across the shards of a
:class:`~repro.storage.sharding.ShardLayout` (one shard by default —
byte-identical to the historical flat table).
:class:`ShardedTableContainer` owns that public structure — lengths,
byte size, the two mutation counters, the gathered :attr:`table` and
:meth:`reshard` — and leaves the *physical* layout of a shard to three
hooks, because the two containers are read in opposite ways:

* the view is scanned column by column, many times per append, so
  :class:`~repro.storage.materialized_view.MaterializedView` keeps
  column-major buffers it appends to in place;
* the cache is read whole and row-wise once a step and then replaced,
  so :class:`~repro.storage.secure_cache.SecureCache` keeps the row-major
  deltas it was handed in global order, concatenated lazily, and hands
  out its shards as strided faces of them.

Everything here is share-local — public-index slices and copies on each
server's own half — so the containers add no leakage beyond the
already-public lengths and consume no randomness.
"""

from __future__ import annotations

import itertools

from ..common.errors import ProtocolError
from ..common.types import Schema
from ..sharing.shared_value import WORD_BYTES, SharedTable
from .sharding import SINGLE_SHARD, ShardLayout

#: Process-wide source of :attr:`ShardedTableContainer.container_uid`.
_CONTAINER_UIDS = itertools.count(1)


class ShardedTableContainer:
    """Round-robin-sharded secret-shared relation (public bookkeeping).

    Subclasses supply the physical shard storage: :meth:`_reset_storage`
    (empty shards for the current layout), :meth:`_store` (place one
    delta) and :attr:`shards` (the per-shard tables).
    """

    #: Subclasses name themselves in schema-mismatch errors.
    container_name = "container"

    def __init__(self, schema: Schema, layout: ShardLayout | None = None) -> None:
        self.schema = schema
        self.layout = layout if layout is not None else SINGLE_SHARD
        #: The one size kept: round-robin placement makes every other
        #: public size (per-shard rows, ciphertext bytes) a function of it.
        self._total_rows = 0
        self._gathered: SharedTable | None = None
        self._content_version = 0
        self._append_epoch = 0
        #: Process-unique public identity of this container.  Derived
        #: caches that outlive a container reference (the incremental
        #: accumulator cache of :mod:`repro.query.incremental`) key
        #: entries on this instead of ``id()``, which the allocator may
        #: reuse.
        self.container_uid = next(_CONTAINER_UIDS)
        self._reset_storage()

    # -- public structure -------------------------------------------------------
    def __len__(self) -> int:
        return self._total_rows

    @property
    def n_shards(self) -> int:
        return self.layout.n_shards

    @property
    def byte_size(self) -> int:
        """Per-server ciphertext bytes: every row's words plus its flag."""
        return self._total_rows * (self.schema.width + 1) * WORD_BYTES

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
        return self.layout.shard_lengths(self._total_rows)

    @property
    def table(self) -> SharedTable:
        """The whole content in exact global append order (share-local).

        Single-shard layouts return the shard by reference (no copy);
        multi-shard gathers are memoized until the next mutation, so the
        whole-table surfaces (the serial scan oracle, ``real_count``,
        the cache's sorted read) pay the permutation copy once per
        content change, not once per access.
        """
        if self._gathered is None:
            self._gathered = self.layout.gather(self.shards)
        return self._gathered

    # -- physical storage (subclass hooks) ----------------------------------------
    def _reset_storage(self) -> None:
        """Replace the storage with empty shards for ``self.layout``."""
        raise NotImplementedError

    def _store(self, delta: SharedTable, start: int) -> None:
        """Place ``delta`` round-robin, its first row at global ``start``."""
        raise NotImplementedError

    @property
    def shards(self) -> list[SharedTable]:
        """One table per shard, each in that shard's append order."""
        raise NotImplementedError

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
        self._store(delta, self._total_rows)
        self._total_rows += len(delta)

    def _clear(self) -> None:
        self._reset_storage()
        self._total_rows = 0
        self._bump_version()
        self._mark_rebuilt()

    def reshard(self, layout: ShardLayout) -> None:
        """Re-scatter the content under a new layout.

        Share-local (gather then scatter with public indices): leaks
        nothing beyond the already-public lengths and changes no
        protocol's inputs or outputs.
        """
        gathered = self.table
        self.layout = layout
        self._clear()
        self._scatter_append(gathered)
