"""The materialized view V (paper Sections 2.2 and 4.1).

A secret-shared, append-only relation the servers answer queries from.
Like the cache, only its length (and therefore byte size) is public; the
mix of real and dummy tuples inside is hidden.  Appends happen exclusively
through Shrink (DP-sized), the EP baseline (everything), or a cache
flush.

The view is the one sharded structure (queries scan it, shard by shard;
the cache is read whole and is not sharded), and it alone owns its
layout: with ``n_shards = k``, global row ``g`` lives in shard ``g mod
k`` at local offset ``g div k`` — round-robin by append position.  The
placement is a pure function of public lengths — it consults neither
keys, nor values, nor reality flags — so the per-shard sizes an
adversary observes are fully determined by the already-public total
length, and the sharded deployment's transcript is a deterministic
post-processing of the unsharded one: every DP guarantee
(Shrinkwrap-style, attached to released *sizes*, not physical layout)
carries over unchanged.  :attr:`MaterializedView.table` always
reconstructs the exact global append order, so sharding changes *where*
shares sit, never what any protocol computes.  Placement and gather are
share-local — each server slices and permutes its own half with public
indices, outside the circuit — so the view adds no leakage beyond the
public lengths and consumes no randomness: sharded and unsharded
engines draw identical RNG streams.  ``docs/SHARDING.md`` has the full
argument.

It is stored the way it is scanned.  Every query is one padded pass that
reads a few *columns* of every row, so each shard keeps, per server, one
contiguous run of share words per column plus the flag column, in
buffers with spare capacity — a
:class:`~repro.common.column_log.ColumnLog` per shard
(:class:`ColumnShard`).  An append writes
each shard's stride of the delta straight past the shard's length;
:attr:`MaterializedView.shards` is a zero-copy face over the first
``n`` rows.  Which words sit where is a function of the public lengths
alone, and each server lays out its own half, so the layout is as
share-local as the placement.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..common.column_log import Column, ColumnLog
from ..common.errors import ConfigurationError, ProtocolError
from ..common.types import Schema
from ..mpc.runtime import ProtocolContext
from ..sharing.shared_value import WORD_BYTES, SharedArray, SharedTable

#: Process-wide source of :attr:`MaterializedView.container_uid`.
_CONTAINER_UIDS = itertools.count(1)


def check_n_shards(n_shards: int) -> int:
    """``n_shards`` if it is a usable shard count, else a
    :class:`~repro.common.errors.ConfigurationError` naming it."""
    if not isinstance(n_shards, int) or isinstance(n_shards, bool):
        raise ConfigurationError(f"n_shards must be an int, got {n_shards!r}")
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    return n_shards


def _round_robin_lengths(total_rows: int, k: int) -> tuple[int, ...]:
    """Per-shard row counts of ``total_rows`` placed round-robin over
    ``k`` shards (balanced to within one row)."""
    return tuple((total_rows - s + k - 1) // k for s in range(k))


def _gather(shards: list[SharedTable]) -> SharedTable:
    """Round-robin shards back in global append order: one batched
    concatenation per share half, then one public permutation ``take``."""
    k = len(shards)
    if k == 1:
        # One shard *is* the global order: by reference, no copy.
        return shards[0]
    lengths = np.array([len(t) for t in shards], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    g = np.arange(int(lengths.sum()), dtype=np.int64)
    return SharedTable.concat_all(shards).take(offsets[g % k] + g // k)


class ColumnShard:
    """One view shard as the two servers hold it, column-major.

    A :class:`~repro.common.column_log.ColumnLog` of ``rows.s0``/``rows.s1``
    — each held ``"F"``: column ``c`` of the shard one contiguous run of
    words — and the ``flags.s0``/``flags.s1`` runs.  Content is never
    overwritten: an append lands past the content and a growth moves into
    fresh arrays, so a :meth:`face` taken earlier keeps revealing exactly
    the prefix it was taken over, for as long as it is held.
    """

    __slots__ = ("log",)

    def __init__(self, table: SharedTable) -> None:
        """A full shard (capacity = length) holding ``table``'s words.

        A half that already is one run per column — what :meth:`face`
        hands out and what the snapshot reader allocates — is taken as
        it is; anything else (an empty or a row-major table) is
        transposed into a fresh array, one half at a time.  Taking an
        array another holder also references is safe: with no spare
        capacity the first append moves this shard into arrays of its
        own.
        """
        row_words = (table.schema.width,)
        self.log = ColumnLog(
            "view shard",
            [
                Column("rows.s0", np.uint32, row_words, order="F"),
                Column("rows.s1", np.uint32, row_words, order="F"),
                Column("flags.s0", np.uint32),
                Column("flags.s1", np.uint32),
            ],
        )
        if len(table):
            self.log.adopt(
                {
                    "rows": {"s0": table.rows.share0, "s1": table.rows.share1},
                    "flags": {"s0": table.flags.share0, "s1": table.flags.share1},
                }
            )

    def write(self, delta: SharedTable, rows: slice) -> None:
        """Append ``delta[rows]`` (a public stride) in place."""
        flags0 = delta.flags.share0[rows]
        if len(flags0):
            self.log.append(
                delta.rows.share0[rows],
                delta.rows.share1[rows],
                flags0,
                delta.flags.share1[rows],
            )

    def face(self, schema: Schema) -> SharedTable:
        """The content as a :class:`SharedTable` — views, no copy."""
        v = self.log.view()
        return SharedTable(
            schema,
            SharedArray(v["rows.s0"], v["rows.s1"]),
            SharedArray(v["flags.s0"], v["flags.s1"]),
        )


class MaterializedView:
    """Append-only secret-shared view instance, stored in column shards."""

    def __init__(self, schema: Schema, n_shards: int = 1) -> None:
        self.schema = schema
        self._n_shards = check_n_shards(n_shards)
        #: The one size kept: round-robin placement makes every other
        #: public size (per-shard rows, ciphertext bytes) a function of it.
        self._total_rows = 0
        self._gathered: SharedTable | None = None
        self._content_version = 0
        self._append_epoch = 0
        #: Process-unique public identity of this view.  Derived caches
        #: that outlive a view reference (the incremental accumulator
        #: cache of :mod:`repro.query.incremental`) key entries on this
        #: instead of ``id()``, which the allocator may reuse.
        self.container_uid = next(_CONTAINER_UIDS)
        #: number of Shrink-driven updates applied so far (public)
        self.update_count = 0
        self._reset_storage()

    # -- public structure -------------------------------------------------------
    def __len__(self) -> int:
        return self._total_rows

    @property
    def n_shards(self) -> int:
        return self._n_shards

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
        therefore :meth:`reshard` and every restore path — advances it,
        so a cached per-shard prefix can never be merged across a
        rebuild that reordered rows.  Like the lengths, this is a pure
        function of the public mutation history.
        """
        return self._append_epoch

    def shard_lengths(self) -> tuple[int, ...]:
        """Public per-shard row counts (balanced to within one row)."""
        return _round_robin_lengths(self._total_rows, self._n_shards)

    @property
    def table(self) -> SharedTable:
        """The whole content in exact global append order (share-local).

        A single shard is returned by reference (no copy); multi-shard
        gathers are memoized until the next mutation, so the
        whole-table surfaces (the serial scan oracle, ``real_count``)
        pay the permutation copy once per content change, not once per
        access.
        """
        if self._gathered is None:
            self._gathered = _gather(self.shards)
        return self._gathered

    @property
    def shards(self) -> list[SharedTable]:
        """Zero-copy per-shard faces over the rows appended so far.

        A list taken before later appends stays what it was: exactly
        those rows (see :class:`ColumnShard`).
        """
        if self._faces is None:
            self._faces = [shard.face(self.schema) for shard in self._columns]
        return list(self._faces)

    # -- mutation ---------------------------------------------------------------
    def append(self, delta: SharedTable, count_as_update: bool = True) -> None:
        """Place one update's rows round-robin across the shards."""
        self._append(delta)
        if count_as_update:
            self.update_count += 1

    def _append(self, delta: SharedTable) -> None:
        self._check_schema(delta, "delta")
        self._bump_version()
        # Shard s takes every k-th delta row from its first round-robin
        # slot, written directly: no per-shard parts in between.
        k, start = self._n_shards, self._total_rows
        for s, shard in enumerate(self._columns):
            shard.write(delta, slice((s - start) % k, None, k))
        self._faces = None
        self._total_rows += len(delta)

    def _check_schema(self, table: SharedTable, what: str) -> None:
        if table.schema != self.schema:
            raise ProtocolError(
                f"{what} schema {table.schema.fields} does not match "
                f"view schema {self.schema.fields}"
            )

    def _reset_storage(self) -> None:
        empty = SharedTable.empty(self.schema)
        self._adopt_columns(
            [ColumnShard(empty) for _ in range(self._n_shards)]
        )

    def _adopt_columns(self, columns: list[ColumnShard]) -> None:
        self._columns = columns
        self._faces: list[SharedTable] | None = None

    def _clear(self) -> None:
        self._reset_storage()
        self._total_rows = 0
        self._bump_version()
        self._append_epoch += 1

    def reshard(self, n_shards: int) -> None:
        """Re-place the content over ``n_shards`` shards.

        Share-local (gather then round-robin writes with public indices):
        leaks nothing beyond the already-public lengths and changes no
        protocol's inputs or outputs.
        """
        n_shards = check_n_shards(n_shards)
        gathered = self.table
        self._n_shards = n_shards
        self._clear()
        self._append(gathered)

    # -- persistence hooks ----------------------------------------------------
    def shard_logs(self) -> list[ColumnLog]:
        """Each shard's column log, in shard order: a checkpoint writes
        what each appended since the last one."""
        return [shard.log for shard in self._columns]

    def restore_state(self, state: dict) -> None:
        """Adopt per-shard content (``"shards"``, as :attr:`shards` hands
        it out) and the public ``"update_count"``.

        Shards saved under another count are gathered and re-placed over
        this view's; at any count they must be a round-robin split.
        """
        shards = list(state["shards"])
        for table in shards:
            self._check_schema(table, "snapshot")
        observed = tuple(len(t) for t in shards)
        total = sum(observed)
        expected = _round_robin_lengths(total, check_n_shards(len(shards)))
        if observed != expected:
            raise ProtocolError(
                f"snapshot shard_lengths must be a round-robin split, "
                f"got {observed} (expected {expected} for {total} rows "
                f"over {len(shards)} shards)"
            )
        if len(shards) == self._n_shards:
            self._adopt_columns([ColumnShard(t) for t in shards])
            self._total_rows = total
            self._bump_version()
            # A restore replaces content wholesale — even when the shard
            # shape matches, cached prefixes over the old content must
            # never be merged with suffixes of the new one.
            self._append_epoch += 1
        else:
            gathered = _gather(shards)
            self._clear()
            self._append(gathered)
        self.update_count = int(state["update_count"])

    def real_count(self, ctx: ProtocolContext) -> int:
        """MPC-internal true cardinality (used for scoring, never leaked)."""
        _, flags = ctx.reveal_table(self.table)
        return int(flags.sum())
