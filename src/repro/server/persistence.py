"""Checkpoint/restore persistence for the multi-view database.

A deployed :class:`~repro.server.database.IncShrinkDatabase` is meant to
run forever — owners upload, Transform feeds caches, Shrink updates
views, the accountant tallies spent ε.  All of that is state that must
survive a process restart (the DP-Sync framing of synchronization state
as durable), and one piece of it is *privacy critical*: replaying
releases against a fresh accountant would silently double-spend budget,
so the realized-ε ledger must round-trip exactly.

A checkpoint at ``PATH`` is a **directory of four files**
(:data:`SNAPSHOT_VERSION` 8), split the way the paper's parties hold the
state (Section 2.2, Fig. 1):

* ``party0`` and ``party1`` — that server's share half of every table
  log, cache, view shard, counter and armed threshold, and that server's
  randomness stream; nothing is recombined on the way to disk, and
  neither file holds a byte of the other server's half;
* ``public`` — config, registrations, sizes and upload times, the
  contribution ledgers, the accountant, the metric logs, Shrink's
  public counters, tenant caps and the caller's metadata;
* ``trusted`` — what neither server may hold: the owners' plaintext
  mirror (``logical``), the owners' sharing generator (``rng["owner"]``)
  and the query-noise generator (``rng["query_noise"]``).  They sit
  beside the servers' files only as long as the owners' sharing and the
  query noise run in the server's process; a deployment that hands out
  the checkpoint must withhold this file.

Each file is a **base** plus **append-only segments**::

    base:    magic (18 B) | version (u16) | head len (u64) | array len (u64)
             | head | arrays | SHA-256 of everything before it
    segment: "incshrink-segment" (17 B) | head len (u64) | array len (u64)
             | check (8 B) | head | arrays | SHA-256(previous digest ‖ segment)

so each file's digests form a chain, and ``check`` — the first eight
bytes of SHA-256(previous digest ‖ magic ‖ lengths) — vouches for a
segment's lengths before they are trusted.  A head is compact UTF-8 JSON
(``{"created_at": …, "body": …}``) in which every array is reduced to
``{"dtype", "shape", "offset"}``, plus ``"order": "F"`` for a view
shard's column-major half (written one column's run after another, read
back into a buffer the restored shard adopts) and, in a segment,
``"from"``: the row of the log the array continues at.  The arrays
follow as raw bytes in the order the head names them.

A repeat checkpoint to the same ``PATH`` from the same process (or from
a database restored from it) appends a segment to each file that holds
something that changed since the last one (to ``public`` always): every
append-only log's rows since its mark
(:meth:`~repro.common.column_log.ColumnLog.since` — upload logs, the
logical mirror, view shards, metric logs), the list suffix of the
accountant's events, each contribution ledger's window from the
first batch charged or uploaded since, and the small mutable state
whole where it changed: caches, Shrink counters and timers, RNG states;
tenant caps and metadata.  A log nothing was appended to is left out.
Its cost, and the write lock it is taken under, are O(delta), not
O(D_t).

One walk (:func:`_walk`) is the only code that reads a live database
for the writer.  A segment is the walk from the marks; a **base** is the
walk from row zero — every log whole, every small state written —
assigned into the skeleton (:func:`_static_body`: config,
registrations, schemas, group budgets and pool indices, the entries no
segment rewrites, in file order); a restore takes its marks with the
walk building nothing.

``public`` is written last, and each of its heads carries the **commit
record**: the committed length and chain digest of the other three
files.  A checkpoint is committed once its ``public`` segment is on
disk.  Every file is fsynced, so a committed checkpoint survives a
crash; a fresh base is written to a staging directory, fsynced, and
swapped in by two renames (``PATH`` → ``PATH.incshrink-old``, staging →
``PATH``) and a directory fsync, and a restore that finds no ``PATH``
reads ``PATH.incshrink-old``.  The writer keeps, per database and path,
its marks, its chain digests and each file's ``(st_dev, st_ino,
size)``; it writes a fresh base whenever the files on disk are not the
ones it last wrote, the deployment's configuration changed (a reshard),
a log is not the one it marked — and, to compact, once the segments
outgrow the base.  A compacted checkpoint is byte-equal to a fresh full
one with the same ``created_at``.

:func:`restore_database` reads ``public`` to its last complete segment,
then each other file to exactly the length the commit names, checking
every digest in the chain **before any state is applied**.  A torn tail
— an incomplete segment after the last commit, in any file — restores
that commit, and :attr:`SnapshotInfo.discarded_bytes` reports the bytes
left behind (the next append truncates them); so do zero bytes after
``public``'s last segment, at any length — space a crash allocated but
never wrote.  Any other damage — a
flipped byte anywhere, a cut inside a base, files of two different
checkpoints — raises :class:`~repro.common.errors.PersistenceError`.
Replay costs each segment one small head parse and its array suffixes;
every array is joined once, and only the last segment's small mutable
state is applied.

A checkpoint is the only durable record: a restore is the state at the
last commit, and everything the process did after it is gone.  That is
more than lost work.  A release made since the commit has left with its
answer, yet the restored ledger no longer charges its ε; the query-noise
generator is rewound, so the next release after the restore draws the
same noise again; and every upload the server acknowledged since the
commit is lost, for its owners to resend.  Closing that window needs a
write-ahead log of uploads and releases, replayed past the last commit
(ROADMAP item 18), which this module does not keep.

Every log that grows with the stream is written as **columns**, so
neither the array count nor a head grows with it (only the digits of
its sizes do): a table's upload ``log`` (``times``, ``lengths``, and the
rows and flags as one ``s0``/``s1`` pair each), each transform group's
budget (``uses``, ``emitted``, ``invocations`` per table), the
accountant's events (``name``, ``label`` and ``tenant`` indexing the
``strings`` table, ``epsilon``, ``number``), each metric log
(``query_*`` and one column per step field) and the owners' ``logical``
mirror (``times``, ``lengths``, ``rows``).  Each is a
:class:`~repro.common.column_log.ColumnLog` — for the accountant,
whose live form is a list of events, a schema its columns are encoded
and checked through — whose columns declare their dtype, trailing shape
and invariants (``docs/ARCHITECTURE.md`` tables them).  A restore hands
the replayed arrays to ``adopt()``, which refuses any log a stream
could not have produced, naming the log, the column and the invariant,
and otherwise takes them as the log's buffers: past the reading, a
restore costs per column, and builds only the accountant's events one
by one.  An accountant event's segment is ``(label, number)`` or
``(label, number, "tenant", id)``; an event over any other is refused
before any file is created.

This build reads format 8 and nothing else.  A file at ``PATH``, or a
base of any other version, is refused naming its version (versions 1–3
were one JSON document, 4–7 one file holding both servers' halves);
none of them was released.  The change that writes version 9 adds one
``v8 → v9`` function and the subcommand that runs it.

What is deliberately **not** persisted: the adversary-observable
transcript and the per-protocol run ledger (append-only observation
logs — a fresh process starts fresh observation logs; they do not feed
back into any answer or privacy computation).

Usage::

    info = snapshot_database(db, "deploy.snap", metadata={"last_time": t})
    restored = restore_database("deploy.snap")
    restored.database.query(...)          # identical answers
    restored.metadata["last_time"]        # caller-provided position
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import struct
import time as _time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Hashable

import numpy as np

from ..common.column_log import Column, ColumnLog, Increasing, InRange, Positive
from ..common.errors import PersistenceError
from ..common.metrics import MetricLog
from ..common.types import Schema
from ..core.view_def import JoinViewDefinition
from ..dp.accountant import TENANT_SEGMENT_MARK, MechanismEvent
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from ..storage.outsourced_table import OutsourcedTable
from .database import IncShrinkDatabase, ViewRegistration
from .scheduler import TransformGroup

#: File magic — identifies a checkpoint's base.
SNAPSHOT_MAGIC = b"incshrink-snapshot"
#: Starts every segment appended after a base.
SEGMENT_MAGIC = b"incshrink-segment"
#: Bump on any incompatible change to the files or the body layout; a
#: restore refuses every other version.
SNAPSHOT_VERSION = 8
#: A checkpoint's files, in the order a checkpoint writes them: ``public``
#: last, its commit record naming the other three.
CHECKPOINT_FILES = ("party0", "party1", "trusted", "public")
#: Where a base is built, and where the checkpoint it replaces waits
#: until the new one is in place.
STAGING_SUFFIX = ".incshrink-new"
RETIRED_SUFFIX = ".incshrink-old"

#: magic, format version, head length, array length — how a base starts.
_BASE = struct.Struct(f">{len(SNAPSHOT_MAGIC)}sHQQ")
#: magic, head length, array length, check.
_SEGMENT = struct.Struct(f">{len(SEGMENT_MAGIC)}sQQ8s")
_DIGEST_BYTES = hashlib.sha256().digest_size
#: Read size for hashing bytes that are not read into an array.
_CHUNK_BYTES = 1 << 20
#: A checkpoint whose party files are this large is read a file a thread.
_THREADED_BYTES = 1 << 22
#: An array section this small is read and hashed whole, then split.
_SMALL_SECTION_BYTES = 1 << 16

#: ``ViewRegistration`` fields that are plain scalars (everything but the
#: view definition itself).
_REGISTRATION_SCALARS = (
    "mode",
    "timer_interval",
    "ant_threshold",
    "flush_interval",
    "flush_size",
    "join_impl",
    "size_hint",
    "updates_hint",
)

_VIEW_DEF_SCALARS = (
    "name",
    "probe_table",
    "probe_key",
    "probe_ts",
    "driver_table",
    "driver_key",
    "driver_ts",
    "window_lo",
    "window_hi",
    "omega",
    "budget",
    "driver_public",
)


@dataclass(frozen=True)
class SnapshotInfo:
    """Receipt of one checkpoint written, or of the one a restore read."""

    path: str
    #: bytes this checkpoint wrote, across all four files (a restore:
    #: the committed bytes it read)
    bytes_written: int
    #: the ``public`` file's chain digest at this commit, which vouches
    #: for the other three through the commit record
    sha256: str
    created_at: float
    #: ``"base"``, ``"segment"`` or ``"compaction"`` (a base written
    #: because the segments outgrew the one before)
    kind: str = "base"
    #: segments on top of the base after this checkpoint
    segments: int = 0
    #: torn bytes past the last commit that a restore left behind
    discarded_bytes: int = 0


@dataclass
class RestoredDatabase:
    """A database reconstructed from disk plus the caller's metadata."""

    database: IncShrinkDatabase
    metadata: dict
    info: SnapshotInfo


class _Tail:
    """A log's rows from row ``start`` on: what a segment holds of it."""

    __slots__ = ("rows", "start")

    def __init__(self, rows, start: int) -> None:
        self.rows = rows
        self.start = start


# -- arrays: out of the head on the way out, back into it on the way in --------
#: An array leaves ``{"dtype", "shape", "offset"}`` behind in the head,
#: with ``"order"`` if column-major and ``"from"`` if a segment's rows of
#: a log.  The key sets are reserved: the reader takes any JSON object
#: with exactly such keys for an array.
#: A list's tail: the accountant's strings interned since the last segment.
_LIST_TAIL_KEYS = frozenset(("from", "items"))
_DTYPE_STR = re.compile(r"[<>|][biuf][0-9]{1,2}")


class _ArraySection:
    """The arrays of one head being written, in file order.

    The body holds its arrays as ``ndarray`` leaves (or :class:`_Tail`
    ones).  :meth:`lift` is the JSON encoder's ``default`` hook: it moves
    each array here — as the contiguous chunks to write, none of them a
    copy of an array that already is one run or one run per column — and
    leaves its dtype, shape and byte offset within the section in the
    head.
    """

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.nbytes = 0

    def lift(self, value: object) -> dict:
        if isinstance(value, _Tail):
            if isinstance(value.rows, list):
                return {"from": value.start, "items": value.rows}
            return {**self.lift(value.rows), "from": value.start}
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"cannot persist a value of type {type(value).__name__}"
            )
        entry = {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "offset": self.nbytes,
        }
        if _by_columns(value):
            entry["order"] = "F"
            self.chunks.extend(value.T)
        else:
            self.chunks.append(np.ascontiguousarray(value))
        self.nbytes += value.nbytes
        return entry


def _by_columns(arr: np.ndarray) -> bool:
    """A matrix each of whose columns is one contiguous run.

    True of a view shard's face whether or not its buffer has spare
    capacity.  Matrices with a single row or column read the same in
    either order and are written as C, so that what a head says depends
    on an array's shape and never on how its holder came by it.
    """
    return (
        arr.ndim == 2
        and min(arr.shape) > 1
        and arr.strides[0] == arr.itemsize
    )


@functools.lru_cache(maxsize=None)
def _plain_dtype(text: str) -> np.dtype:
    """Only what ``ndarray.dtype.str`` spells for plain numbers:
    ``np.dtype`` parses a whole language of strings otherwise."""
    if not (isinstance(text, str) and _DTYPE_STR.fullmatch(text)):
        raise TypeError(f"unusable dtype {text!r}")
    return np.dtype(text)


def _start_of(entry: dict) -> int:
    start = entry["from"]
    if type(start) is not int or start < 0:
        raise PersistenceError(f"malformed array entry {entry!r}: unusable 'from'")
    return start


class _ArrayLoader:
    """Allocates the arrays a head names — never more than the file holds.

    :meth:`claim` is the JSON decoder's ``object_hook``: each array entry
    becomes an empty, owned ``ndarray`` of its dtype and shape, to be
    filled from the array section in the order claimed — a column-major
    entry the transposed face of a C-contiguous buffer, filled in the
    same single pass.  An entry that is not where the previous one
    ended, or that reaches past the ``limit`` bytes the section holds,
    is refused before it is allocated.
    """

    def __init__(self, limit: int) -> None:
        self.arrays: list[np.ndarray] = []
        self.nbytes = 0
        self.limit = limit

    def claim(self, entry: dict) -> object:
        offset = entry.get("offset")
        if offset is None:
            if entry.keys() == _LIST_TAIL_KEYS:
                if not isinstance(entry["items"], list):
                    raise PersistenceError(f"malformed list tail {entry!r}")
                return _Tail(entry["items"], _start_of(entry))
            return entry
        order, start = entry.get("order"), entry.get("from")
        if (
            len(entry) != 3 + (order is not None) + (start is not None)
            or "dtype" not in entry
            or "shape" not in entry
        ):
            return entry
        shape = entry["shape"]
        try:
            if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
                raise TypeError("unusable shape")
            if order is not None and (order != "F" or len(shape) != 2):
                raise TypeError("unusable order")
            dtype = _plain_dtype(entry["dtype"])
            nbytes = dtype.itemsize * math.prod(shape)
            if offset != self.nbytes or nbytes > self.limit - self.nbytes:
                raise ValueError(
                    f"{nbytes} bytes do not continue the array section at "
                    f"{self.nbytes} of {self.limit}"
                )
            arr = np.empty(shape if order is None else shape[::-1], dtype)
        except (TypeError, ValueError) as exc:
            raise PersistenceError(
                f"malformed array entry {entry!r}: {exc}"
            ) from exc
        self.arrays.append(arr)
        self.nbytes += nbytes
        face = arr if order is None else arr.T
        return face if start is None else _Tail(face, _start_of(entry))


def _encode_shared_array(sa: SharedArray) -> dict:
    return {"s0": sa.share0, "s1": sa.share1}


def _decode_shared_array(entry: dict) -> SharedArray:
    return SharedArray(entry["s0"], entry["s1"])


# -- the accountant: one row per mechanism event --------------------------------
def _event_log(n_strings: int) -> ColumnLog:
    """The accountant's events as persisted, beside a string table of
    ``n_strings``: ``tenant`` is -1 for an event attributed to no tenant;
    ``number`` is a release's time or a query's sequence number."""
    index = InRange(0, n_strings - 1)
    return ColumnLog(
        "accountant events",
        [
            Column("name", np.int64, invariants=(index,)),
            Column("epsilon", np.float64, invariants=(Positive(),)),
            Column("label", np.int64, invariants=(index,)),
            Column("number", np.int64),
            Column("tenant", np.int64, invariants=(InRange(-1, n_strings - 1),)),
        ],
    )


def _accountant_columns(
    events: list[tuple[str, float, Hashable]], strings: dict[str, int] | None = None
) -> dict:
    """The accountant's events as columns beside one string table.

    A segment is ``(label, number)``, as a view's release and an
    unattributed query write it, or ``(label, number, "tenant", id)``, as
    a tenant's query writes it; any other event, and any ε that is not
    finite and positive, is refused here, before any file is created.
    ``strings`` is a table to continue — the strings it gains are the
    ones returned.
    """
    strings = {} if strings is None else strings
    known = len(strings)
    ref = strings.setdefault
    rows = []
    for name, epsilon, segment in events:
        tenant, shape = None, type(segment) is tuple and len(segment)
        if shape == 2:
            label, number = segment
        elif (
            shape == 4
            and type(segment[2]) is str
            and segment[2] == TENANT_SEGMENT_MARK
            and type(segment[3]) is str
        ):
            label, number, _, tenant = segment
        else:
            label = None
        if type(label) is not str or type(number) is not int or type(name) is not str:
            raise PersistenceError(
                f"cannot persist accountant event {name!r} over segment "
                f"{segment!r}: a segment is (label, number) or "
                f"(label, number, {TENANT_SEGMENT_MARK!r}, tenant id)"
            )
        rows.append(
            (
                ref(name, len(strings)),
                epsilon,
                ref(label, len(strings)),
                number,
                -1 if tenant is None else ref(tenant, len(strings)),
            )
        )
    names, epsilons, labels, numbers, tenants = zip(*rows) if rows else ((),) * 5
    try:
        columns = {
            "name": np.array(names, dtype=np.int64),
            "epsilon": np.array(epsilons, dtype=np.float64),
            "label": np.array(labels, dtype=np.int64),
            "number": np.array(numbers, dtype=np.int64),
            "tenant": np.array(tenants, dtype=np.int64),
        }
    except (OverflowError, TypeError, ValueError) as exc:
        raise PersistenceError(f"cannot persist accountant events: {exc}") from exc
    log = _event_log(len(strings))
    log.adopt(columns)
    return {"strings": list(strings)[known:], **log.columns()}


def _accountant_events(columns: dict) -> list[MechanismEvent]:
    """The accountant's events the checked ``columns`` hold, each built once."""
    strings = columns["strings"]
    if not (isinstance(strings, list) and all(isinstance(s, str) for s in strings)):
        raise PersistenceError("the accountant's string table is not a list of strings")
    log = _event_log(len(strings))
    log.adopt(columns)
    events = log.view()
    return [
        MechanismEvent(
            strings[n],
            eps,
            (strings[lab], t) if k < 0
            else (strings[lab], t, TENANT_SEGMENT_MARK, strings[k]),
        )
        for n, eps, lab, t, k in zip(
            *(events[key].tolist() for key in ("name", "epsilon", "label", "number", "tenant"))
        )
    ]


# -- metric logs: columns while live, written as they are ----------------------
def _metric_columns(log: MetricLog, marks: _Marks) -> dict:
    """A metric log's columns, each log from its mark on."""
    return {name: rows for column_log in log.logs() for name, rows in marks.log(column_log).items()}


def _decode_table_pool(entries: list[dict]) -> list[SharedTable]:
    pool = []
    for e in entries:
        pool.append(
            SharedTable(
                Schema(tuple(e["fields"])),
                _decode_shared_array(e["rows"]),
                _decode_shared_array(e["flags"]),
            )
        )
    return pool


def _encode_registration(spec: ViewRegistration) -> dict:
    vd = spec.view_def
    entry = {f: getattr(spec, f) for f in _REGISTRATION_SCALARS}
    entry["view_def"] = {f: getattr(vd, f) for f in _VIEW_DEF_SCALARS}
    entry["view_def"]["probe_schema"] = list(vd.probe_schema.fields)
    entry["view_def"]["driver_schema"] = list(vd.driver_schema.fields)
    return entry


def _decode_registration(entry: dict) -> ViewRegistration:
    vd_entry = dict(entry["view_def"])
    vd_entry["probe_schema"] = Schema(tuple(vd_entry["probe_schema"]))
    vd_entry["driver_schema"] = Schema(tuple(vd_entry["driver_schema"]))
    view_def = JoinViewDefinition(**vd_entry)
    return ViewRegistration(
        view_def, **{f: entry[f] for f in _REGISTRATION_SCALARS}
    )


# -- the walk: the one reader of a live database for the writer ----------------
def _snapshot_body(
    db: IncShrinkDatabase, metadata: dict | None, marks: _Marks | None = None
) -> dict:
    """A base's body: the walk from row zero (``marks`` keep where it left
    each log) assigned into the skeleton, whose entries keep their file
    order."""
    db.finalize()
    walked = _walk(db, metadata, _Marks("") if marks is None else marks, {})
    return _apply(_static_body(db), walked, [])


def _static_body(db: IncShrinkDatabase) -> dict:
    """The skeleton: what a deployment fixes when it goes live (a reshard
    aside), which only a base writes — its config, registrations and ε
    allocation, and, in file order, every entry the walk leaves out: each
    table's and share table's fields, each group's signature and budget,
    each view's name, where its share tables sit in the pool, and a slot
    for its counter and policy."""
    pool, views = [], []
    for name, vr in db.views.items():
        at = len(pool)
        pool.append({"fields": list(vr.cache.schema.fields)})
        pool.extend({"fields": list(vr.view.schema.fields)} for _ in range(vr.view.n_shards))
        views.append(
            {
                "name": name,
                "cache": at,
                "view": {"shards": list(range(at + 1, len(pool)))},
                "counter": None,
                "policy": None,
            }
        )
    return {
        "config": {
            "total_epsilon": db.total_epsilon,
            "nm_fallback": db.nm_fallback,
            "grid_steps": db.grid_steps,
            "multiplicity": db.planner.multiplicity,
            "n_shards": db.n_shards,
            "cost_model": asdict(db.runtime.cost_model),
        },
        "registrations": [_encode_registration(s) for s in db.registrations],
        "allocation": db.epsilon_allocation(),
        "shared_tables": pool,
        "tables": {name: {"schema": list(t.schema.fields)} for name, t in db.tables.items()},
        "logical": {
            name: {"fields": list(db.logical.schema(name).fields)} for name in db.logical.tables()
        },
        "groups": [
            {"signature": list(g.signature), "omega": g.ledger.omega, "budget": g.ledger.budget}
            for g in db.groups.values()
        ],
        "views": views,
    }


def _policy_state(policy) -> dict | None:
    if policy is None:
        return None
    state = dict(policy.snapshot_state())
    shares = state.pop("threshold_shares", None)
    state["threshold_shares"] = None if shares is None else _encode_shared_array(shares)
    return state


def _counter_state(counter) -> dict | None:
    return None if counter is None else _encode_shared_array(counter.snapshot_state())


def _rng_streams(db: IncShrinkDatabase) -> dict:
    """Each randomness stream a checkpoint carries, with its state."""
    runtime = db.runtime
    streams = {
        "server0": runtime.server0.words,
        "server1": runtime.server1.words,
        "owner": runtime.owner_words,
        "query_noise": db.query_noise_gen.bit_generator,
    }
    return {name: (stream, stream.state) for name, stream in streams.items()}


def _metadata_text(metadata: dict | None) -> str:
    """The caller's metadata as one JSON string, refused here — before any
    file is created — unless it is plain JSON."""
    try:
        return json.dumps(dict(metadata or {}), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot metadata must be plain JSON: {exc}"
        ) from exc


class _Rebase(Exception):
    """A segment cannot describe the change: write a fresh base."""


class _Marks:
    """How far a chain's files hold each log: the length every log (a
    :class:`ColumnLog`, a list, a ledger's live window) had at the last
    checkpoint, keyed by the log object itself — and what a walk writes.

    With ``previous`` marks a walk writes a segment: each log from its
    mark, and :meth:`start` raises :class:`_Rebase` for a log that is not
    the one marked, or is shorter than its mark — a reshard, a restore, a
    replaced list.  With none it starts every log at row 0 and writes a
    base's plain arrays, and no small state counts as unchanged; with
    ``writes`` false as well it builds nothing and only marks (after a
    restore).
    """

    def __init__(
        self, chain: str, previous: dict | None = None, writes: bool = True
    ) -> None:
        #: the chain's key — its checkpoint path — which ledgers track
        #: the batches they charge for
        self.chain = chain
        self.previous = previous
        self.writes = writes
        self.now: dict = {}

    def start(self, log: object, n: int, key=None) -> int:
        """Where this checkpoint writes ``log`` (``n`` long now) from."""
        key = id(log) if key is None else key
        self.now[key] = (log, n)
        if self.previous is None:
            return 0
        held = self.previous.get(key)
        if held is None or held[0] is not log or held[1] > n:
            raise _Rebase
        return held[1]

    def cut(self, rows, start: int):
        """A log's ``rows`` from row ``start`` on (nested columns, too), as
        the walk writes them: plain in a base, :class:`_Tail` in a segment."""
        if self.previous is None:
            return rows
        if isinstance(rows, dict):
            return {key: self.cut(value, start) for key, value in rows.items()}
        return _Tail(rows, start)

    def log(self, log: ColumnLog) -> dict:
        """``log``'s columns from its mark."""
        start = self.start(log, len(log))
        return self.cut(log.columns(start), start) if self.writes else {}

    def unchanged(self, owner: object, state) -> bool:
        """Whether ``owner`` holds the ``state`` it held at the last
        checkpoint — an equal version number or stream state, or the very
        same share object: the small mutable state a segment writes only
        when it changed."""
        key = ("state", id(owner))
        self.now[key] = (owner, state)
        held = None if self.previous is None else self.previous.get(key)
        return (
            held is not None
            and held[0] is owner
            and (held[1] is state or isinstance(state, (int, dict)) and held[1] == state)
        )


def _ledger_tails(ledger, table: OutsourcedTable, marks: _Marks) -> dict:
    """One table's budget from the first batch charged, or uploaded,
    since the last checkpoint: the ones before it stay as written."""
    charged = ledger.charged_since(table.name, marks.chain)
    since = min(marks.start(ledger, table.n_batches, (id(ledger), table.name)), charged)
    if not marks.writes:
        return {}
    columns = ledger.snapshot_state(table.name, since)
    return {
        "uses": marks.cut(columns["uses"], since),
        "emitted": marks.cut(columns["emitted"], int(table.starts[since])),
        "invocations": marks.cut(columns["invocations"], since),
    }


def _accountant_tails(events: list, marks: _Marks, strings: dict[str, int]) -> dict:
    start = marks.start(events, len(events))
    if not marks.writes:
        return {}
    known = len(strings)
    columns = _accountant_columns(
        [(e.name, e.epsilon, e.segment) for e in events[start:]], strings
    )
    return {
        "strings": marks.cut(columns.pop("strings"), known),
        **marks.cut(columns, start),
    }


def _walk(
    db: IncShrinkDatabase, metadata: dict | None, marks: _Marks, strings: dict[str, int]
) -> dict:
    """What changed since ``marks``: each log's rows since its mark, each
    ledger's live window, the accountant's list suffix (``strings``
    continues the accountant's string table), and the small
    mutable state whole where it changed — every entry but the
    skeleton's, in the skeleton's layout.  The only code that reads a
    live database for the writer: a segment, a base (from row zero) and a
    restore's marks (writing nothing) are all this walk."""
    pool, views = [], []
    for vr in db.views.values():
        cache, counter, policy = vr.cache, vr.counter, vr.policy
        if marks.unchanged(cache, cache.content_version) or not marks.writes:
            pool.append({})
        else:
            table = cache.snapshot_state()
            pool.append(
                {"rows": _encode_shared_array(table.rows), "flags": _encode_shared_array(table.flags)}
            )
        pool.extend(marks.log(shard) for shard in vr.view.shard_logs())
        view = {
            "view": {"update_count": vr.view.update_count},
            "metrics": _metric_columns(vr.metrics, marks),
        }
        if counter is not None and not marks.unchanged(counter, counter.snapshot_state()):
            view["counter"] = _counter_state(counter)
        if policy is not None:
            state = _policy_state(policy)
            shares = policy.snapshot_state().get("threshold_shares")
            if marks.unchanged(policy, shares):
                del state["threshold_shares"]
            view["policy"] = state
        views.append(view)
    return {
        "shared_tables": pool,
        "tables": {
            name: {"log": {**marks.log(store.batches), **marks.log(store.rows)}}
            for name, store in db.tables.items()
        },
        "logical": {
            name: {**marks.log(batches), **marks.log(rows)}
            for name, (batches, rows) in db.logical.table_logs().items()
        },
        "groups": [
            {
                "probe": _ledger_tails(group.ledger, group.probe_log, marks),
                "driver": _ledger_tails(group.ledger, group.driver_log, marks),
            }
            for group in db.groups.values()
        ],
        "views": views,
        "accountant": _accountant_tails(db.accountant.events, marks, strings),
        "tenant_budgets": dict(db.tenant_budgets),
        "metrics": _metric_columns(db.metrics, marks),
        "rng": {
            name: state
            for name, (stream, state) in _rng_streams(db).items()
            if not marks.unchanged(stream, state)
        },
        "metadata": _metadata_text(metadata),
    }


def _static_text(db: IncShrinkDatabase) -> str:
    return json.dumps(_static_body(db), separators=(",", ":"))


# -- who holds what: one body split into the four files, and joined back ----------
#: Each party's randomness stream goes to its file; the owners' and the
#: query-noise generators to ``trusted``.
_RNG_FILES = {
    "server0": "party0",
    "server1": "party1",
    "owner": "trusted",
    "query_noise": "trusted",
}
#: Share pairs that may be absent (``None``): each party holds the absence.
_SHARE_SLOTS = frozenset(("counter", "threshold_shares"))
#: A segment's entries that replace the base's whole rather than key by key.
_REPLACED_WHOLE = frozenset(("tenant_budgets",))


def _split(body: dict) -> dict[str, dict]:
    """``body`` as the four files hold it: each ``s0``/``s1`` half with its
    party, the RNG streams and the owners' mirror as :data:`_RNG_FILES`
    says and ``trusted``, the rest in ``public`` — less a segment's empty
    tails (the logs nothing was appended to) and the entries that held
    only those."""
    parts: dict[str, dict] = {name: {} for name in CHECKPOINT_FILES}
    for key, value in body.items():
        if key == "rng":
            for stream, state in value.items():
                parts[_RNG_FILES[stream]].setdefault("rng", {})[stream] = state
        elif key == "logical":
            held = _split_node(value).get("public")
            if held is not None:
                parts["trusted"][key] = held
        else:
            for name, part in _split_node(value).items():
                parts[name][key] = part
    return parts


def _split_node(node) -> dict[str, object]:
    if isinstance(node, _Tail) and not len(node.rows):
        return {}
    if isinstance(node, dict) and node:
        if node.keys() == {"s0", "s1"}:
            return {
                name: {half: node[half]}
                for name, half in (("party0", "s0"), ("party1", "s1"))
                if _split_node(node[half])
            }
        out: dict[str, dict] = {}
        for key, value in node.items():
            if value is None and key in _SHARE_SLOTS:
                held = {"party0": None, "party1": None}
            else:
                held = _split_node(value)
            for name, part in held.items():
                out.setdefault(name, {})[key] = part
        return out
    if isinstance(node, list) and node and all(isinstance(n, dict) for n in node):
        items = [_split_node(n) if n else {} for n in node]
        names = {name for item in items for name in item}
        return {name: [item.get(name, {}) for item in items] for name in names}
    return {"public": node}


def _join(nodes: list, where: tuple = ()) -> object:
    """The four files' bodies back into one (what :func:`_split` split)."""
    if len(nodes) == 1:
        return nodes[0]
    if all(isinstance(n, dict) for n in nodes):
        keys: dict = {}
        for node in nodes:
            for key, value in node.items():
                keys.setdefault(key, []).append(value)
        return {key: _join(values, (*where, key)) for key, values in keys.items()}
    if all(isinstance(n, list) for n in nodes) and len({len(n) for n in nodes}) == 1:
        return [_join(list(items), (*where, i)) for i, items in enumerate(zip(*nodes))]
    if all(n is None for n in nodes):
        return None
    raise PersistenceError(
        f"the checkpoint's files disagree at {'/'.join(map(str, where)) or 'the top'}"
    )


class _Pieces:
    """An array being replayed: its base, then each segment's rows cut in
    at their ``from`` — joined once, at the end."""

    def __init__(self, base: np.ndarray) -> None:
        if not isinstance(base, np.ndarray):
            raise PersistenceError("a segment's rows continue no array of its base")
        self.base = base
        self.parts = [base]
        self.n = len(base)
        self.entry = (base.dtype, base.shape[1:])

    def extend(self, tail: _Tail) -> None:
        rows, start = tail.rows, tail.start
        if not (
            type(rows) is np.ndarray
            and start <= self.n
            and (rows.dtype, rows.shape[1:]) == self.entry
        ):
            raise PersistenceError(
                f"a segment's rows from {start} do not continue a log of "
                f"{self.n} {self.base.dtype} rows of shape {self.base.shape[1:]}"
            )
        if start < self.n:  # a window rewritten from ``start`` on
            kept, room = [], start
            for part in self.parts:
                if room <= 0:
                    break
                kept.append(part[:room])
                room -= len(part)
            self.parts = kept
        self.parts.append(rows)
        self.n = start + len(rows)

    def array(self) -> np.ndarray:
        if len(self.parts) == 1 and self.parts[0] is self.base:
            return self.base
        if self.base.ndim == 1 or not any(_by_columns(p) for p in self.parts):
            return np.concatenate(self.parts)
        out = np.empty((self.n, *self.base.shape[1:]), self.base.dtype, order="F")
        at = 0
        for part in self.parts:
            out[at : at + len(part)] = part
            at += len(part)
        return out


def _apply(held, new, joins: list):
    """One file's body with a segment's body applied: a tail of an array
    cut in at its ``from`` (each array that gets one is listed in
    ``joins`` with where it sits, to be joined once), a list's tail
    likewise, dictionaries and lists of them entry by entry, anything
    else replaced."""
    kind = type(new)
    if kind is dict and type(held) is dict:
        for key, value in new.items():
            entry = type(value)
            if key in _REPLACED_WHOLE:
                held[key] = value
            elif entry is dict or entry is list:
                held[key] = _apply(held.get(key), value, joins)
            elif entry is _Tail and type(value.rows) is not list:
                current = held.get(key)
                if type(current) is not _Pieces:
                    current = held[key] = _Pieces(current)
                    joins.append((held, key))
                current.extend(value)
            elif entry is _Tail:
                held[key] = _apply(held.get(key), value, joins)
            else:
                held[key] = value
        return held
    if kind is _Tail:
        if not (type(held) is list and type(new.rows) is list and new.start <= len(held)):
            raise PersistenceError(
                f"a segment's list from {new.start} does not continue its base"
            )
        return held[: new.start] + new.rows
    if kind is list and type(held) is list and new and all(type(n) is dict for n in new):
        if len(new) != len(held):
            raise PersistenceError(
                f"a segment lists {len(new)} entries where its base lists {len(held)}"
            )
        return [_apply(h, n, joins) for h, n in zip(held, new)]
    return new


# -- the files -------------------------------------------------------------------
def _encode(head: dict) -> tuple[bytes, _ArraySection]:
    section = _ArraySection()
    text = json.dumps(head, separators=(",", ":"), default=section.lift).encode("utf8")
    return text, section


def _segment_check(previous: bytes, magic_and_lengths: bytes) -> bytes:
    return hashlib.sha256(previous + magic_and_lengths).digest()[:8]


def _segment_bytes(head: dict, previous: bytes) -> tuple[bytes, bytes]:
    """One segment continuing the chain at digest ``previous``: its bytes
    and the chain's digest after it."""
    text, section = _encode(head)
    lengths = _SEGMENT.pack(SEGMENT_MAGIC, len(text), section.nbytes, b"")[:-8]
    preamble = lengths + _segment_check(previous, lengths)
    digest = hashlib.sha256(previous)
    for chunk in (preamble, text, *section.chunks):
        digest.update(chunk)
    return b"".join([preamble, text, *section.chunks, digest.digest()]), digest.digest()


def _write_base_file(path: str, head: dict) -> tuple[int, bytes]:
    """One base, fsynced: its length and digest."""
    text, section = _encode(head)
    preamble = _BASE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(text), section.nbytes)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (preamble, text, *section.chunks):
            fh.write(chunk)
            digest.update(chunk)
        fh.write(digest.digest())
        fh.flush()
        os.fsync(fh.fileno())
        return fh.tell(), digest.digest()


def _fsync_directory(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_checkpoint(path: str) -> None:
    """Delete a checkpoint directory this module wrote — its files, then
    the directory, which must then be empty — or a file at ``path``."""
    if os.path.isdir(path) and not os.path.islink(path):
        for name in CHECKPOINT_FILES:
            if os.path.lexists(os.path.join(path, name)):
                os.unlink(os.path.join(path, name))
        os.rmdir(path)
    elif os.path.lexists(path):
        os.unlink(path)


def _commit_record(committed: dict[str, tuple[int, bytes]]) -> dict:
    return {name: [length, digest.hex()] for name, (length, digest) in committed.items()}


def _write_base(path: str, body: dict, created_at: float) -> dict[str, tuple[int, bytes]]:
    """Write ``body`` as a fresh base: the four files into a staging
    directory, each fsynced, the directory fsynced, then swapped in for
    whatever was at ``path``.  Returns each file's length and digest."""
    if os.path.isdir(path) and not set(os.listdir(path)) <= set(CHECKPOINT_FILES):
        raise PersistenceError(
            f"{path!r} is a directory that is not a checkpoint; refusing to replace it"
        )
    parts = _split(body)
    beside = os.path.normpath(path)  # the staging and retired names sit beside it
    staging, retired = beside + STAGING_SUFFIX, beside + RETIRED_SUFFIX
    _remove_checkpoint(staging)
    os.mkdir(staging)
    try:
        committed: dict[str, tuple[int, bytes]] = {}
        for name in CHECKPOINT_FILES:
            head: dict = {"created_at": created_at}
            if name == "public":
                head["commit"] = _commit_record(committed)
            head["body"] = parts[name]
            committed[name] = _write_base_file(os.path.join(staging, name), head)
        _fsync_directory(staging)
        if os.path.lexists(path):
            # ``path`` is the last commit: any older one retired beside it
            # can go.  With no ``path``, the retired one is the last commit.
            _remove_checkpoint(retired)
            os.rename(path, retired)
        os.rename(staging, path)
    except BaseException:
        if os.path.lexists(staging):
            _remove_checkpoint(staging)
        raise
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    _remove_checkpoint(retired)
    return committed


@dataclass
class _Chain:
    """One checkpoint directory as this process last wrote or read it."""

    #: per file: ``(st_dev, st_ino, size)`` as last seen on disk
    files: dict
    #: per file: committed length and chain digest
    committed: dict
    base_bytes: int
    marks: dict
    #: the accountant's string table as written
    strings: dict
    static: str
    segment_bytes: int = 0
    segments: int = 0

    @classmethod
    def of(cls, db, marks: _Marks, body: dict, **files):
        """The chain of files that hold ``db`` as it is, as ``marks`` left
        its logs and ``body`` (the full body, written or replayed)
        describes."""
        return cls(
            marks=marks.now,
            strings={s: i for i, s in enumerate(body["accountant"]["strings"])},
            static=_static_text(db),
            **files,
        )

    def on_disk(self, path: str) -> bool:
        """The files at ``path`` are the ones this chain last saw."""
        try:
            return _identities(path) == self.files
        except OSError:
            return False


def _identities(path: str) -> dict:
    out = {}
    for name in CHECKPOINT_FILES:
        st = os.stat(os.path.join(path, name))
        out[name] = (st.st_dev, st.st_ino, st.st_size)
    return out


#: Each database's chains, by checkpoint path — dropped with the database.
_CHAINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _append_segment(
    db: IncShrinkDatabase, path: str, metadata: dict | None, chain: _Chain, created_at: float
) -> tuple[SnapshotInfo, _Chain]:
    """Append a segment to each file of ``chain`` that has something new
    — the three others, then ``public``'s, whose commit record names
    where each now ends."""
    if _static_text(db) != chain.static:
        raise _Rebase
    marks, strings = _Marks(os.path.abspath(path), chain.marks), dict(chain.strings)
    parts = _split(_walk(db, metadata, marks, strings))
    committed, written = {}, 0
    for name in CHECKPOINT_FILES:
        length, previous = chain.committed[name]
        if not parts[name] and name != "public":
            if chain.files[name][2] > length:
                os.truncate(os.path.join(path, name), length)  # a torn tail
            committed[name] = (length, previous)
            continue
        head: dict = {"created_at": created_at}
        if name == "public":
            head["commit"] = _commit_record(committed)
        head["body"] = parts[name]
        data, digest = _segment_bytes(head, previous)
        with open(os.path.join(path, name), "r+b") as fh:
            fh.seek(length)
            fh.truncate()  # a torn tail past the last commit
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        committed[name] = (length + len(data), digest)
        written += len(data)
    chain = replace(
        chain,
        files=_identities(path),
        committed=committed,
        marks=marks.now,
        strings=strings,
        segment_bytes=chain.segment_bytes + written,
        segments=chain.segments + 1,
    )
    info = SnapshotInfo(
        path=path,
        bytes_written=written,
        sha256=committed["public"][1].hex(),
        created_at=created_at,
        kind="segment",
        segments=chain.segments,
    )
    return info, chain


# -- reading -------------------------------------------------------------------------
@dataclass
class _FileChain:
    """One file read to its last commit."""

    heads: list = field(default_factory=list)
    digest: bytes = b""
    base_bytes: int = 0
    #: committed bytes read
    length: int = 0
    #: ``(st_dev, st_ino, size)`` on disk, as a chain compares files
    identity: tuple = ()


def _integrity_error(path: str, why: str = "") -> PersistenceError:
    return PersistenceError(
        f"snapshot {path!r} failed its integrity check"
        f"{f' ({why})' if why else ''}; refusing to restore — resuming "
        "from corrupt state could double-spend budget"
    )


def _version_error(path: str, version: int) -> PersistenceError:
    return PersistenceError(
        f"snapshot {path!r} has format version {version}; this build "
        f"reads version {SNAPSHOT_VERSION}"
    )


def _refuse_file(path: str) -> PersistenceError:
    """Why the file at ``path`` is not a checkpoint: one file of a
    checkpoint, a snapshot of another version, or something else."""
    with open(path, "rb") as fh:
        preamble = fh.read(_BASE.size)
        if preamble[:1] == b"{":  # versions 1-3 were one JSON document
            version = _document_version(preamble + fh.read())
            if version is not None:
                return _version_error(path, version)
    if len(preamble) == _BASE.size and preamble.startswith(SNAPSHOT_MAGIC):
        version = _BASE.unpack(preamble)[1]
        if version == SNAPSHOT_VERSION:
            return PersistenceError(
                f"{path!r} is one file of a checkpoint: restore the directory "
                "that holds it"
            )
        return _version_error(path, version)
    return PersistenceError(f"{path!r} is not an IncShrink snapshot")


def _document_version(raw: bytes) -> int | None:
    """The format version a JSON snapshot document declares, if ``raw``
    is one."""
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError):  # incl. invalid UTF-8
        return None
    if not isinstance(document, dict) or document.get("magic") != SNAPSHOT_MAGIC.decode():
        return None
    version = document.get("version")
    return version if type(version) is int else None


def _read_entry(fh, path: str, digest, head_len: int, array_len: int, end: int) -> dict:
    """A head and its arrays, hashed as read, then the digest checked
    against the trailer at ``end``.

    Damage to the file can surface as a structural error first (a
    flipped digit in a size); the rest of the entry is then still hashed,
    so that damage is reported as the failed integrity check it is and
    "malformed" is left for files whose writer was wrong.
    """
    raw = fh.read(head_len)
    digest.update(raw)
    try:
        loader = _ArrayLoader(limit=array_len)
        try:
            head = json.loads(raw, object_hook=loader.claim)
        except (ValueError, RecursionError) as exc:  # incl. invalid UTF-8
            raise PersistenceError(f"head is not valid JSON: {exc}") from exc
        if loader.nbytes != array_len:
            raise PersistenceError(
                f"head accounts for {loader.nbytes} array bytes, the entry "
                f"declares {array_len}"
            )
        if (
            not isinstance(head, dict)
            or not isinstance(head.get("body"), dict)
            or not isinstance(head.get("created_at"), (int, float))
        ):
            raise PersistenceError("head has no body or no created_at")
        if array_len <= _SMALL_SECTION_BYTES:
            # Small arrays — a segment's, mostly — in one read and one
            # digest update, then copied out.
            section = memoryview(bytearray(array_len))
            if fh.readinto(section) != array_len:
                raise PersistenceError("file shrank while it was being read")
            digest.update(section)
            at = 0
            for arr in loader.arrays:
                if arr.nbytes:
                    arr.data.cast("B")[:] = section[at : at + arr.nbytes]
                    at += arr.nbytes
        else:
            for arr in loader.arrays:
                if arr.nbytes and fh.readinto(arr) != arr.nbytes:
                    raise PersistenceError("file shrank while it was being read")
                digest.update(arr)
    except PersistenceError as exc:
        while chunk := fh.read(min(_CHUNK_BYTES, end - fh.tell())):
            digest.update(chunk)
        if fh.read(_DIGEST_BYTES) != digest.digest():
            raise _integrity_error(path) from exc
        raise PersistenceError(f"snapshot {path!r} is malformed: {exc}") from exc
    if fh.read(_DIGEST_BYTES) != digest.digest():
        raise _integrity_error(path)
    return head


def _read_chain(path: str, committed: list | None) -> _FileChain:
    """Read one file's base and segments and check its chain: to its last
    complete segment (``public``, ``committed`` None) or to exactly the
    committed length, ending at the committed digest."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        out = _FileChain(identity=(st.st_dev, st.st_ino, st.st_size))
        end = st.st_size if committed is None else committed[0]
        preamble = fh.read(_BASE.size)
        if preamble[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise PersistenceError(f"{path!r} is not an IncShrink snapshot")
        if committed is not None and end > st.st_size:
            raise _not_committed(path)
        if len(preamble) < _BASE.size:
            raise _integrity_error(path, f"cut: {st.st_size} bytes on disk")
        _, version, head_len, array_len = _BASE.unpack(preamble)
        if version != SNAPSHOT_VERSION:
            raise _version_error(path, version)
        base_end = _BASE.size + head_len + array_len
        if base_end + _DIGEST_BYTES > end:
            raise _integrity_error(
                path, f"its base declares {base_end + _DIGEST_BYTES} bytes of {end}"
            )
        digest = hashlib.sha256(preamble)
        out.heads.append(_read_entry(fh, path, digest, head_len, array_len, base_end))
        out.digest = digest.digest()
        out.length = out.base_bytes = fh.tell()
        while out.length < end:
            left = end - out.length
            raw = fh.read(min(_SEGMENT.size, left))
            if len(raw) < _SEGMENT.size:
                break
            magic, head_len, array_len, check = _SEGMENT.unpack(raw)
            if magic != SEGMENT_MAGIC or check != _segment_check(out.digest, raw[:-8]):
                if _zeros_to(fh, raw, end):  # space a crash left unwritten
                    break
                raise _integrity_error(path, f"no segment at byte {out.length}")
            seg_end = out.length + _SEGMENT.size + head_len + array_len
            if seg_end + _DIGEST_BYTES > end:
                break
            digest = hashlib.sha256(out.digest + raw)
            out.heads.append(_read_entry(fh, path, digest, head_len, array_len, seg_end))
            out.digest = digest.digest()
            out.length = fh.tell()
    if committed is not None and (out.length != end or out.digest.hex() != committed[1]):
        raise _not_committed(path)
    return out


def _zeros_to(fh, chunk: bytes, end: int) -> bool:
    """Whether ``chunk`` and the rest of ``fh`` up to ``end`` are zero
    bytes: a torn tail, at any length."""
    while chunk:
        if chunk.strip(b"\0"):
            return False
        chunk = fh.read(min(_CHUNK_BYTES, end - fh.tell()))
    return True


def _not_committed(path: str) -> PersistenceError:
    return _integrity_error(
        path,
        "it is not the file its commit names: cut short, or a file of "
        "another checkpoint",
    )


def _commit_of(head: dict, path: str) -> dict:
    commit = head.get("commit")
    if not (
        isinstance(commit, dict)
        and commit.keys() == set(CHECKPOINT_FILES[:-1])
        and all(
            isinstance(entry, list)
            and len(entry) == 2
            and type(entry[0]) is int
            and isinstance(entry[1], str)
            for entry in commit.values()
        )
    ):
        raise PersistenceError(f"snapshot {path!r} has no usable commit record")
    return commit


def _read_checkpoint(path: str) -> dict[str, _FileChain]:
    """Every file of the checkpoint at ``path``, read and checked."""
    public = _read_chain(os.path.join(path, "public"), None)
    commit = _commit_of(public.heads[-1], path)
    reads = {name: (os.path.join(path, name), commit[name]) for name in CHECKPOINT_FILES[:-1]}
    if commit["party0"][0] >= _THREADED_BYTES:
        # Each party's file on a thread of its own: reads and SHA-256
        # updates of large buffers release the GIL (small files would
        # only trade it back and forth).
        with ThreadPoolExecutor(max_workers=len(reads)) as pool:
            futures = {name: pool.submit(_read_chain, *args) for name, args in reads.items()}
            files = {name: future.result() for name, future in futures.items()}
    else:
        files = {name: _read_chain(*args) for name, args in reads.items()}
    files["public"] = public
    return files


def _replayed(chain: _FileChain) -> dict:
    """One file's body: its base with every segment applied."""
    body, joins = chain.heads[0]["body"], []
    for head in chain.heads[1:]:
        body = _apply(body, head["body"], joins)
    for container, key in joins:
        container[key] = container[key].array()
    return body


# -- public API ---------------------------------------------------------------
def snapshot_database(
    db: IncShrinkDatabase, path: str | os.PathLike, metadata: dict | None = None
) -> SnapshotInfo:
    """Checkpoint the database's state to the directory ``path``.

    ``metadata`` is an arbitrary JSON-serializable dict stored verbatim
    and handed back by :func:`restore_database` — the serving runtime
    uses it for its stream position and throughput counters.  The first
    checkpoint to ``path`` writes a base; a repeat one from this database
    appends a segment of what changed (see the module docstring).  Every
    file is fsynced before the call returns, so a committed checkpoint
    survives a crash; the receipt's ``sha256`` is ``public``'s chain
    digest, which vouches for the rest.
    """
    path = os.fspath(path)
    created_at = _time.time()
    chains = _CHAINS.setdefault(db, {})
    key = os.path.abspath(path)
    # Dropped unless this checkpoint commits: after a failure the next
    # one writes a fresh base.
    chain = chains.pop(key, None)
    on_disk = chain is not None and chain.on_disk(path)
    compacting = on_disk and chain.segment_bytes > chain.base_bytes
    if on_disk and not compacting:
        try:
            info, chains[key] = _append_segment(db, path, metadata, chain, created_at)
            return info
        except _Rebase:
            pass
    marks = _Marks(key)
    body = _snapshot_body(db, metadata, marks)
    committed = _write_base(path, body, created_at)
    info = SnapshotInfo(
        path=path,
        bytes_written=sum(length for length, _ in committed.values()),
        sha256=committed["public"][1].hex(),
        created_at=created_at,
        kind="compaction" if compacting else "base",
    )
    chains[key] = _Chain.of(
        db,
        marks,
        body,
        files=_identities(path),
        committed=committed,
        base_bytes=info.bytes_written,
    )
    return info


def restore_database(path: str | os.PathLike) -> RestoredDatabase:
    """Reconstruct a database (and the caller's metadata) from ``path``.

    The restored instance answers queries byte-identically to the
    checkpointed one and reports the identical realized ε — the spent
    budget cannot be double-spent by a restart.  Nothing is rebuilt
    before every file's chain has been checked.  A checkpoint to the
    same ``path`` from the restored database appends to the chain read
    here.
    """
    path = os.fspath(path)
    directory = path
    try:
        if not os.path.isdir(path):
            if os.path.lexists(path):
                raise _refuse_file(path)
            retired = os.path.normpath(path) + RETIRED_SUFFIX
            if os.path.isdir(retired):  # a base swap was cut short
                directory = retired
        files = _read_checkpoint(directory)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    body = _join([_replayed(files[name]) for name in CHECKPOINT_FILES])
    try:
        db = _rebuild(body)
        metadata = json.loads(body["metadata"])
        if not isinstance(metadata, dict):
            raise PersistenceError("snapshot metadata is not a JSON object")
    except PersistenceError:
        raise
    except Exception as exc:  # malformed-but-authentic bodies
        raise PersistenceError(
            f"snapshot {path!r} decoded but could not be applied: {exc}"
        ) from exc
    segments = len(files["public"].heads) - 1
    if directory == path:
        marks = _Marks(os.path.abspath(path), writes=False)
        _walk(db, None, marks, {})
        _CHAINS.setdefault(db, {})[os.path.abspath(path)] = _Chain.of(
            db,
            marks,
            body,
            files={name: f.identity for name, f in files.items()},
            committed={name: (f.length, f.digest) for name, f in files.items()},
            base_bytes=sum(f.base_bytes for f in files.values()),
            segment_bytes=sum(f.length - f.base_bytes for f in files.values()),
            segments=segments,
        )
    info = SnapshotInfo(
        path=path,
        bytes_written=sum(f.length for f in files.values()),
        sha256=files["public"].digest.hex(),
        created_at=float(files["public"].heads[-1]["created_at"]),
        kind="segment" if segments else "base",
        segments=segments,
        discarded_bytes=sum(f.identity[2] - f.length for f in files.values()),
    )
    return RestoredDatabase(database=db, metadata=metadata, info=info)


def _rebuild(body: dict) -> IncShrinkDatabase:
    pool = _decode_table_pool(body["shared_tables"])
    cfg = body["config"]

    db = IncShrinkDatabase(
        total_epsilon=float(cfg["total_epsilon"]),
        cost_model=CostModel(**cfg["cost_model"]),
        nm_fallback=bool(cfg["nm_fallback"]),
        grid_steps=int(cfg["grid_steps"]),
        multiplicity_hint=float(cfg["multiplicity"]),
        n_shards=int(cfg["n_shards"]),
    )
    for entry in body["registrations"]:
        db.register_view(_decode_registration(entry))
    db.finalize_with_allocation(body["allocation"])

    # Physical base tables, two logs of columns each, adopted as they are.
    if set(body["tables"]) != set(db.tables):
        raise PersistenceError(
            f"snapshot tables {sorted(body['tables'])} do not match the "
            f"registered tables {sorted(db.tables)}"
        )
    for name, entry in body["tables"].items():
        store = db.tables[name]
        if entry["schema"] != list(store.schema.fields):
            raise PersistenceError(
                f"snapshot table {name!r} has fields {entry['schema']!r}, "
                f"registered {list(store.schema.fields)!r}"
            )
        store.adopt(entry["log"])

    # Owners' logical mirror: an owner inserts once beside an upload, at
    # its time, so a table's insertion times are some of its upload times.
    db.logical.restore_state(body["logical"])
    for name, store in db.tables.items():
        batches = db.logical.batch_log(name)
        times = batches["times"]
        if not (Increasing().holds(times) and np.isin(times, store.times).all()):
            raise PersistenceError(
                f"{batches.name}: column 'times' is not strictly increasing "
                f"upload times of table {name!r}"
            )

    # Transform groups: each ledger adopts its columns once they fit.
    live_groups = list(db.groups.values())
    if len(live_groups) != len(body["groups"]):
        raise PersistenceError(
            f"snapshot has {len(body['groups'])} transform groups, the "
            f"re-registered database wired {len(live_groups)}"
        )
    for index, (group, entry) in enumerate(zip(live_groups, body["groups"])):
        if list(group.signature) != entry["signature"]:
            raise PersistenceError(
                f"transform-group signature mismatch: snapshot "
                f"{entry['signature']!r} vs wired {list(group.signature)!r}"
            )
        _restore_ledger(group, entry, index)

    # Per-view runtime state.
    live_views = list(db.views.items())
    if [name for name, _ in live_views] != [v["name"] for v in body["views"]]:
        raise PersistenceError("snapshot views do not match the wired views")
    for (name, vr), entry in zip(live_views, body["views"]):
        vr.cache.restore_state(pool[entry["cache"]])
        vr.view.restore_state(
            {
                # per-shard tables, round-robin global order
                "shards": [pool[int(i)] for i in entry["view"]["shards"]],
                "update_count": entry["view"]["update_count"],
            }
        )
        counter_entry = entry["counter"]
        if (vr.counter is None) != (counter_entry is None):
            raise PersistenceError(
                f"snapshot counter presence for view {name!r} does not match "
                "its registered mode"
            )
        if vr.counter is not None:
            vr.counter.restore_state(_decode_shared_array(counter_entry))
        policy_entry = entry["policy"]
        if (vr.policy is None) != (policy_entry is None):
            raise PersistenceError(
                f"snapshot policy presence for view {name!r} does not match "
                "its registered mode"
            )
        if vr.policy is not None:
            state = dict(policy_entry)
            shares = state.get("threshold_shares")
            if shares is not None:
                state["threshold_shares"] = _decode_shared_array(shares)
            vr.policy.restore_state(state)
        vr.metrics.adopt(entry["metrics"])

    # Privacy ledger and database-level query log.
    db.accountant.restore_events(_accountant_events(body["accountant"]))
    db.metrics.adopt(body["metrics"])
    # Tenant ε caps.  The per-tenant *spends* were just restored with the
    # accountant events above — deriving ledgers from events is what
    # makes a restore incapable of double-spending a tenant's budget.
    if body["tenant_budgets"]:
        db.set_tenant_budgets(body["tenant_budgets"])

    # Both servers' and the owners' RNG streams continue exactly where
    # the snapshotted process stopped, as does the query-release noise
    # stream.  The ring-word streams take their held half-word back out
    # of numpy's state dict (``RingWordStream.state``).
    rng = body["rng"]
    db.runtime.server0.words.state = rng["server0"]
    db.runtime.server1.words.state = rng["server1"]
    db.runtime.owner_words.state = rng["owner"]
    db.query_noise_gen.bit_generator.state = rng["query_noise"]
    # Continue query-release segments past the restored spends; the plan
    # cache is deliberately not persisted (state_version starts fresh and
    # the first planned query repopulates it from the restored sizes).
    accountant = body["accountant"]
    if "query" in accountant["strings"]:
        queries = accountant["label"] == accountant["strings"].index("query")
        if queries.any():
            db._query_seq = int(accountant["number"][queries].max())
    return db


# -- columns back into live state ----------------------------------------------
def _restore_ledger(group: TransformGroup, entry: dict, index: int) -> None:
    """Adopt one group's budget columns, refusing any that do not fit its
    logs or describe a budget no stream can reach."""
    ledger = group.ledger
    where = f"transform group {index} ({group.probe_log.name} x {group.driver_log.name})"
    if (entry["omega"], entry["budget"]) != (ledger.omega, ledger.budget):
        raise PersistenceError(
            f"{where}: snapshot ledger has omega={entry['omega']}, "
            f"budget={entry['budget']}; the group was wired with "
            f"omega={ledger.omega}, budget={ledger.budget}"
        )
    try:
        ledger.restore_state(
            {group.probe_log.name: entry["probe"], group.driver_log.name: entry["driver"]}
        )
    except PersistenceError as exc:
        raise PersistenceError(f"{where}, {exc}") from exc
