"""Snapshot/restore persistence for the multi-view database.

A deployed :class:`~repro.server.database.IncShrinkDatabase` is meant to
run forever — owners upload, Transform feeds caches, Shrink updates
views, the accountant tallies spent ε.  All of that is server-side state
that must survive a process restart (the DP-Sync framing of
synchronization state as durable), and one piece of it is *privacy
critical*: replaying releases against a fresh accountant would silently
double-spend budget, so the realized-ε ledger must round-trip exactly.

This module serializes the full outsourced state to one
**integrity-checked** file:

* secret shares are persisted as *shares* — each server durably stores
  its own half; nothing is ever recombined on the way to disk;
* every upload is stored once: a table's upload log is written as the
  share buffers it is held in, and each transform group's contribution
  ledger as the columns it keeps beside that log;
* both MPC servers' RNG states and the owner-side sharing generator are
  captured, so a restored database continues the *identical* randomness
  streams — byte-identical Shrink noise, resharing, and query answers;
* the shard layout round-trips: ``config.n_shards`` plus each view's
  per-shard tables, so a restored deployment scans with the same
  parallelism it was checkpointed with.

The file is a binary container (:data:`SNAPSHOT_VERSION` 7)::

    magic (18 B) | version (u16) | head length (u64) | head | arrays | SHA-256

The *head* is the body assembled by :func:`_snapshot_body` as compact
UTF-8 JSON (``{"created_at": …, "body": …}``) in which every array is
reduced to ``{"dtype", "shape", "offset"}``; the arrays follow as their
raw bytes, back to back, in the order the head names them — C order,
unless the entry also says ``"order": "F"``: a view shard's share half
is held column-major, and is written the way memory holds it, one
column's run after the other, and read back into a buffer the restored
shard adopts, so neither direction transposes.
The 32-byte trailer is the SHA-256 of every byte before it, fed to the
hash as the bytes are written — the body is serialised once and each
byte hashed once.  :func:`restore_database` checks every size the file
declares against the file's real size before it allocates, reads each
array straight into the ``ndarray`` the restored database will own,
hashes the same bytes in the same pass, and compares the trailer
**before any state is applied**; every way a file can be malformed
raises :class:`~repro.common.errors.PersistenceError`.

Every array costs the same on both sides whatever its size — a head
entry, a write and a hash update out; an allocation and a read in —
while JSON costs a Python call per scalar, so every log that grows with
uploads, releases or served queries is written as **columns** and the
head does not grow with the stream (only the digits of its sizes do):
a table's upload ``log`` (``times``, ``lengths``, and the rows and
flags as one ``s0``/``s1`` pair each), each transform group's budget
once (``uses``, ``emitted``, ``invocations`` per table), the
accountant's events (``name``, ``label`` and ``tenant`` indexing the
head's ``strings`` table, ``epsilon``, ``number``), each metric log
(``query_*`` and one column per step field) and the owners'
``logical`` mirror (``times``, ``lengths``, ``rows``).  Each is a
:class:`~repro.common.column_log.ColumnLog` — for the accountant and
the metric logs, whose live form is a list, a schema their columns are
encoded and checked through — whose columns declare their dtype,
trailing shape and invariants (``docs/ARCHITECTURE.md`` tables them).
The writer writes each log's ``columns()``; the reader hands its
arrays to ``adopt()``, which refuses any log a stream could not have
produced, naming the log, the column and the invariant.  An
accountant event's segment is ``(label, number)`` or ``(label, number,
"tenant", id)``; an event over any other is refused before any file is
created.

Caches, view shards and counters stay in the ``shared_tables`` pool,
one entry each.  The caller's metadata is one JSON string in the head,
which neither direction's array handling looks inside.

Snapshots of format versions 1–6 are not read here: ``python -m repro
upgrade-snapshot OLD NEW`` (:mod:`repro.server.snapshot_upgrade`)
converts one offline.

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

import hashlib
import json
import math
import os
import re
import struct
import tempfile
import time as _time
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Hashable

import numpy as np

from ..common.column_log import Column, ColumnLog, Increasing, InRange, Positive
from ..common.errors import PersistenceError
from ..common.metrics import MetricLog, QueryObservation
from ..common.types import Schema
from ..core.view_def import JoinViewDefinition
from ..dp.accountant import TENANT_SEGMENT_MARK
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from .database import IncShrinkDatabase, ViewRegistration
from .scheduler import TransformGroup

#: File magic — identifies an IncShrink database snapshot.
SNAPSHOT_MAGIC = b"incshrink-snapshot"
#: Bump on any incompatible change to the container or the body layout.
#: Only :mod:`repro.server.snapshot_upgrade` reads older versions: 1–3
#: were JSON documents, 4 and 5 this container with an array entry per
#: uploaded batch and share half (5 added the ``"order"`` key), 6 wrote
#: the upload logs as columns but the accountant and metric logs as JSON,
#: and each group's budget twice.
SNAPSHOT_VERSION = 7

#: magic, format version, head length — the fixed-size start of the file.
_PREAMBLE = struct.Struct(f">{len(SNAPSHOT_MAGIC)}sHQ")
_DIGEST_BYTES = hashlib.sha256().digest_size
#: Read size for hashing bytes that are not read into an array.
_CHUNK_BYTES = 1 << 20

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
    """Receipt of one written snapshot."""

    path: str
    bytes_written: int
    sha256: str
    created_at: float


@dataclass
class RestoredDatabase:
    """A database reconstructed from disk plus the caller's metadata."""

    database: IncShrinkDatabase
    metadata: dict
    info: SnapshotInfo


# -- arrays: out of the head on the way out, back into it on the way in --------
#: What an array leaves behind in the head.  The key sets are reserved:
#: the reader takes any JSON object with exactly these keys for an array.
_ARRAY_KEYS = frozenset(("dtype", "shape", "offset"))
_ORDERED_ARRAY_KEYS = _ARRAY_KEYS | {"order"}
_DTYPE_STR = re.compile(r"[<>|][biuf][0-9]{1,2}")


class _ArraySection:
    """The arrays of one snapshot being written, in file order.

    The body holds its arrays as ``ndarray`` leaves.  :meth:`lift` is the
    JSON encoder's ``default`` hook: it moves each array here — as the
    contiguous chunks to write, none of them a copy of an array that
    already is one run or one run per column — and leaves its dtype,
    shape and byte offset within the section in the head.
    """

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.nbytes = 0

    def lift(self, value: object) -> dict:
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"cannot persist a value of type {type(value).__name__}"
            )
        entry = {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "offset": self.nbytes,
        }
        if _is_column_major(value):
            entry["order"] = "F"
            self.chunks.extend(value.T)
        else:
            self.chunks.append(np.ascontiguousarray(value))
        self.nbytes += value.nbytes
        return entry


def _is_column_major(arr: np.ndarray) -> bool:
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


class _ArrayLoader:
    """Allocates the arrays a head names — never more than the file holds.

    :meth:`claim` is the JSON decoder's ``object_hook``: each array entry
    becomes an empty, owned ``ndarray`` of its dtype and shape, to be
    filled from the array section in the order claimed — a column-major
    entry the transposed face of a C-contiguous buffer, filled in the
    same single pass.  An entry that is not where the previous one
    ended, or that reaches past the ``limit`` bytes the file has left,
    is refused before it is allocated.
    """

    def __init__(self, limit: int) -> None:
        self.arrays: list[np.ndarray] = []
        self.nbytes = 0
        self.limit = limit

    def claim(self, entry: dict) -> object:
        keys = entry.keys()
        if keys == _ARRAY_KEYS:
            column_major = False
        elif keys == _ORDERED_ARRAY_KEYS:
            column_major = True
        else:
            return entry
        dtype, shape, offset = entry["dtype"], entry["shape"], entry["offset"]
        try:
            # Only what ``ndarray.dtype.str`` spells for plain numbers:
            # ``np.dtype`` parses a whole language of strings otherwise.
            if not (
                isinstance(dtype, str)
                and _DTYPE_STR.fullmatch(dtype)
                and isinstance(shape, list)
                and all(isinstance(d, int) and d >= 0 for d in shape)
            ):
                raise TypeError("unusable dtype or shape")
            if column_major and (entry["order"] != "F" or len(shape) != 2):
                raise TypeError("unusable order")
            dtype = np.dtype(dtype)
            nbytes = dtype.itemsize * math.prod(shape)
            if offset != self.nbytes or nbytes > self.limit - self.nbytes:
                raise ValueError(
                    f"{nbytes} bytes do not continue the array section at "
                    f"{self.nbytes} of {self.limit}"
                )
            arr = np.empty(shape[::-1] if column_major else shape, dtype)
        except (TypeError, ValueError) as exc:
            raise PersistenceError(
                f"malformed array entry {entry!r}: {exc}"
            ) from exc
        self.arrays.append(arr)
        self.nbytes += nbytes
        return arr.T if column_major else arr


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


def _accountant_columns(events: list[tuple[str, float, Hashable]]) -> dict:
    """The accountant's events as columns beside one string table.

    A segment is ``(label, number)``, as a view's release and an
    unattributed query write it, or ``(label, number, "tenant", id)``, as
    a tenant's query writes it; any other event, and any ε that is not
    finite and positive, is refused here, before any file is created.
    """
    strings: dict[str, int] = {}
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
    return {"strings": list(strings), **log.columns()}


def _accountant_events(columns: dict) -> list[tuple[str, float, Hashable]]:
    strings = columns["strings"]
    if not (isinstance(strings, list) and all(isinstance(s, str) for s in strings)):
        raise PersistenceError("the accountant's string table is not a list of strings")
    log = _event_log(len(strings))
    log.adopt(columns)
    events = log.view()
    return [
        (
            strings[n],
            eps,
            (strings[lab], t) if k < 0
            else (strings[lab], t, TENANT_SEGMENT_MARK, strings[k]),
        )
        for n, eps, lab, t, k in zip(
            *(events[key].tolist() for key in ("name", "epsilon", "label", "number", "tenant"))
        )
    ]


# -- metric logs: one column per field ------------------------------------------
_QUERY_FIELDS = (
    ("time", np.int64),
    ("logical_answer", np.float64),
    ("view_answer", np.float64),
    ("qet_seconds", np.float64),
)
_STEP_FIELDS = (
    ("transform_seconds", np.float64),
    ("shrink_seconds", np.float64),
    ("view_size_rows", np.int64),
    ("view_size_bytes", np.int64),
    ("cache_size_rows", np.int64),
    ("deferred_counts", np.int64),
)


def _metric_logs(owner: str) -> list[ColumnLog]:
    """A metric log as persisted: its query observations, one aligned
    column per field, and each per-step field a log of its own (a step
    appends to some of them only)."""
    return [
        ColumnLog(
            f"{owner} query metrics",
            [Column(f"query_{field}", dtype) for field, dtype in _QUERY_FIELDS],
        ),
        *(
            ColumnLog(f"{owner} {field} metrics", [Column(field, dtype)])
            for field, dtype in _STEP_FIELDS
        ),
    ]


def _metric_columns(log: MetricLog) -> dict:
    queries = log.queries
    columns = {
        f"query_{field}": np.fromiter(map(attrgetter(field), queries), dtype, len(queries))
        for field, dtype in _QUERY_FIELDS
    }
    for field, dtype in _STEP_FIELDS:
        values = getattr(log, field)
        columns[field] = np.fromiter(values, dtype, len(values))
    return columns


def _metric_log(columns: dict, owner: str) -> MetricLog:
    queries, *steps = _metric_logs(owner)
    for column_log in (queries, *steps):
        column_log.adopt(columns)
    log = MetricLog()
    log.queries = list(map(QueryObservation, *(q.tolist() for q in queries.view().values())))
    for (field, _), column_log in zip(_STEP_FIELDS, steps):
        setattr(log, field, column_log[field].tolist())
    return log


class _TableInterner:
    """Encode each distinct :class:`SharedTable` object exactly once.

    The pool holds the tables that are not batch logs — each view's cache
    and view shards — as one entry apiece; a view refers to its tables
    by index into it.
    """

    def __init__(self) -> None:
        self.pool: list[dict] = []
        self._index: dict[int, int] = {}

    def ref(self, table: SharedTable) -> int:
        key = id(table)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.pool)
            self._index[key] = idx
            self.pool.append(
                {
                    "fields": list(table.schema.fields),
                    "rows": _encode_shared_array(table.rows),
                    "flags": _encode_shared_array(table.flags),
                }
            )
        return idx


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


# -- body assembly ------------------------------------------------------------
def _snapshot_body(db: IncShrinkDatabase, metadata: dict | None) -> dict:
    """The body of :data:`SNAPSHOT_VERSION`: every upload log and budget
    ledger as the live columns it already is (see the module docstring)."""
    db.finalize()
    tables = {
        name: {"schema": list(store.schema.fields), "log": store.columns()}
        for name, store in db.tables.items()
    }
    groups = [_group_columns(group) for group in db.groups.values()]
    return _columnar_layout(_state_body(db, metadata), tables, groups)


def _state_body(db: IncShrinkDatabase, metadata: dict | None) -> dict:
    """Everything but the upload logs and budgets, as the storage hooks
    hand it out: every share table is the live object, the logical mirror
    its columns, the accountant its list of events, each metric log the
    object itself.

    The upgrader builds the same shape from an older body, so both are
    laid out by :func:`_columnar_layout`.
    """
    views = []
    for name, vr in db.views.items():
        policy_state = None
        if vr.policy is not None:
            policy_state = dict(vr.policy.snapshot_state())
            shares = policy_state.pop("threshold_shares", None)
            policy_state["threshold_shares"] = (
                None if shares is None else _encode_shared_array(shares)
            )
        views.append(
            {
                "name": name,
                "cache": vr.cache.snapshot_state(),
                "view": vr.view.snapshot_state(),
                "counter": (
                    None
                    if vr.counter is None
                    else _encode_shared_array(vr.counter.snapshot_state())
                ),
                "policy": policy_state,
                "metrics": vr.metrics,
            }
        )

    runtime = db.runtime
    return {
        "config": {
            "total_epsilon": db.total_epsilon,
            "nm_fallback": db.nm_fallback,
            "grid_steps": db.grid_steps,
            "multiplicity": db.planner.multiplicity,
            "n_shards": db.n_shards,
            "cost_model": asdict(runtime.cost_model),
        },
        "registrations": [_encode_registration(s) for s in db.registrations],
        "allocation": db.epsilon_allocation(),
        "logical": db.logical.snapshot_state(),
        "views": views,
        "accountant": db.accountant.snapshot_state(),
        "tenant_budgets": dict(db.tenant_budgets),
        "metrics": db.metrics,
        "rng": {
            "server0": runtime.server0.words.state,
            "server1": runtime.server1.words.state,
            "owner": runtime.owner_words.state,
            "query_noise": db.query_noise_gen.bit_generator.state,
        },
        "metadata": metadata,
    }


def _columnar_layout(body: dict, tables: dict, groups: list[dict]) -> dict:
    """A :func:`_state_body`-shaped ``body`` with the upload logs and
    group budgets already in columns, laid out as the file holds it."""
    metadata = _metadata_text(body["metadata"])
    intern = _TableInterner()
    views = [
        {
            **view,
            "cache": intern.ref(view["cache"]),
            "view": {
                **view["view"],
                "shards": [intern.ref(t) for t in view["view"]["shards"]],
            },
            "metrics": _metric_columns(view["metrics"]),
        }
        for view in body["views"]
    ]
    return {
        "config": body["config"],
        "registrations": body["registrations"],
        "allocation": body["allocation"],
        "shared_tables": intern.pool,
        "tables": tables,
        "logical": body["logical"],
        "groups": groups,
        "views": views,
        "accountant": _accountant_columns(body["accountant"]),
        "tenant_budgets": body["tenant_budgets"],
        "metrics": _metric_columns(body["metrics"]),
        "rng": body["rng"],
        "metadata": metadata,
    }


def _metadata_text(metadata: dict | None) -> str:
    """The caller's metadata as one JSON string, refused here — before any
    file is created — unless it is plain JSON."""
    try:
        return json.dumps(dict(metadata or {}), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot metadata must be plain JSON: {exc}"
        ) from exc


def _group_columns(group: TransformGroup) -> dict:
    """A group's budget, once: its ledger's live columns per table."""
    ledger = group.ledger
    return {
        "signature": list(group.signature),
        "omega": ledger.omega,
        "budget": ledger.budget,
        "probe": ledger.snapshot_state(group.probe_log.name),
        "driver": ledger.snapshot_state(group.driver_log.name),
    }


# -- the container -----------------------------------------------------------------
def _write_snapshot(
    path: str | os.PathLike, body: dict, created_at: float
) -> SnapshotInfo:
    """Write ``body`` (ndarray leaves and all) as one container file.

    The write is atomic (temp file + rename), so a crash mid-snapshot
    leaves any previous snapshot at ``path`` intact.
    """
    section = _ArraySection()
    head = json.dumps(
        {"created_at": created_at, "body": body},
        separators=(",", ":"),
        default=section.lift,
    ).encode("utf8")
    preamble = _PREAMBLE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(head))
    digest = hashlib.sha256()
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (preamble, head, *section.chunks):
                fh.write(chunk)
                digest.update(chunk)
            fh.write(digest.digest())
            size = fh.tell()
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return SnapshotInfo(
        path=path,
        bytes_written=size,
        sha256=digest.hexdigest(),
        created_at=created_at,
    )


def _read_snapshot(
    path: str, versions: tuple[int, ...] = (SNAPSHOT_VERSION,)
) -> tuple[dict, SnapshotInfo]:
    """Read and authenticate one container of one of ``versions``: its
    body and its receipt.

    Returns only after the trailer matched, with every array of the body
    filled.  Damage to the file can surface as a structural error first
    (a flipped digit in a length, a cut-off array section); the rest of
    the file is then still hashed, so that damage is reported as the
    failed integrity check it is and "malformed" is left for files whose
    writer was wrong.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(_PREAMBLE.size)
        if preamble[:1] == b"{":
            raise PersistenceError(
                f"snapshot {path!r} is a JSON document, the snapshot format "
                f"of versions 1-3, which this build reads only to convert: "
                f"run `python -m repro upgrade-snapshot {path} NEW` and "
                "restore NEW"
            )
        if preamble[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise PersistenceError(f"{path!r} is not an IncShrink snapshot")
        payload_end = size - _DIGEST_BYTES
        if payload_end < _PREAMBLE.size:
            raise PersistenceError(
                f"snapshot {path!r} is truncated: {size} bytes cannot hold "
                "a head and a digest"
            )
        _, version, head_len = _PREAMBLE.unpack(preamble)
        if version not in versions:
            if version < SNAPSHOT_VERSION:
                raise PersistenceError(
                    f"snapshot {path!r} has format version {version}, which "
                    f"this build reads only to convert: run `python -m repro "
                    f"upgrade-snapshot {path} NEW` and restore NEW"
                )
            raise PersistenceError(
                f"snapshot {path!r} has format version {version}; this "
                f"build reads versions {versions}"
            )
        digest = hashlib.sha256(preamble)
        try:
            head = _read_payload(fh, digest, head_len, payload_end)
        except PersistenceError as exc:
            while chunk := fh.read(min(_CHUNK_BYTES, payload_end - fh.tell())):
                digest.update(chunk)
            if fh.read() != digest.digest():
                raise _integrity_error(path) from exc
            raise PersistenceError(
                f"snapshot {path!r} is malformed: {exc}"
            ) from exc
        if fh.read() != digest.digest():
            raise _integrity_error(path)
    info = SnapshotInfo(
        path=path,
        bytes_written=size,
        sha256=digest.hexdigest(),
        created_at=float(head["created_at"]),
    )
    return head["body"], info


def _read_payload(fh, digest, head_len: int, payload_end: int) -> dict:
    """Head and arrays, hashed as read; sizes checked before allocating."""
    if head_len > payload_end - fh.tell():
        raise PersistenceError(
            f"head length {head_len} exceeds the {payload_end - fh.tell()} "
            "bytes the file has for it"
        )
    raw = fh.read(head_len)
    digest.update(raw)
    loader = _ArrayLoader(limit=payload_end - fh.tell())
    try:
        head = json.loads(raw, object_hook=loader.claim)
    except (ValueError, RecursionError) as exc:  # incl. invalid UTF-8
        raise PersistenceError(f"head is not valid JSON: {exc}") from exc
    if loader.nbytes != loader.limit:
        raise PersistenceError(
            f"head accounts for {loader.nbytes} array bytes, the file "
            f"holds {loader.limit} (truncated, or trailing bytes)"
        )
    if (
        not isinstance(head, dict)
        or not isinstance(head.get("body"), dict)
        or not isinstance(head.get("created_at"), (int, float))
    ):
        raise PersistenceError("head has no body or no created_at")
    for arr in loader.arrays:
        if arr.nbytes and fh.readinto(arr) != arr.nbytes:
            raise PersistenceError("file shrank while it was being read")
        digest.update(arr)
    return head


def _integrity_error(path: str) -> PersistenceError:
    return PersistenceError(
        f"snapshot {path!r} failed its integrity check (its SHA-256 trailer "
        "does not match its content); refusing to restore — resuming from "
        "corrupt state could double-spend budget"
    )


# -- public API ---------------------------------------------------------------
def snapshot_database(
    db: IncShrinkDatabase, path: str | os.PathLike, metadata: dict | None = None
) -> SnapshotInfo:
    """Serialize the database's full outsourced state to ``path``.

    ``metadata`` is an arbitrary JSON-serializable dict stored verbatim
    and handed back by :func:`restore_database` — the serving runtime
    uses it for its stream position and throughput counters.  The write
    is atomic, and the receipt's ``sha256`` is the file's trailer: the
    digest of every byte before it.
    """
    return _write_snapshot(path, _snapshot_body(db, metadata), _time.time())


def restore_database(path: str | os.PathLike) -> RestoredDatabase:
    """Reconstruct a database (and the caller's metadata) from ``path``.

    The restored instance answers queries byte-identically to the
    snapshotted one and reports the identical realized ε — the spent
    budget cannot be double-spent by a restart.  Nothing is rebuilt from
    a file whose trailer does not match.
    """
    path = os.fspath(path)
    try:
        body, info = _read_snapshot(path)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
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
        vr.metrics = _metric_log(entry["metrics"], f"view {name!r}")

    # Privacy ledger and database-level query log.
    db.accountant.restore_state(_accountant_events(body["accountant"]))
    db.metrics = _metric_log(body["metrics"], "database")
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
    db._query_seq = max(
        (
            int(e.segment[1])
            for e in db.accountant.events
            if isinstance(e.segment, tuple) and e.segment[:1] == ("query",)
        ),
        default=0,
    )
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
