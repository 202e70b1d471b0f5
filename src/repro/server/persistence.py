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
* share aliasing is preserved: the physical base-table store and every
  transform group's budget scope wrap the *same* uploaded
  :class:`~repro.sharing.shared_value.SharedTable` objects, and the
  snapshot interns each object once so a restore re-creates exactly the
  same sharing structure (uploads are stored once, not per view);
* both MPC servers' RNG states and the owner-side sharing generator are
  captured, so a restored database continues the *identical* randomness
  streams — byte-identical Shrink noise, resharing, and query answers;
* the shard layout round-trips: ``config.n_shards`` plus each view's
  per-shard tables, so a restored deployment scans with the same
  parallelism it was checkpointed with.

The file is a binary container (:data:`SNAPSHOT_VERSION` 5)::

    magic (18 B) | version (u16) | head length (u64) | head | arrays | SHA-256

The *head* is the body assembled by :func:`_snapshot_body` as compact
UTF-8 JSON (``{"created_at": …, "body": …}``) in which every array is
reduced to ``{"dtype", "shape", "offset"}``; the arrays follow as their
raw bytes, back to back, in the order the head names them — C order,
unless the entry also says ``"order": "F"``: a view shard's share half
is held column-major, and is written the way memory holds it, one
column's run after the other, and read back into a buffer the restored
shard adopts, so neither direction transposes (version 4, which this
build still restores, is the same container without that key).
The 32-byte trailer is the SHA-256 of every byte before it, fed to the
hash as the bytes are written — the body is serialised once and each
byte hashed once.  :func:`restore_database` checks every size the file
declares against the file's real size before it allocates, reads each
array straight into the ``ndarray`` the restored database will own,
hashes the same bytes in the same pass, and compares the trailer
**before any state is applied**; every way a file can be malformed
raises :class:`~repro.common.errors.PersistenceError`.

The JSON-document snapshots of format versions 1–3 are not read here:
``python -m repro upgrade-snapshot OLD NEW``
(:mod:`repro.server.snapshot_upgrade`) converts one offline.

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
from typing import Any, Hashable

import numpy as np

from ..common.errors import PersistenceError
from ..common.metrics import MetricLog, QueryObservation
from ..common.types import Schema
from ..core.view_def import JoinViewDefinition
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from .database import IncShrinkDatabase, ViewRegistration

#: File magic — identifies an IncShrink database snapshot.
SNAPSHOT_MAGIC = b"incshrink-snapshot"
#: Bump on any incompatible change to the container or the body layout.
#: Versions 1–3 were JSON documents; only
#: :mod:`repro.server.snapshot_upgrade` still reads them.  Version 5
#: added the optional ``"order"`` key of an array entry.
SNAPSHOT_VERSION = 5
#: Container versions :func:`restore_database` reads: a version-4 file is
#: a version-5 file none of whose arrays is column-major.
READABLE_VERSIONS = (4, SNAPSHOT_VERSION)

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


def _encode_segment(segment: Hashable) -> Any:
    """Encode an accountant segment key (scalars and nested tuples)."""
    if isinstance(segment, tuple):
        return {"tuple": [_encode_segment(s) for s in segment]}
    if segment is None or isinstance(segment, (bool, int, float, str)):
        return {"value": segment}
    raise PersistenceError(
        f"cannot persist accountant segment of type {type(segment).__name__}"
    )


def _decode_segment(entry: Any) -> Hashable:
    if not isinstance(entry, dict):
        raise PersistenceError(f"malformed segment entry: {entry!r}")
    if "tuple" in entry:
        return tuple(_decode_segment(s) for s in entry["tuple"])
    return entry["value"]


def _encode_metric_log(log: MetricLog) -> dict:
    return {
        "queries": [
            [q.time, q.logical_answer, q.view_answer, q.qet_seconds]
            for q in log.queries
        ],
        "transform_seconds": list(log.transform_seconds),
        "shrink_seconds": list(log.shrink_seconds),
        "view_size_rows": list(log.view_size_rows),
        "view_size_bytes": list(log.view_size_bytes),
        "cache_size_rows": list(log.cache_size_rows),
        "deferred_counts": list(log.deferred_counts),
    }


def _decode_metric_log(entry: dict) -> MetricLog:
    log = MetricLog()
    log.queries = [
        QueryObservation(int(t), float(la), float(va), float(qet))
        for t, la, va, qet in entry["queries"]
    ]
    log.transform_seconds = [float(x) for x in entry["transform_seconds"]]
    log.shrink_seconds = [float(x) for x in entry["shrink_seconds"]]
    log.view_size_rows = [int(x) for x in entry["view_size_rows"]]
    log.view_size_bytes = [int(x) for x in entry["view_size_bytes"]]
    log.cache_size_rows = [int(x) for x in entry["cache_size_rows"]]
    log.deferred_counts = [int(x) for x in entry["deferred_counts"]]
    return log


class _TableInterner:
    """Encode each distinct :class:`SharedTable` object exactly once.

    The physical base-table store and every transform group's budget
    scope hold references to the *same* uploaded share objects.  The
    interner maps object identity to an index into one shared pool, so
    the on-disk format stores every upload once and a restore rebuilds
    the exact aliasing graph.
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
    db.finalize()
    intern = _TableInterner()

    tables = {}
    for name, store in db.tables.items():
        tables[name] = {
            "schema": list(store.schema.fields),
            "batches": _encode_batches(store.snapshot_state(), intern),
        }

    groups = []
    for group in db.groups.values():
        groups.append(
            {
                "signature": list(group.signature),
                "probe_scope": _encode_batches(
                    group.probe_scope.snapshot_state(), intern
                ),
                "driver_scope": _encode_batches(
                    group.driver_scope.snapshot_state(), intern
                ),
                "ledger": group.ledger.snapshot_state(),
            }
        )

    views = []
    for name, vr in db.views.items():
        view_state = vr.view.snapshot_state()
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
                "cache": intern.ref(vr.cache.snapshot_state()),
                "view": {
                    "shards": [intern.ref(t) for t in view_state["shards"]],
                    "update_count": view_state["update_count"],
                },
                "counter": (
                    None
                    if vr.counter is None
                    else _encode_shared_array(vr.counter.snapshot_state())
                ),
                "policy": policy_state,
                "metrics": _encode_metric_log(vr.metrics),
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
        "shared_tables": intern.pool,
        "tables": tables,
        "logical": db.logical.snapshot_state(),
        "groups": groups,
        "views": views,
        "accountant": [
            [name, eps, _encode_segment(segment)]
            for name, eps, segment in db.accountant.snapshot_state()
        ],
        "tenant_budgets": dict(db.tenant_budgets),
        "metrics": _encode_metric_log(db.metrics),
        "rng": {
            "server0": runtime.server0.words.state,
            "server1": runtime.server1.words.state,
            "owner": runtime.owner_words.state,
            "query_noise": db.query_noise_gen.bit_generator.state,
        },
        "metadata": dict(metadata or {}),
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


def _read_snapshot(path: str) -> tuple[dict, SnapshotInfo]:
    """Read and authenticate one container: its body and its receipt.

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
        if version not in READABLE_VERSIONS:
            raise PersistenceError(
                f"snapshot {path!r} has format version {version}; this "
                f"build reads versions {READABLE_VERSIONS}"
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
        metadata = dict(body["metadata"])
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

    # Physical base tables (shares from the interned pool).
    if set(body["tables"]) != set(db.tables):
        raise PersistenceError(
            f"snapshot tables {sorted(body['tables'])} do not match the "
            f"registered tables {sorted(db.tables)}"
        )
    for name, entry in body["tables"].items():
        db.tables[name].restore_state(_decode_batches(entry["batches"], pool))

    # Owners' logical mirror.
    db.logical.restore_state(body["logical"])

    # Transform groups: scopes alias the pool (same objects as the
    # physical store), ledgers restore their budget history.
    live_groups = list(db.groups.values())
    if len(live_groups) != len(body["groups"]):
        raise PersistenceError(
            f"snapshot has {len(body['groups'])} transform groups, the "
            f"re-registered database wired {len(live_groups)}"
        )
    for group, entry in zip(live_groups, body["groups"]):
        if list(group.signature) != entry["signature"]:
            raise PersistenceError(
                f"transform-group signature mismatch: snapshot "
                f"{entry['signature']!r} vs wired {list(group.signature)!r}"
            )
        group.probe_scope.restore_state(_decode_batches(entry["probe_scope"], pool))
        group.driver_scope.restore_state(
            _decode_batches(entry["driver_scope"], pool)
        )
        group.ledger.restore_state(entry["ledger"])

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
        vr.metrics = _decode_metric_log(entry["metrics"])

    # Privacy ledger and database-level query log.
    db.accountant.restore_state(
        [
            (name, eps, _decode_segment(segment))
            for name, eps, segment in body["accountant"]
        ]
    )
    db.metrics = _decode_metric_log(body["metrics"])
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


def _encode_batches(entries: list[dict], intern: _TableInterner) -> list[dict]:
    return [
        {
            "time": e["time"],
            "table": intern.ref(e["table"]),
            "invocations_used": e["invocations_used"],
            "emitted": e["emitted"],
        }
        for e in entries
    ]


def _decode_batches(entries: list[dict], pool: list[SharedTable]) -> list[dict]:
    decoded = []
    for e in entries:
        idx = int(e["table"])
        if not 0 <= idx < len(pool):
            raise PersistenceError(f"batch references unknown share blob {idx}")
        decoded.append(
            {
                "time": e["time"],
                "table": pool[idx],
                "invocations_used": e["invocations_used"],
                "emitted": e["emitted"],
            }
        )
    return decoded
