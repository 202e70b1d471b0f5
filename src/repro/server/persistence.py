"""Checkpoint/restore persistence for the multi-view database.

A deployed :class:`~repro.server.database.IncShrinkDatabase` is meant to
run forever — owners upload, Transform feeds caches, Shrink updates
views, the accountant tallies spent ε.  All of that is state that must
survive a process restart (the DP-Sync framing of synchronization state
as durable), and one piece of it is *privacy critical*: replaying
releases against a fresh accountant would silently double-spend budget,
so the realized-ε ledger must round-trip exactly.

A checkpoint at ``PATH`` is a **directory of four files**
(format version 8), split the way the paper's parties hold the
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

Each file is a hash-chained base plus append-only segments, and
``public``, written last, carries the commit record naming where the
other three end: the file format, the torn-tail rule and the fsyncs are
:mod:`repro.storage.chain`'s, which knows no database.  This module
decides what each file's body holds: the walk, the split by party and
the rebuild.

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

The writer keeps, per database and path, its marks and the chain it
last committed; it writes a fresh base whenever the files on disk are
not the ones it last wrote, the deployment's configuration changed (a
reshard), a log is not the one it marked — and, to compact, once the
segments outgrow the base.  A compacted checkpoint is byte-equal to a
fresh full one with the same ``created_at``.

:func:`restore_database` checks every file's chain **before any state
is applied** (a torn tail restores the last commit, and
:attr:`SnapshotInfo.discarded_bytes` reports the bytes left behind).
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

import json
import os
import time as _time
import weakref
from dataclasses import asdict, dataclass, replace
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
from ..storage.chain import Chain, Tail, by_columns, commit, read
from ..storage.outsourced_table import OutsourcedTable
from .database import IncShrinkDatabase, ViewRegistration
from .scheduler import TransformGroup

#: A checkpoint's files, in the order a checkpoint writes them: ``public``
#: last, its commit record naming the other three.
CHECKPOINT_FILES = ("party0", "party1", "trusted", "public")

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
        the walk writes them: plain in a base, :class:`Tail` in a segment."""
        if self.previous is None:
            return rows
        if isinstance(rows, dict):
            return {key: self.cut(value, start) for key, value in rows.items()}
        return Tail(rows, start)

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
    if isinstance(node, Tail) and not len(node.rows):
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

    def extend(self, tail: Tail) -> None:
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
        if self.base.ndim == 1 or not any(by_columns(p) for p in self.parts):
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
            elif entry is Tail and type(value.rows) is not list:
                current = held.get(key)
                if type(current) is not _Pieces:
                    current = held[key] = _Pieces(current)
                    joins.append((held, key))
                current.extend(value)
            elif entry is Tail:
                held[key] = _apply(held.get(key), value, joins)
            else:
                held[key] = value
        return held
    if kind is Tail:
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


def _replayed(bodies: list[dict]) -> dict:
    """One file's body: its base's with every segment's applied."""
    body, joins = bodies[0], []
    for new in bodies[1:]:
        body = _apply(body, new, joins)
    for container, key in joins:
        container[key] = container[key].array()
    return body


@dataclass
class _Held:
    """What a database's checkpoint at one path holds, as this process
    last wrote or read it: where the walk left each log, the accountant's
    string table as written, the skeleton's text and the files' chain."""

    marks: dict
    strings: dict
    static: str
    chain: Chain

    @classmethod
    def of(cls, db: IncShrinkDatabase, marks: _Marks, body: dict, chain: Chain) -> _Held:
        """``db`` as ``marks`` left its logs and ``body`` (the full body,
        written or replayed) describes, held in ``chain``."""
        return cls(
            marks=marks.now,
            strings={s: i for i, s in enumerate(body["accountant"]["strings"])},
            static=_static_text(db),
            chain=chain,
        )


#: Each database's checkpoints, by path — dropped with the database.
_CHAINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
    held_at = _CHAINS.setdefault(db, {})
    key = os.path.abspath(path)
    # Dropped unless this checkpoint commits: after a failure the next
    # one writes a fresh base.
    held = held_at.pop(key, None)
    kind = "base"
    if held is not None and held.chain.on_disk(path):
        kind = "compaction" if held.chain.segment_bytes > held.chain.base_bytes else "segment"
    if kind == "segment":
        try:
            if _static_text(db) != held.static:
                raise _Rebase
            marks, strings = _Marks(key, held.marks), dict(held.strings)
            bodies = _split(_walk(db, metadata, marks, strings))
        except _Rebase:
            kind = "base"
    if kind == "segment":
        chain, written = commit(path, bodies, created_at, held.chain)
        held_at[key] = replace(held, marks=marks.now, strings=strings, chain=chain)
    else:
        marks = _Marks(key)
        body = _snapshot_body(db, metadata, marks)
        chain, written = commit(path, _split(body), created_at)
        held_at[key] = _Held.of(db, marks, body, chain)
    return SnapshotInfo(
        path=path,
        bytes_written=written,
        sha256=chain.digest.hex(),
        created_at=created_at,
        kind=kind,
        segments=chain.segments,
    )


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
    directory, bodies, chain = read(path, CHECKPOINT_FILES)
    body = _join([_replayed(bodies[name]) for name in CHECKPOINT_FILES])
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
    if directory == path:
        marks = _Marks(os.path.abspath(path), writes=False)
        _walk(db, None, marks, {})
        _CHAINS.setdefault(db, {})[os.path.abspath(path)] = _Held.of(db, marks, body, chain)
    files = chain.files.values()
    info = SnapshotInfo(
        path=path,
        bytes_written=sum(f.length for f in files),
        sha256=chain.digest.hex(),
        created_at=chain.created_at,
        kind="segment" if chain.segments else "base",
        segments=chain.segments,
        discarded_bytes=sum(f.identity[2] - f.length for f in files),
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
    # cache is deliberately not persisted (the first planned query
    # repopulates it from the restored sizes).
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
