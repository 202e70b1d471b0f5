"""Offline converter for snapshots of format versions 1–7.

:func:`repro.server.persistence.restore_database` reads only the current
format, a checkpoint directory of per-party files.  This module is the
one place that still knows the older ones, and what each lacked:

* up to version 3 a snapshot was one JSON document — ``magic``,
  ``version``, ``sha256``, ``created_at``, ``body`` — whose arrays were
  base64 strings and whose digest covered the body re-serialised with
  sorted keys;
* v1 predates sharding: no ``config.n_shards`` (one shard), each view
  stored as one flat ``view.table``, and a cost model without the fields
  added since;
* snapshots written before the query compiler carry no ``query_noise``
  generator state — they never released a noisy query, so the fresh
  seed-0 stream a new database starts with is exactly right;
* v1 and v2 predate tenancy: no ``tenant_budgets`` (no caps);
* versions 4 to 7 are one container file — a base whose array section
  runs to its digest, read by the checkpoint reader — and 4 and 5 hold
  the per-batch body of every version before 6: each uploaded batch a
  ``shared_tables`` pool entry of its own, referred to by index from its
  table's log and from every transform-group scope; version 4 also held
  view shards row-major;
* every version up to 6 wrote the accountant's events and the metric
  logs as JSON — an event's segment as nested ``{"tuple": …}`` /
  ``{"value": …}`` objects — and each transform group's budget twice: a
  scope per table and a ledger over both in upload order, beside a
  physical upload log's own zero ``invocations_used``/``emitted``;
* version 6 wrote the upload logs, scopes and ledgers as columns;
* version 7 is the current body in one file: both servers' halves, the
  owners' generator and the public state side by side, with no
  segments — its hop to 8 is the writer's split into four files.

:func:`upgrade_snapshot` verifies the old digest, fills those gaps,
takes each upload log from its batches and each group's budget from its
scopes and ledger once, and rebuilds the database with the restore's
:func:`~repro.server.persistence._rebuild` — so it refuses what a
restore would refuse, before it writes anything.  Then the writer's one
walk checkpoints it, as
:func:`~repro.server.persistence.snapshot_database` writes a base::

    python -m repro upgrade-snapshot OLD NEW
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from ..common.errors import PersistenceError
from ..common.metrics import STEP_FIELDS, MetricLog
from ..common.rng import spawn
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from .persistence import (
    _DIGEST_BYTES,
    _PREAMBLE,
    SNAPSHOT_MAGIC,
    SnapshotInfo,
    _Marks,
    _accountant_columns,
    _applied,
    _base_receipt,
    _decode_table_pool,
    _integrity_error,
    _metric_columns,
    _read_entry,
    _snapshot_body,
    _write_base,
)

#: The JSON-document format versions this module converts.
LEGACY_VERSIONS = (1, 2, 3)
#: The single-file container versions this module converts.
CONTAINER_VERSIONS = (4, 5, 6, 7)

_LEGACY_ARRAY_KEYS = frozenset(("dtype", "shape", "data"))


def _int64s(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64)


def _concat(parts: list[np.ndarray], empty_shape: tuple, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(empty_shape, dtype)


def upgrade_snapshot(
    old: str | os.PathLike, new: str | os.PathLike
) -> SnapshotInfo:
    """Convert the version 1–7 snapshot at ``old`` into a checkpoint at
    ``new`` (a base, as the first checkpoint to a path writes one).

    The state is carried over exactly — shares, RNG streams, the ε ledger
    and the caller's metadata — and so is ``created_at``: the new files
    record when the state was captured, not when it was converted.  A
    state a restore would refuse is refused here, and nothing is written.
    """
    old = os.fspath(old)
    container = _read_container(old)
    if container is not None:
        version, body, created_at = container
    else:
        version, document = None, _load_legacy(old)
        body = _current_layout(_inflate_arrays(document["body"]))
        created_at = float(document.get("created_at", 0.0))
    try:
        if version == 6:
            body["tables"], body["groups"] = _columnar_parts(body)
        elif version != 7:
            body["tables"], body["groups"] = _per_batch_parts(_resolve_pool(body))
            body["metadata"] = json.dumps(body["metadata"])  # the writer's text since 6
        if version != 7:
            _legacy_logs(body)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise PersistenceError(
            f"snapshot {old!r} does not have the layout of format version "
            f"{version or '1-3'}: {exc!r}"
        ) from exc
    db, metadata = _applied(body, old)
    new = os.fspath(new)
    committed = _write_base(new, _snapshot_body(db, metadata), created_at)
    return _base_receipt(new, committed, created_at)


def _read_container(path: str) -> tuple[int, dict, float] | None:
    """The version, body and ``created_at`` of the single-file container
    at ``path`` — read and authenticated as a checkpoint's base is, its
    array section running to the digest — or ``None`` if it starts as a
    JSON document does.  A checkpoint directory (the current format) is
    refused here."""
    if os.path.isdir(path):
        raise PersistenceError(
            f"snapshot {path!r} is already in the current format"
        )
    try:
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size or not preamble.startswith(SNAPSHOT_MAGIC):
                return None
            _, version, head_len = _PREAMBLE.unpack(preamble)
            if version not in CONTAINER_VERSIONS:
                raise PersistenceError(
                    f"snapshot {path!r} has format version {version}; upgrade-snapshot "
                    f"converts versions {LEGACY_VERSIONS + CONTAINER_VERSIONS}"
                )
            end = os.fstat(fh.fileno()).st_size - _DIGEST_BYTES
            if _PREAMBLE.size + head_len > end:
                raise _integrity_error(path, f"its head reaches past byte {end}")
            digest = hashlib.sha256(preamble)
            array_len = end - _PREAMBLE.size - head_len
            head = _read_entry(fh, path, digest, head_len, array_len, end)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    return version, head["body"], float(head["created_at"])


def _load_legacy(path: str) -> dict:
    """The parsed document at ``path``, its digest verified."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # incl. invalid UTF-8
        raise PersistenceError(
            f"snapshot {path!r} is not valid JSON: {exc}"
        ) from exc
    if (
        not isinstance(document, dict)
        or document.get("magic") != SNAPSHOT_MAGIC.decode("ascii")
    ):
        raise PersistenceError(f"{path!r} is not an IncShrink snapshot")
    version = document.get("version")
    if version not in LEGACY_VERSIONS:
        raise PersistenceError(
            f"snapshot {path!r} has format version {version!r}; "
            f"upgrade-snapshot converts versions {LEGACY_VERSIONS}"
        )
    body = document.get("body")
    if not isinstance(body, dict):
        raise PersistenceError(f"snapshot {path!r} has no body")
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf8")).hexdigest()
    if digest != document.get("sha256"):
        raise PersistenceError(
            f"snapshot {path!r} failed its integrity check (stored digest "
            f"{document.get('sha256')!r}, computed {digest!r}); refusing to "
            "convert corrupt state"
        )
    return document


def _inflate_arrays(node):
    """``node`` with every base64 array entry replaced by its ``ndarray``."""
    if isinstance(node, list):
        return [_inflate_arrays(item) for item in node]
    if not isinstance(node, dict):
        return node
    if node.keys() != _LEGACY_ARRAY_KEYS:
        return {key: _inflate_arrays(value) for key, value in node.items()}
    try:
        raw = base64.b64decode(node["data"].encode("ascii"))
        arr = np.frombuffer(raw, dtype=np.dtype(node["dtype"]))
        return arr.reshape(tuple(int(d) for d in node["shape"]))
    except (AttributeError, ValueError, TypeError) as exc:
        raise PersistenceError(f"malformed array entry: {exc}") from exc


def _current_layout(body: dict) -> dict:
    """Fill in what versions 1–3 left out (see the module docstring)."""
    try:
        config = body["config"]
        config.setdefault("n_shards", 1)
        config["cost_model"] = asdict(CostModel(**config["cost_model"]))
        for entry in body["views"]:
            view = entry["view"]
            if "table" in view:
                view["shards"] = [view.pop("table")]
        body["rng"].setdefault(
            "query_noise", spawn(0, "query-noise").bit_generator.state
        )
    except (KeyError, TypeError) as exc:
        raise PersistenceError(
            f"snapshot body does not have the version 1-3 layout: {exc!r}"
        ) from exc
    body.setdefault("tenant_budgets", {})
    body.setdefault("metadata", {})
    return body


def _resolve_pool(body: dict) -> dict:
    """``body`` with each upload batch's ``shared_tables`` index, in its
    table's log and in every group scope, replaced by its table."""
    pool = _decode_table_pool(body["shared_tables"])

    def table(index) -> SharedTable:
        if not 0 <= index < len(pool):
            raise PersistenceError(f"batch references unknown share blob {index}")
        return pool[index]

    scopes = [g[key] for g in body["groups"] for key in ("probe_scope", "driver_scope")]
    for batches in (*(t["batches"] for t in body["tables"].values()), *scopes):
        for batch in batches:
            batch["table"] = table(batch["table"])
    return body


def _legacy_logs(body: dict) -> None:
    """The JSON accountant and metric logs of ``body`` as the columns the
    writer lays them out in."""
    body["accountant"] = _accountant_columns(
        [
            (name, epsilon, _legacy_segment(segment))
            for name, epsilon, segment in body["accountant"]
        ]
    )
    for entry in (body, *body["views"]):
        entry["metrics"] = _metric_columns(_legacy_metric_log(entry["metrics"]), _Marks(""))


def _legacy_segment(entry):
    if not isinstance(entry, dict):
        raise PersistenceError(f"malformed segment entry: {entry!r}")
    if "tuple" in entry:
        return tuple(_legacy_segment(s) for s in entry["tuple"])
    return entry["value"]


def _legacy_metric_log(entry: dict) -> MetricLog:
    log = MetricLog()
    for t, la, va, qet in entry["queries"]:
        log.queries.append_row(int(t), float(la), float(va), float(qet))
    for field, dtype in STEP_FIELDS:
        cast = int if dtype is np.int64 else float
        getattr(log, field).append([cast(x) for x in entry[field]])
    return log


def _unbudgeted(name: str, invocations_used: np.ndarray, emitted: np.ndarray) -> None:
    """Budgets were kept per transform group: a physical log's own are
    zeros, and a log that says otherwise is not one this converts."""
    if invocations_used.any() or emitted.any():
        raise PersistenceError(
            f"the upload log of table {name!r} carries a budget of its own; "
            "budgets are kept per transform group"
        )


def _budget_columns(group: dict, sides: list[tuple]) -> dict:
    """A group's budget as the writer lays it out, from the per-batch uses,
    per-row emissions and per-batch invocation times of each of its
    tables, probe first."""
    ledger = group["ledger"]
    omega, budget = ledger["omega"], ledger["budget"]
    entry = {"signature": group["signature"], "omega": omega, "budget": budget}
    for role, (uses, emitted, times) in zip(("probe", "driver"), sides):
        if [len(t) for t in times] != uses.tolist():
            raise PersistenceError(
                f"transform group {group['signature'][:2]!r}: its ledger and "
                "its scope disagree"
            )
        invocations = np.zeros((len(uses), budget // omega), dtype=np.int64)
        for k, t in enumerate(times):
            invocations[k, : len(t)] = t
        entry[role] = {"uses": uses, "emitted": emitted, "invocations": invocations}
    return entry


def _scopes(group: dict) -> list[tuple[str, str]]:
    """A group's two scope keys and tables: a transform signature starts
    with the probe and driver tables its scopes draw their batches from."""
    return list(zip(("probe_scope", "driver_scope"), group["signature"]))


def _check_log_order(name: str, positions: list, n_batches: int) -> None:
    """A scope must hold every batch of its table's log, in order: its
    budget columns are then the ledger's, aligned to the log."""
    if positions != list(range(n_batches)):
        raise PersistenceError(
            f"a scope over table {name!r} does not hold every batch of its "
            "log, in order"
        )


def _columnar_parts(body: dict) -> tuple[dict, list[dict]]:
    """The upload logs and group budgets of a version 6 body, which held
    them as columns (and the logical mirror as the current format does)."""
    tables = {}
    for name, entry in body["tables"].items():
        log = dict(entry["log"])
        _unbudgeted(name, log.pop("invocations_used"), log.pop("emitted"))
        tables[name] = {"schema": entry["schema"], "log": log}
    groups = []
    for group in body["groups"]:
        ledger = group["ledger"]
        counts = ledger["invocation_counts"]
        runs = np.split(ledger["invocations"], np.cumsum(counts)[:-1])
        sides = []
        for key, name in _scopes(group):
            scope = group[key]
            _check_log_order(name, scope["batches"].tolist(), len(tables[name]["log"]["times"]))
            times = [run for run, table in zip(runs, ledger["tables"]) if table == name]
            sides.append((scope["invocations_used"], scope["emitted"], times))
        groups.append(_budget_columns(group, sides))
    return tables, groups


def _per_batch_parts(body: dict) -> tuple[dict, list[dict]]:
    """The upload logs and group budgets of a version 1–5 body, whose
    logs, scopes and ledgers listed one entry per batch; its logical
    mirror, which listed one array per batch, becomes columns."""
    body["logical"] = {
        name: _logical_columns(entry) for name, entry in body["logical"].items()
    }
    tables, positions = {}, {}
    for name, entry in body["tables"].items():
        batches = entry["batches"]
        positions[name] = {id(b["table"]): i for i, b in enumerate(batches)}
        tables[name] = {
            "schema": entry["schema"],
            "log": _log_columns(name, batches, len(entry["schema"])),
        }
    groups = []
    for group in body["groups"]:
        sides = []
        for key, name in _scopes(group):
            batches = group[key]
            at = [positions[name].get(id(b["table"])) for b in batches]
            _check_log_order(name, at, len(positions[name]))
            times = [g["invocations"] for g in group["ledger"]["groups"] if g["table"] == name]
            sides.append(
                (
                    _int64s(b["invocations_used"] for b in batches),
                    _concat([b["emitted"] for b in batches], (0,), np.int64),
                    times,
                )
            )
        groups.append(_budget_columns(group, sides))
    return tables, groups


def _share_columns(arrays: list[SharedArray], empty_shape: tuple) -> dict:
    return {
        "s0": _concat([a.share0 for a in arrays], empty_shape, np.uint32),
        "s1": _concat([a.share1 for a in arrays], empty_shape, np.uint32),
    }


def _log_columns(name: str, batches: list[dict], width: int) -> dict:
    tables = [b["table"] for b in batches]
    _unbudgeted(
        name,
        _int64s(b["invocations_used"] for b in batches),
        _concat([b["emitted"] for b in batches], (0,), np.int64),
    )
    return {
        "times": _int64s(b["time"] for b in batches),
        "lengths": _int64s(len(t) for t in tables),
        "rows": _share_columns([t.rows for t in tables], (0, width)),
        "flags": _share_columns([t.flags for t in tables], (0,)),
    }


def _logical_columns(entry: dict) -> dict:
    width = len(entry["fields"])
    batches = [np.asarray(b, np.uint32).reshape(-1, width) for b in entry["batches"]]
    return {
        "fields": entry["fields"],
        "times": _int64s(entry["times"]),
        "lengths": _int64s(len(b) for b in batches),
        "rows": _concat(batches, (0, width), np.uint32),
    }
