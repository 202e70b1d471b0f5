"""Offline converter for snapshots of format versions 1–7.

:func:`repro.server.persistence.restore_database` reads only the current
format, a checkpoint directory of per-party files.  This module is the one place that still knows the older ones,
and what each lacked:

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
* versions 4 and 5 are the current container, read by its own checked
  reader, with the per-batch body of every version before 6: each
  uploaded batch a ``shared_tables`` pool entry of its own, referred to
  by index from its table's log and from every transform-group scope;
  version 4 also held view shards row-major;
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
resolves the pool indices into share tables, takes each group's budget
from its scopes and ledger once, and writes the result exactly as
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
from ..common.metrics import MetricLog, QueryObservation
from ..common.rng import spawn
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from .persistence import (
    _DIGEST_BYTES,
    _PREAMBLE,
    SNAPSHOT_MAGIC,
    SnapshotInfo,
    _ArrayLoader,
    _CHUNK_BYTES,
    _columnar_layout,
    _decode_table_pool,
    _integrity_error,
    _write_snapshot,
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
    record when the state was captured, not when it was converted.
    """
    old = os.fspath(old)
    version = _container_version(old)
    if version is not None:
        body, created_at = _read_container(old, version)
    else:
        document = _load_legacy(old)
        body = _current_layout(_inflate_arrays(document["body"]))
        created_at = float(document.get("created_at", 0.0))
    if version == 7:  # already laid out as a base is
        return _write_snapshot(new, body, created_at)
    try:
        if version == 6:
            tables, groups = _columnar_parts(body)
        else:
            tables, groups = _per_batch_parts(_resolve_pool(body))
        columns = _columnar_layout(_legacy_logs(body), tables, groups)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise PersistenceError(
            f"snapshot {old!r} does not have the layout of format version "
            f"{version or '1-3'}: {exc!r}"
        ) from exc
    return _write_snapshot(new, columns, created_at)


def _container_version(path: str) -> int | None:
    """The format version of the container at ``path``, or ``None`` if it
    starts as a JSON document does.

    A checkpoint directory — the current format — is refused here.
    """
    if os.path.isdir(path):
        raise PersistenceError(
            f"snapshot {path!r} is already in the current format"
        )
    try:
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(preamble) < _PREAMBLE.size or not preamble.startswith(SNAPSHOT_MAGIC):
        return None
    version = _PREAMBLE.unpack(preamble)[1]
    if version not in CONTAINER_VERSIONS:
        raise PersistenceError(
            f"snapshot {path!r} has format version {version}; "
            f"upgrade-snapshot converts versions {LEGACY_VERSIONS + CONTAINER_VERSIONS}"
        )
    return version


def _read_container(path: str, version: int) -> tuple[dict, float]:
    """Read and authenticate the single-file container at ``path`` —
    magic, version, head length, head, arrays, and the SHA-256 of every
    byte before it as the last 32 — into its body and ``created_at``.

    Returns only after the trailer matched, with every array of the body
    filled.  Damage that surfaces as a structural error first (a flipped
    digit in a length, a cut-off array section) is still reported as the
    failed integrity check it is once the rest of the file is hashed.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            payload_end = size - _DIGEST_BYTES
            preamble = fh.read(_PREAMBLE.size)
            if payload_end < _PREAMBLE.size:
                raise PersistenceError(
                    f"snapshot {path!r} is truncated: {size} bytes cannot hold "
                    "a head and a digest"
                )
            head_len = _PREAMBLE.unpack(preamble)[2]
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
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    return head["body"], float(head["created_at"])


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
    """``body`` with each ``shared_tables`` index replaced by its table.

    View shards come out column-major, as a live view holds them.
    """
    pool = _decode_table_pool(body.pop("shared_tables"))

    def table(index) -> SharedTable:
        if not 0 <= index < len(pool):
            raise PersistenceError(f"batch references unknown share blob {index}")
        return pool[index]

    scopes = [g[key] for g in body["groups"] for key in ("probe_scope", "driver_scope")]
    for batches in (*(t["batches"] for t in body["tables"].values()), *scopes):
        for batch in batches:
            batch["table"] = table(batch["table"])
    for entry in body["views"]:
        entry["cache"] = table(entry["cache"])
        view = entry["view"]
        view["shards"] = [_column_major(table(i)) for i in view["shards"]]
    return body


def _column_major(table: SharedTable) -> SharedTable:
    rows = table.rows
    return SharedTable(
        table.schema,
        SharedArray(np.asfortranarray(rows.share0), np.asfortranarray(rows.share1)),
        table.flags,
    )


def _legacy_logs(body: dict) -> dict:
    """``body`` with its JSON accountant and metric logs as the objects
    :func:`~repro.server.persistence._state_body` hands out."""
    body["accountant"] = [
        (name, epsilon, _legacy_segment(segment))
        for name, epsilon, segment in body["accountant"]
    ]
    body["metrics"] = _legacy_metric_log(body["metrics"])
    for entry in body["views"]:
        entry["metrics"] = _legacy_metric_log(entry["metrics"])
    return body


def _legacy_segment(entry):
    if not isinstance(entry, dict):
        raise PersistenceError(f"malformed segment entry: {entry!r}")
    if "tuple" in entry:
        return tuple(_legacy_segment(s) for s in entry["tuple"])
    return entry["value"]


def _legacy_metric_log(entry: dict) -> MetricLog:
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
    them as columns (and the logical mirror as the current format does);
    its pool indices and metadata text become what
    :func:`~repro.server.persistence._state_body` hands out."""
    pool = _decode_table_pool(body.pop("shared_tables"))
    for entry in body["views"]:
        entry["cache"] = pool[entry["cache"]]
        entry["view"]["shards"] = [pool[i] for i in entry["view"]["shards"]]
    body["metadata"] = json.loads(body["metadata"])
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
