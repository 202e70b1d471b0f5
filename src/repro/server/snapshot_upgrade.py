"""Offline converter for snapshots of format versions 1–5.

:func:`repro.server.persistence.restore_database` reads only the current
format.  This module is the one place that still knows the older ones,
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
  version 4 also held view shards row-major.

:func:`upgrade_snapshot` verifies the old digest, fills those gaps,
resolves the pool indices into share tables, lays every per-batch log
out as the columns of version 6 (:func:`_columnar_body`) and writes it
exactly as :func:`~repro.server.persistence.snapshot_database` would::

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
from ..common.rng import spawn
from ..mpc.cost_model import CostModel
from ..sharing.shared_value import SharedArray, SharedTable
from .persistence import (
    _PREAMBLE,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotInfo,
    _columnar_layout,
    _concat,
    _decode_table_pool,
    _int64s,
    _read_snapshot,
    _write_snapshot,
)

#: The JSON-document format versions this module converts.
LEGACY_VERSIONS = (1, 2, 3)
#: The container versions this module converts.
CONTAINER_VERSIONS = (4, 5)

_LEGACY_ARRAY_KEYS = frozenset(("dtype", "shape", "data"))


def upgrade_snapshot(
    old: str | os.PathLike, new: str | os.PathLike
) -> SnapshotInfo:
    """Convert the version 1–5 snapshot at ``old`` into one at ``new``.

    The state is carried over exactly — shares, RNG streams, the ε ledger
    and the caller's metadata — and so is ``created_at``: the new file
    records when the state was captured, not when it was converted.
    """
    old = os.fspath(old)
    if _is_container(old):
        body, info = _read_snapshot(old, CONTAINER_VERSIONS)
        created_at = info.created_at
    else:
        document = _load_legacy(old)
        body = _current_layout(_inflate_arrays(document["body"]))
        created_at = float(document.get("created_at", 0.0))
    try:
        columns = _columnar_body(_resolve_pool(body))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise PersistenceError(
            f"snapshot {old!r} does not have the per-batch layout of "
            f"versions 1-5: {exc!r}"
        ) from exc
    return _write_snapshot(new, columns, created_at)


def _is_container(path: str) -> bool:
    """Whether ``path`` starts as a container does, not as a JSON document.

    A container of the current version is refused here.
    """
    try:
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(preamble) < _PREAMBLE.size or not preamble.startswith(SNAPSHOT_MAGIC):
        return False
    if _PREAMBLE.unpack(preamble)[1] == SNAPSHOT_VERSION:
        raise PersistenceError(
            f"snapshot {path!r} is already in the current format"
        )
    return True


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


def _columnar_body(body: dict) -> dict:
    """The body of the current version for a per-batch body: each batch
    log, scope and ledger laid out as the columns the writer hands out."""
    tables, positions = {}, {}
    for name, entry in body["tables"].items():
        batches = entry["batches"]
        positions[name] = {id(b["table"]): i for i, b in enumerate(batches)}
        tables[name] = {
            "schema": entry["schema"],
            "log": _log_columns(batches, len(entry["schema"])),
        }
    groups = []
    for group in body["groups"]:
        # A transform signature starts with the probe and driver tables,
        # the tables the group's two scopes draw their batches from.
        probe_table, driver_table = group["signature"][:2]
        groups.append(
            {
                "signature": group["signature"],
                "probe_scope": _scope_columns(
                    group["probe_scope"], positions[probe_table]
                ),
                "driver_scope": _scope_columns(
                    group["driver_scope"], positions[driver_table]
                ),
                "ledger": _ledger_columns(group["ledger"]),
            }
        )
    return _columnar_layout(body, tables, groups)


def _share_columns(arrays: list[SharedArray], empty_shape: tuple) -> dict:
    return {
        "s0": _concat([a.share0 for a in arrays], empty_shape, np.uint32),
        "s1": _concat([a.share1 for a in arrays], empty_shape, np.uint32),
    }


def _log_columns(batches: list[dict], width: int) -> dict:
    tables = [b["table"] for b in batches]
    return {
        "times": _int64s(b["time"] for b in batches),
        "lengths": _int64s(len(t) for t in tables),
        "invocations_used": _int64s(b["invocations_used"] for b in batches),
        "emitted": _concat([b["emitted"] for b in batches], (0,), np.int64),
        "rows": _share_columns([t.rows for t in tables], (0, width)),
        "flags": _share_columns([t.flags for t in tables], (0,)),
    }


def _scope_columns(batches: list[dict], positions: dict[int, int]) -> dict:
    try:
        at = [positions[id(b["table"])] for b in batches]
    except KeyError:
        raise PersistenceError(
            "a transform-group scope holds a batch its table's log does not"
        ) from None
    return {
        "batches": np.array(at, dtype=np.int64),
        "invocations_used": _int64s(b["invocations_used"] for b in batches),
        "emitted": _concat([b["emitted"] for b in batches], (0,), np.int64),
    }


def _ledger_columns(state: dict) -> dict:
    groups = state["groups"]
    return {
        "omega": state["omega"],
        "budget": state["budget"],
        "tables": [g["table"] for g in groups],
        "times": _int64s(g["time"] for g in groups),
        "n_rows": _int64s(g["n_rows"] for g in groups),
        "emitted": _concat([g["emitted"] for g in groups], (0,), np.int64),
        "invocations": _int64s(t for g in groups for t in g["invocations"]),
        "invocation_counts": _int64s(len(g["invocations"]) for g in groups),
    }
