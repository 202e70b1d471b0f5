"""Offline converter for the JSON-document snapshots of format versions 1–3.

Up to format version 3 a snapshot was one JSON document — ``magic``,
``version``, ``sha256``, ``created_at``, ``body`` — whose arrays were
base64 strings and whose digest covered the body re-serialised with
sorted keys.  :func:`repro.server.persistence.restore_database` reads
only the binary container that replaced it; this module is the one place
that still knows the old encoding, and what each old version lacked:

* v1 predates sharding: no ``config.n_shards`` (one shard), each view
  stored as one flat ``view.table``, and a cost model without the fields
  added since;
* snapshots written before the query compiler carry no ``query_noise``
  generator state — they never released a noisy query, so the fresh
  seed-0 stream a new database starts with is exactly right;
* v1 and v2 predate tenancy: no ``tenant_budgets`` (no caps).

:func:`upgrade_snapshot` verifies the old digest, fills those gaps so the
body has the current layout, and writes the current container::

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
from .persistence import SNAPSHOT_MAGIC, SnapshotInfo, _write_snapshot

#: The JSON-document format versions this module converts.
LEGACY_VERSIONS = (1, 2, 3)

_LEGACY_ARRAY_KEYS = frozenset(("dtype", "shape", "data"))


def upgrade_snapshot(
    old: str | os.PathLike, new: str | os.PathLike
) -> SnapshotInfo:
    """Convert the version 1–3 snapshot at ``old`` into a container at ``new``.

    The state is carried over exactly — shares, RNG streams, the ε ledger
    and the caller's metadata — and so is ``created_at``: the new file
    records when the state was captured, not when it was converted.
    """
    document = _load_legacy(os.fspath(old))
    body = _current_layout(_inflate_arrays(document["body"]))
    return _write_snapshot(new, body, float(document.get("created_at", 0.0)))


def _load_legacy(path: str) -> dict:
    """The parsed document at ``path``, its digest verified."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    if raw.startswith(SNAPSHOT_MAGIC):
        raise PersistenceError(
            f"snapshot {path!r} is already in the current format"
        )
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
