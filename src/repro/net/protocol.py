"""The versioned, length-prefixed binary wire protocol.

The network front door (`NetworkServer` ⇄ `IncShrinkClient`) speaks a
small frame-oriented protocol over any reliable byte stream:

* every frame is a fixed 10-byte header — magic ``INCW``, the protocol
  version byte (:data:`PROTOCOL_VERSION`), one frame-type byte, a
  big-endian ``uint32`` body length — followed by the body (stdlib
  ``struct`` + ``json``, no external dependencies);
* every body is one envelope: a UTF-8 JSON head plus a blob table.
  Only upload batches carry arrays: each batch's ``rows`` and
  ``is_real`` travel as raw little-endian blobs the head references as
  ``{"__nd__": i}``.  Every other frame — answers included, whose
  cells are JSON numbers — is the JSON object plus six framing bytes
  and declares zero blobs.  Every head is strict JSON: a non-finite
  float travels as the string ``"NaN"``, ``"Infinity"`` or
  ``"-Infinity"``, which the float fields' decoders read back.  What
  crosses the network is the arrays the servers already hold, plus the
  public frame lengths (see ``docs/NETWORK.md`` for the leakage
  argument);
* the query frame carries the complete :class:`~repro.query.ast.
  LogicalQuery` AST — every aggregate, the GROUP BY domain, structural
  predicate clauses, and the optional per-query ``epsilon`` — so a
  remote analyst has exactly the in-process query surface;
* failures travel as structured ``error`` frames with a machine-readable
  ``code`` (and a ``retry_after`` hint when the server sheds load) —
  the connection survives invalid requests, only malformed *framing*
  tears it down.

Every codec below is pure and total over its documented inputs:
``decode_x(encode_x(v)) == v``, and malformed inputs raise
:class:`WireError` / :class:`~repro.common.errors.SchemaError` rather
than crashing the peer.  :class:`FrameDecoder` provides the same
guarantee incrementally, over arbitrarily chunked byte arrivals, for
the event-driven server.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from ..common.errors import ProtocolError, ReproError, SchemaError
from ..common.types import RecordBatch, Schema
from ..query.ast import (
    AggregateSpec,
    And,
    ColumnEquals,
    ColumnRange,
    GroupBySpec,
    LogicalJoinQuery,
    LogicalQuery,
    QueryAnswer,
)

#: Frame magic — identifies an IncShrink wire frame.
PROTOCOL_MAGIC = b"INCW"
#: The one frame version: a JSON head plus raw array blobs.
PROTOCOL_VERSION = 2
#: Hard ceiling on one frame's body — anything larger is a framing
#: error, not a request (keeps a broken peer from forcing an unbounded
#: allocation).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: magic(4) + version(1) + frame type(1) + body length(4), big-endian.
_HEADER = struct.Struct(">4sBBI")

#: Frame type registry (name → wire code).  Requests and responses share
#: one namespace; the ``*_ok`` / ``result`` types only ever travel
#: server → client.
FRAME_CODES = {
    "hello": 1,
    "welcome": 2,
    "upload": 3,
    "upload_ok": 4,
    "query": 5,
    "result": 6,
    "stats": 7,
    "stats_result": 8,
    "snapshot": 9,
    "snapshot_ok": 10,
    "reshard": 11,
    "reshard_ok": 12,
    "error": 13,
    "bye": 14,
}
FRAME_NAMES = {code: name for name, code in FRAME_CODES.items()}

# -- structured error codes ---------------------------------------------------
ERR_BAD_FRAME = "bad-frame"
ERR_VERSION_MISMATCH = "version-mismatch"
ERR_UNSUPPORTED = "unsupported-frame"
ERR_INVALID_REQUEST = "invalid-request"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_SERVER = "server-error"
# Multi-tenant serving (PR 10).  ``auth-failed`` closes the connection
# after the error flushes (wrong/missing credentials on a registry-backed
# deployment); ``forbidden`` and ``budget-exhausted`` leave it open —
# the session is authentic, only this request is refused.  Neither is
# retryable: backing off cannot make a token valid or a ledger solvent.
ERR_AUTH_FAILED = "auth-failed"
ERR_FORBIDDEN = "forbidden"
ERR_BUDGET_EXHAUSTED = "budget-exhausted"


class WireError(ProtocolError):
    """The byte stream does not parse as protocol frames."""


class VersionMismatch(WireError):
    """The peer speaks a different protocol version."""


class ConnectionClosed(WireError):
    """The peer closed the stream at a frame boundary (EOF)."""


class RemoteError(ReproError):
    """A structured ``error`` frame received from the server.

    ``code`` is one of the ``ERR_*`` constants; ``retry_after`` (seconds)
    is set when the server shed load and invites a retry.
    """

    def __init__(
        self, code: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message
        self.retry_after = retry_after


def error_payload(
    code: str, message: str, retry_after: float | None = None
) -> dict:
    """The body of a structured ``error`` frame."""
    payload: dict = {"code": code, "message": message}
    if retry_after is not None:
        payload["retry_after"] = float(retry_after)
    return payload


# -- frame body: JSON head + array blobs ----------------------------------------
#: Sentinel key marking an out-of-band array reference in a frame head.
_ND_KEY = "__nd__"
#: dtype kinds a blob may carry (bool/int/uint/float — never objects).
_BLOB_KINDS = frozenset("biuf")
_BLOB_MAX_NDIM = 4


def _pack_blob(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind not in _BLOB_KINDS:
        raise WireError(f"cannot encode array of dtype {arr.dtype} on the wire")
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    if arr.ndim > _BLOB_MAX_NDIM:
        raise WireError(f"cannot encode a {arr.ndim}-dimensional array")
    dtype_str = arr.dtype.str.encode("ascii")  # explicit byte order, e.g. '<u4'
    head = struct.pack(">BB", len(dtype_str), arr.ndim) + dtype_str
    dims = struct.pack(f">{arr.ndim}I", *arr.shape)
    raw = arr.tobytes()
    return head + dims + struct.pack(">Q", len(raw)) + raw


def _unpack_blob(view: memoryview, offset: int) -> tuple[np.ndarray, int]:
    try:
        dtype_len, ndim = struct.unpack_from(">BB", view, offset)
        offset += 2
        dtype_str = bytes(view[offset : offset + dtype_len]).decode("ascii")
        offset += dtype_len
        if ndim > _BLOB_MAX_NDIM:
            raise WireError(f"blob dimensionality {ndim} exceeds {_BLOB_MAX_NDIM}")
        dims = struct.unpack_from(f">{ndim}I", view, offset)
        offset += 4 * ndim
        (nbytes,) = struct.unpack_from(">Q", view, offset)
        offset += 8
        dtype = np.dtype(dtype_str)
        if dtype.kind not in _BLOB_KINDS:
            raise WireError(f"blob dtype {dtype_str!r} is not a plain scalar type")
        expected = dtype.itemsize * int(np.prod(dims, dtype=np.int64))
        if nbytes != expected or offset + nbytes > len(view):
            raise WireError(
                f"blob of {nbytes} bytes does not match dims {dims} "
                f"x dtype {dtype_str!r}"
            )
        arr = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
        return arr.reshape(dims).copy(), offset + nbytes
    except (struct.error, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"malformed array blob: {exc}") from exc


#: The head encoder: keys sorted, no whitespace (the bytes are pinned),
#: and strict JSON — a non-finite float has no JSON token, so it cannot
#: be encoded as a number (:func:`_spell_non_finite`).
_HEAD_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)
#: The reference key as the head encoder spells it.
_ND_TOKEN = b'"__nd__"'


def _spell_non_finite(value: object) -> object:
    """``value`` with every non-finite float spelled as the string
    ``"NaN"``, ``"Infinity"`` or ``"-Infinity"`` — which ``float()``
    reads back, as every decoder of a float field does."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _spell_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(item) for item in value]
    return value


def _encode_body(payload: dict, blobs: list[np.ndarray]) -> bytes:
    """The envelope around ``payload``, a head with no arrays in it, and
    the ``blobs`` its ``{"__nd__": i}`` references index.  The head is
    strict JSON; a payload holding a non-finite float (an uncapped
    tenant's ε budget, a NaN answer cell) is encoded spelled out."""
    try:
        head = _HEAD_ENCODER.encode(payload)
    except ValueError:
        head = _HEAD_ENCODER.encode(_spell_non_finite(payload))
    head = head.encode("utf8")
    parts = [struct.pack(">I", len(head)), head, struct.pack(">H", len(blobs))]
    parts.extend(_pack_blob(arr) for arr in blobs)
    return b"".join(parts)


def _blob_resolver(blobs: list[np.ndarray]):
    """A JSON ``object_hook`` swapping each reference for its blob."""

    def resolve(obj: dict) -> object:
        if len(obj) != 1 or _ND_KEY not in obj:
            return obj
        index = obj[_ND_KEY]
        if not isinstance(index, int) or not 0 <= index < len(blobs):
            raise WireError(f"blob reference {index!r} out of range")
        return blobs[index]

    return resolve


def _decode_body(body: bytes | memoryview, frame_type: str) -> dict:
    view = memoryview(body)
    try:
        (head_len,) = struct.unpack_from(">I", view, 0)
        head_bytes = bytes(view[4 : 4 + head_len])
        if len(head_bytes) != head_len:
            raise WireError(f"{frame_type} frame head truncated")
        (n_blobs,) = struct.unpack_from(">H", view, 4 + head_len)
    except (struct.error, ValueError) as exc:
        raise WireError(f"malformed {frame_type} frame envelope: {exc}") from exc
    blobs: list[np.ndarray] = []
    offset = 6 + head_len
    for _ in range(n_blobs):
        arr, offset = _unpack_blob(view, offset)
        blobs.append(arr)
    if offset != len(view):
        raise WireError(
            f"{frame_type} frame body carries {len(view) - offset} trailing bytes"
        )
    # A head spells the reference key literally or with a \u escape; one
    # that spells neither has nothing to resolve.  In a frame declaring
    # no blobs, the resolver refuses any reference it finds.
    if n_blobs or _ND_TOKEN in head_bytes or b"\\u" in head_bytes:
        hook = _blob_resolver(blobs)
    else:
        hook = None
    try:
        head = json.loads(head_bytes.decode("utf8"), object_hook=hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"{frame_type} frame head is not valid JSON: {exc}")
    if not isinstance(head, dict):
        raise WireError(f"{frame_type} frame head must be a JSON object")
    return head


# -- framing ------------------------------------------------------------------
def encode_frame(frame_type: str, payload: dict | None = None) -> bytes:
    """One complete frame (header + body) as bytes.

    Only an ``upload`` payload may carry :class:`numpy.ndarray` values,
    as its batches' ``rows`` and ``is_real`` (:func:`encode_upload`);
    they travel as raw blobs beside the JSON head.  Any other array is
    not JSON-serializable and raises :class:`WireError`.
    """
    code = FRAME_CODES.get(frame_type)
    if code is None:
        raise WireError(f"unknown frame type {frame_type!r}")
    blobs: list[np.ndarray] = []
    payload = payload or {}
    if frame_type == "upload":
        payload = _upload_head(payload, blobs)
    try:
        body = _encode_body(payload, blobs)
    except (TypeError, ValueError) as exc:
        raise WireError(
            f"{frame_type} payload is not JSON-serializable: {exc}"
        ) from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"{frame_type} frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, code, len(body)) + body


def write_frame(stream: BinaryIO, frame_type: str, payload: dict | None = None) -> None:
    """Serialize one frame onto ``stream``.

    >>> import io
    >>> buf = io.BytesIO()
    >>> write_frame(buf, "stats", {})
    >>> read_frame(io.BytesIO(buf.getvalue()))
    ('stats', {})
    """
    stream.write(encode_frame(frame_type, payload))
    stream.flush()


def _read_exactly(stream: BinaryIO, n: int, at_boundary: bool) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if at_boundary and remaining == n:
                raise ConnectionClosed("peer closed the connection")
            raise WireError(
                f"stream ended mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
        at_boundary = False
    return b"".join(chunks)


def _check_header(magic: bytes, version: int, code: int, body_len: int) -> str:
    """Validate one parsed header; returns the frame-type name."""
    if magic != PROTOCOL_MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer speaks protocol version {version}, this build speaks "
            f"{PROTOCOL_VERSION}"
        )
    if body_len > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    frame_type = FRAME_NAMES.get(code)
    if frame_type is None:
        raise WireError(f"unknown frame type code {code}")
    return frame_type


def read_frame(stream: BinaryIO) -> tuple[str, dict]:
    """Read one frame; returns ``(frame_type, payload)``.

    Raises :class:`ConnectionClosed` on a clean EOF at a frame boundary,
    :class:`VersionMismatch` when the peer speaks an unknown version,
    and :class:`WireError` for anything that does not parse as a frame.
    """
    header = _read_exactly(stream, _HEADER.size, at_boundary=True)
    magic, version, code, body_len = _HEADER.unpack(header)
    frame_type = _check_header(magic, version, code, body_len)
    body = _read_exactly(stream, body_len, at_boundary=False)
    return frame_type, _decode_body(body, frame_type)


class FrameDecoder:
    """Incremental frame parser over arbitrarily chunked byte arrivals.

    The event-driven server owns one per connection: :meth:`feed` takes
    whatever ``recv`` produced and returns every frame that completed,
    buffering the (bounded) remainder.  Malformed input — bad magic,
    unknown version, a body-length prefix past the frame ceiling, an
    unknown frame type, or a body that does not decode — raises the
    same :class:`WireError` hierarchy the blocking reader uses.  The
    decoder validates the header as soon as its 10 bytes are buffered,
    so a hostile length prefix is rejected *before* any body bytes are
    accumulated: buffered memory never exceeds the declared size of one
    well-formed frame.

    >>> decoder = FrameDecoder()
    >>> blob = encode_frame("stats", {"a": 1})
    >>> decoder.feed(blob[:7])
    []
    >>> decoder.feed(blob[7:] + blob)
    [('stats', {'a': 1}), ('stats', {'a': 1})]
    >>> decoder.buffered_bytes
    0
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: parsed-and-validated header of the frame in progress
        self._head: tuple[str, int] | None = None  # (type, body_len)
        self._error: WireError | None = None

    @property
    def buffered_bytes(self) -> int:
        """Bytes held for the incomplete frame in progress."""
        return len(self._buffer)

    @property
    def mid_frame(self) -> bool:
        """True when a partially received frame is buffered."""
        return len(self._buffer) > 0

    @property
    def error(self) -> WireError | None:
        """The parse error that broke the stream, if any.

        Frames completed *before* the malformed bytes are still
        delivered by the :meth:`feed` call that hit the error — the
        server must answer them before failing the connection — so the
        error surfaces here (and re-raises on any further feed).
        """
        return self._error

    def feed(self, data: bytes) -> list[tuple[str, dict]]:
        """Consume ``data``; return the frames it completed, in order.

        On malformed input the error raises immediately when no frame
        completed in this call; otherwise the completed frames are
        returned and the error is held (:attr:`error`), raising on the
        next feed — a byte stream is unrecoverable past its first bad
        frame either way.
        """
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        frames: list[tuple[str, dict]] = []
        try:
            while True:
                if self._head is None:
                    if len(self._buffer) < _HEADER.size:
                        break
                    magic, version, code, body_len = _HEADER.unpack_from(
                        self._buffer
                    )
                    frame_type = _check_header(magic, version, code, body_len)
                    self._head = (frame_type, body_len)
                frame_type, body_len = self._head
                if len(self._buffer) < _HEADER.size + body_len:
                    break
                body = bytes(self._buffer[_HEADER.size : _HEADER.size + body_len])
                del self._buffer[: _HEADER.size + body_len]
                self._head = None
                frames.append((frame_type, _decode_body(body, frame_type)))
        except WireError as exc:
            self._error = exc
            if not frames:
                raise
        return frames


# -- query codec --------------------------------------------------------------
#: The eight join-spec fields every logical query carries.
JOIN_FIELDS = (
    "probe_table",
    "driver_table",
    "probe_key",
    "driver_key",
    "probe_ts",
    "driver_ts",
    "window_lo",
    "window_hi",
)


def _encode_clause(clause: ColumnEquals | ColumnRange) -> dict:
    if isinstance(clause, ColumnEquals):
        return {
            "op": "eq",
            "table": clause.table,
            "column": clause.column,
            "value": clause.value,
        }
    if isinstance(clause, ColumnRange):
        return {
            "op": "range",
            "table": clause.table,
            "column": clause.column,
            "lo": clause.lo,
            "hi": clause.hi,
        }
    raise SchemaError(f"cannot encode predicate clause {clause!r}")


def _decode_clause(entry: dict) -> ColumnEquals | ColumnRange:
    op = entry.get("op")
    if op == "eq":
        return ColumnEquals(entry["table"], entry["column"], int(entry["value"]))
    if op == "range":
        return ColumnRange(
            entry["table"], entry["column"], int(entry["lo"]), int(entry["hi"])
        )
    raise WireError(f"unknown predicate op {op!r}")


def encode_predicate(
    predicate: ColumnEquals | ColumnRange | And | None,
) -> dict | None:
    if predicate is None:
        return None
    if isinstance(predicate, And):
        return {
            "op": "and",
            "clauses": [_encode_clause(c) for c in predicate.clauses],
        }
    return _encode_clause(predicate)


def decode_predicate(entry: dict | None) -> ColumnEquals | ColumnRange | And | None:
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise WireError(f"malformed predicate entry: {entry!r}")
    if entry.get("op") == "and":
        return And(tuple(_decode_clause(c) for c in entry["clauses"]))
    return _decode_clause(entry)


def encode_query(query: LogicalQuery) -> dict:
    """The JSON-shaped wire form of one query.

    >>> from repro.query.ast import AggregateSpec, GroupBySpec, LogicalJoinQuery
    >>> join = LogicalJoinQuery("sales", "returns", "pid", "pid",
    ...                         "sale_ts", "return_ts", 0, 10)
    >>> q = LogicalQuery(join=join,
    ...                  aggregates=(AggregateSpec.count(),
    ...                              AggregateSpec.sum_of("returns", "return_ts")),
    ...                  group_by=GroupBySpec("sales", "pid", (1, 2, 3)))
    >>> decode_query(encode_query(q)) == q
    True
    """
    return {
        "join": {f: getattr(query.join, f) for f in JOIN_FIELDS},
        "aggregates": [
            {
                "kind": a.kind,
                "table": a.table,
                "column": a.column,
                "alias": a.alias,
                "sensitivity": a.sensitivity,
            }
            for a in query.aggregates
        ],
        "group_by": (
            None
            if query.group_by is None
            else {
                "table": query.group_by.table,
                "column": query.group_by.column,
                "domain": list(query.group_by.domain),
            }
        ),
        "predicate": encode_predicate(query.predicate),
    }


def decode_query(entry: dict) -> LogicalQuery:
    """Rebuild the full :class:`LogicalQuery` AST from its wire form.

    All AST validation (ring bounds, aggregate shapes, GROUP BY domain
    limits) re-runs in the dataclass constructors, so a hostile payload
    fails with :class:`~repro.common.errors.SchemaError` — it cannot
    smuggle an invalid query past the in-process checks.
    """
    try:
        join_entry = entry["join"]
        join = LogicalJoinQuery(
            **{f: join_entry[f] for f in JOIN_FIELDS}
        )
        aggregates = tuple(
            AggregateSpec(
                kind=a["kind"],
                table=a.get("table"),
                column=a.get("column"),
                alias=a.get("alias"),
                sensitivity=float(a.get("sensitivity", 1.0)),
            )
            for a in entry["aggregates"]
        )
        group_entry = entry.get("group_by")
        group_by = (
            None
            if group_entry is None
            else GroupBySpec(
                group_entry["table"],
                group_entry["column"],
                tuple(group_entry["domain"]),
            )
        )
        predicate = decode_predicate(entry.get("predicate"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"malformed query payload: {exc!r}") from exc
    return LogicalQuery(
        join=join, aggregates=aggregates, group_by=group_by, predicate=predicate
    )


# -- upload codec -------------------------------------------------------------
def encode_batch(batch: RecordBatch) -> dict:
    """One owner-side padded batch; the arrays travel as raw blobs."""
    return {
        "fields": list(batch.schema.fields),
        "rows": np.ascontiguousarray(batch.rows),
        "is_real": np.ascontiguousarray(batch.is_real),
    }


def decode_batch(entry: dict) -> RecordBatch:
    try:
        schema = Schema(tuple(entry["fields"]))
        rows, is_real = entry["rows"], entry["is_real"]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed batch payload: {exc!r}") from exc
    if not isinstance(rows, np.ndarray) or not isinstance(is_real, np.ndarray):
        raise WireError("batch rows and is_real must travel as array blobs")
    return RecordBatch(schema, rows, is_real.astype(bool))


def encode_upload(
    time: int,
    batches: Mapping[str, RecordBatch] | Iterable[tuple[str, RecordBatch]],
    wait: bool = False,
) -> dict:
    """One step's uploads: ``(time, [(table, batch), ...])`` in order."""
    items = batches.items() if isinstance(batches, Mapping) else batches
    return {
        "time": int(time),
        "batches": [[name, encode_batch(batch)] for name, batch in items],
        "wait": bool(wait),
    }


def _upload_head(payload: dict, blobs: list[np.ndarray]) -> dict:
    """``payload`` with each batch's arrays replaced by ``{"__nd__": i}``
    references into ``blobs``, appended batch by batch in each batch's
    key order (``rows``, then ``is_real``)."""
    if "batches" not in payload:
        return payload
    return {
        **payload,
        "batches": [
            [name, {k: _blob_ref(v, blobs) for k, v in batch.items()}]
            for name, batch in payload["batches"]
        ],
    }


def _blob_ref(value: object, blobs: list[np.ndarray]) -> object:
    if not isinstance(value, np.ndarray):
        return value
    blobs.append(value)
    return {_ND_KEY: len(blobs) - 1}


def decode_upload(entry: dict) -> tuple[int, list[tuple[str, RecordBatch]]]:
    try:
        time = int(entry["time"])
        items = [
            (str(name), decode_batch(batch)) for name, batch in entry["batches"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed upload payload: {exc!r}") from exc
    return time, items


# -- answer/result codec ------------------------------------------------------
def _plain_cell(value: object) -> int | float:
    """JSON-safe scalar that preserves the exact/float distinction."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise SchemaError(f"cannot encode answer cell {value!r}")


def encode_answer(answer: QueryAnswer) -> dict:
    """The padded result table; exact COUNT/SUM cells stay integers.

    Each column travels as a JSON cell list tagged with its scalar
    kind — ``i``: all exact integers (any ring value, up to 2^64 − 1),
    ``f``: all floats (``NaN`` and ``±Infinity`` included, spelled as
    strings in the strict-JSON head), ``m``: mixed — so the int/float
    distinction survives and a remote answer is identical to the
    in-process one.
    """
    kinds: list[str] = []
    cols: list[list] = []
    for ci in range(len(answer.columns)):
        cells = [_plain_cell(row[ci]) for row in answer.rows]
        if all(type(c) is int for c in cells):
            kinds.append("i")
        elif all(type(c) is float for c in cells):
            kinds.append("f")
        else:
            kinds.append("m")
        cols.append(cells)
    return {
        "columns": list(answer.columns),
        "groups": (
            None if answer.group_keys is None else [int(k) for k in answer.group_keys]
        ),
        "kinds": kinds,
        "cols": cols,
    }


def decode_answer(entry: dict) -> QueryAnswer:
    """The :class:`QueryAnswer` :func:`encode_answer` encoded.  A column
    may also be an array blob, as an older peer sends it."""
    try:
        groups = entry["groups"]
        group_keys = None if groups is None else tuple(int(k) for k in groups)
        columns = tuple(entry["columns"])
        decoded_cols = []
        for kind, col in zip(entry["kinds"], entry["cols"], strict=True):
            cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
            if kind == "i":
                decoded_cols.append([int(c) for c in cells])
            elif kind == "f":
                decoded_cols.append([float(c) for c in cells])
            elif kind == "m":
                decoded_cols.append(
                    [c if type(c) is int else float(c) for c in cells]
                )
            else:
                raise WireError(f"unknown answer column kind {kind!r}")
        n_rows = len(decoded_cols[0]) if decoded_cols else 0
        if any(len(c) != n_rows for c in decoded_cols):
            raise WireError("ragged answer columns")
        rows = tuple(zip(*decoded_cols))
        return QueryAnswer(columns=columns, group_keys=group_keys, rows=rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed answer payload: {exc!r}") from exc


@dataclass(frozen=True)
class RemoteQueryResult:
    """Client-side mirror of :class:`~repro.server.database.DatabaseQueryResult`.

    Carries the full released answer table, the ground-truth mirror the
    server scored against, the plan the server chose, and the simulated
    query-execution time — everything the in-process result exposes,
    minus live object references.
    """

    plan_kind: str
    view_name: str | None
    estimated_gates: int
    estimated_seconds: float
    n_shards: int
    qet_seconds: float
    view_answer: float
    logical_answer: float
    epsilon_spent: float
    answers: QueryAnswer
    logical_answers: QueryAnswer
    #: How the view scan actually executed (``{"mode": "warm"|"cold",
    #: "delta_rows": ..., "total_rows": ..., ...}``); ``None`` for NM
    #: plans.  Public row counts only — nothing the transcript does not
    #: already leak.
    scan_report: dict | None = None

    @property
    def answer(self) -> float:
        """The historical scalar surface: the first released cell."""
        return self.view_answer


def encode_result(result) -> dict:
    """Wire form of one ``DatabaseQueryResult`` (duck-typed)."""
    plan = result.plan
    obs = result.observation
    return {
        "plan": {
            "kind": plan.kind,
            "view_name": plan.view_name,
            "estimated_gates": int(plan.estimated_gates),
            "estimated_seconds": float(plan.estimated_seconds),
            "n_shards": int(plan.n_shards),
        },
        "qet_seconds": float(obs.qet_seconds),
        "view_answer": float(obs.view_answer),
        "logical_answer": float(obs.logical_answer),
        "epsilon_spent": float(result.epsilon_spent),
        "answers": encode_answer(result.answers),
        "logical_answers": encode_answer(result.logical_answers),
        "scan_report": (
            None
            if getattr(result, "scan_report", None) is None
            else {
                "mode": result.scan_report.mode,
                "total_rows": int(result.scan_report.total_rows),
                "delta_rows": int(result.scan_report.delta_rows),
                "cached_rows": int(result.scan_report.cached_rows),
                "gates": int(result.scan_report.gates),
                "saved_gates": int(result.scan_report.saved_gates),
            }
        ),
    }


def decode_result(entry: dict) -> RemoteQueryResult:
    try:
        plan = entry["plan"]
        return RemoteQueryResult(
            plan_kind=plan["kind"],
            view_name=plan["view_name"],
            estimated_gates=int(plan["estimated_gates"]),
            estimated_seconds=float(plan["estimated_seconds"]),
            n_shards=int(plan["n_shards"]),
            qet_seconds=float(entry["qet_seconds"]),
            view_answer=float(entry["view_answer"]),
            logical_answer=float(entry["logical_answer"]),
            epsilon_spent=float(entry["epsilon_spent"]),
            answers=decode_answer(entry["answers"]),
            logical_answers=decode_answer(entry["logical_answers"]),
            scan_report=entry["scan_report"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed result payload: {exc!r}") from exc
