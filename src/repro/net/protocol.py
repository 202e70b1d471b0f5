"""The versioned, length-prefixed binary wire protocol.

The network front door (`NetworkServer` ⇄ `IncShrinkClient`) speaks a
small frame-oriented protocol over any reliable byte stream:

* every frame is a fixed 10-byte header — magic ``INCW``, one protocol
  version byte, one frame-type byte, a big-endian ``uint32`` body
  length — followed by the body (stdlib ``struct`` + ``json``, no
  external dependencies);
* two body encodings share the header's version byte: **version 1** is
  a UTF-8 JSON object (the PR 5 wire format, unchanged byte-for-byte),
  and **version 2** is the *binary bulk codec* — a JSON head plus an
  out-of-band blob table carrying payload arrays as raw little-endian
  bytes (no base64, no JSON escaping).  Peers negotiate the codec in
  ``hello``/``welcome``; a v1-only client never sees a v2 frame;
* under the JSON codec, payload arrays (upload batches) ride a base64
  array codec (:func:`encode_array`: dtype, shape, base64 of the raw
  bytes); what crosses the network is the arrays the servers already
  hold, plus the public frame lengths (see ``docs/NETWORK.md`` for the
  full leakage argument — the binary codec carries the same arrays,
  minus only the base64 expansion, so the observable surface is
  unchanged);
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

import base64
import json
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
#: The baseline frame version: UTF-8 JSON bodies (the PR 5 format).
PROTOCOL_VERSION = 1
#: Frame version 2: binary bulk codec — JSON head + raw array blobs.
BINARY_VERSION = 2
#: Frame versions this build reads.  Writers pick one per frame: the
#: version byte is what makes every frame self-describing, so the two
#: codecs interleave freely on one connection.
SUPPORTED_VERSIONS = (PROTOCOL_VERSION, BINARY_VERSION)
#: Hard ceiling on one frame's body — anything larger is a framing
#: error, not a request (keeps a broken peer from forcing an unbounded
#: allocation).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Body codec names, as negotiated in ``hello``/``welcome``.
CODEC_JSON = "json"
CODEC_BINARY = "binary"
#: Preference order: a server picks the first offered codec it supports.
SUPPORTED_CODECS = (CODEC_BINARY, CODEC_JSON)


def negotiate_codec(offered: object) -> str:
    """Server-side codec choice for one connection.

    ``offered`` is the (untrusted) ``codecs`` field of a ``hello``
    payload: the client's codec names in preference order.  Anything
    malformed or unrecognized falls back to JSON — a PR 5 client, whose
    ``hello`` has no ``codecs`` field at all, negotiates down to the v1
    wire format it already speaks.

    >>> negotiate_codec(["binary", "json"])
    'binary'
    >>> negotiate_codec(["json"])
    'json'
    >>> negotiate_codec(None)
    'json'
    >>> negotiate_codec(["zstd", 42])
    'json'
    """
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if isinstance(name, str) and name in SUPPORTED_CODECS:
                return name
    return CODEC_JSON

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


# -- binary body codec ---------------------------------------------------------
#: Sentinel key marking an out-of-band array reference in a v2 head.
_ND_KEY = "__nd__"
#: dtype kinds a blob may carry (bool/int/uint/float — never objects).
_BLOB_KINDS = frozenset("biuf")
_BLOB_MAX_NDIM = 4


def _extract_arrays(value, blobs: list) -> object:
    """Deep-copy ``value`` replacing every ndarray with a blob reference."""
    if isinstance(value, np.ndarray):
        blobs.append(value)
        return {_ND_KEY: len(blobs) - 1}
    if isinstance(value, dict):
        return {k: _extract_arrays(v, blobs) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_extract_arrays(v, blobs) for v in value]
    return value


def _restore_arrays(value, blobs: list) -> object:
    if isinstance(value, dict):
        if set(value) == {_ND_KEY}:
            index = value[_ND_KEY]
            if not isinstance(index, int) or not 0 <= index < len(blobs):
                raise WireError(f"blob reference {index!r} out of range")
            return blobs[index]
        return {k: _restore_arrays(v, blobs) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore_arrays(v, blobs) for v in value]
    return value


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


def _encode_body(payload: dict, version: int) -> bytes:
    if version == PROTOCOL_VERSION:
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf8"
        )
    blobs: list[np.ndarray] = []
    head = json.dumps(
        _extract_arrays(payload, blobs), sort_keys=True, separators=(",", ":")
    ).encode("utf8")
    parts = [struct.pack(">I", len(head)), head, struct.pack(">H", len(blobs))]
    parts.extend(_pack_blob(arr) for arr in blobs)
    return b"".join(parts)


def _decode_body(body: bytes | memoryview, version: int, frame_type: str) -> dict:
    if version == PROTOCOL_VERSION:
        try:
            payload = json.loads(bytes(body).decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"{frame_type} frame body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise WireError(
                f"{frame_type} frame body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload
    view = memoryview(body)
    try:
        (head_len,) = struct.unpack_from(">I", view, 0)
        head_bytes = bytes(view[4 : 4 + head_len])
        if len(head_bytes) != head_len:
            raise WireError(f"{frame_type} frame head truncated")
        (n_blobs,) = struct.unpack_from(">H", view, 4 + head_len)
    except (struct.error, ValueError) as exc:
        raise WireError(f"malformed {frame_type} binary envelope: {exc}") from exc
    try:
        head = json.loads(head_bytes.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"{frame_type} frame head is not valid JSON: {exc}")
    if not isinstance(head, dict):
        raise WireError(f"{frame_type} frame head must be a JSON object")
    blobs: list[np.ndarray] = []
    offset = 6 + head_len
    for _ in range(n_blobs):
        arr, offset = _unpack_blob(view, offset)
        blobs.append(arr)
    if offset != len(view):
        raise WireError(
            f"{frame_type} frame body carries {len(view) - offset} trailing bytes"
        )
    return _restore_arrays(head, blobs)


# -- framing ------------------------------------------------------------------
def encode_frame(
    frame_type: str, payload: dict | None = None, codec: str = CODEC_JSON
) -> bytes:
    """One complete frame (header + body) as bytes.

    With ``codec="binary"`` the body is the version-2 binary envelope
    and the payload may carry :class:`numpy.ndarray` values anywhere in
    its tree; with ``codec="json"`` (the default) the body is the
    version-1 JSON object and ndarray values are a caller error.
    """
    code = FRAME_CODES.get(frame_type)
    if code is None:
        raise WireError(f"unknown frame type {frame_type!r}")
    if codec not in SUPPORTED_CODECS:
        raise WireError(f"unknown codec {codec!r}")
    version = BINARY_VERSION if codec == CODEC_BINARY else PROTOCOL_VERSION
    try:
        body = _encode_body(payload or {}, version)
    except TypeError as exc:  # ndarray (or similar) under the JSON codec
        raise WireError(
            f"{frame_type} payload is not JSON-serializable under the "
            f"{codec} codec: {exc}"
        ) from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"{frame_type} frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _HEADER.pack(PROTOCOL_MAGIC, version, code, len(body)) + body


def write_frame(
    stream: BinaryIO,
    frame_type: str,
    payload: dict | None = None,
    codec: str = CODEC_JSON,
) -> None:
    """Serialize one frame onto ``stream`` (JSON codec by default).

    >>> import io
    >>> buf = io.BytesIO()
    >>> write_frame(buf, "stats", {})
    >>> read_frame(io.BytesIO(buf.getvalue()))
    ('stats', {})
    """
    stream.write(encode_frame(frame_type, payload, codec=codec))
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
    if version not in SUPPORTED_VERSIONS:
        raise VersionMismatch(
            f"peer speaks protocol version {version}, this build speaks "
            f"{sorted(SUPPORTED_VERSIONS)}"
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

    Accepts both body encodings (the version byte disambiguates).
    Raises :class:`ConnectionClosed` on a clean EOF at a frame boundary,
    :class:`VersionMismatch` when the peer speaks an unknown version,
    and :class:`WireError` for anything that does not parse as a frame.
    """
    header = _read_exactly(stream, _HEADER.size, at_boundary=True)
    magic, version, code, body_len = _HEADER.unpack(header)
    frame_type = _check_header(magic, version, code, body_len)
    body = _read_exactly(stream, body_len, at_boundary=False)
    return frame_type, _decode_body(body, version, frame_type)


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
        self._head: tuple[str, int, int] | None = None  # (type, version, body_len)
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
                    self._head = (frame_type, version, body_len)
                frame_type, version, body_len = self._head
                if len(self._buffer) < _HEADER.size + body_len:
                    break
                body = bytes(self._buffer[_HEADER.size : _HEADER.size + body_len])
                del self._buffer[: _HEADER.size + body_len]
                self._head = None
                frames.append((frame_type, _decode_body(body, version, frame_type)))
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
def encode_array(arr: np.ndarray) -> dict:
    """One array as a JSON v1 frame carries it: dtype, shape, base64 bytes."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(entry: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"].encode("ascii"))
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
        return arr.reshape(tuple(int(d) for d in entry["shape"])).copy()
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"malformed array entry: {exc}") from exc


def encode_batch(batch: RecordBatch, binary: bool = False) -> dict:
    """One owner-side padded batch.

    Under the JSON codec the arrays ride the base64 array codec
    (:func:`encode_array`); under the binary codec they stay as ndarrays
    for the frame writer to carry out-of-band as raw bytes.  Either form
    decodes with :func:`decode_batch`.
    """
    if binary:
        return {
            "fields": list(batch.schema.fields),
            "rows": np.ascontiguousarray(batch.rows),
            "is_real": np.ascontiguousarray(batch.is_real),
        }
    return {
        "fields": list(batch.schema.fields),
        "rows": encode_array(np.asarray(batch.rows)),
        "is_real": encode_array(np.asarray(batch.is_real)),
    }


def _entry_array(entry: object) -> np.ndarray:
    """An array field in either wire form (raw ndarray or base64 dict)."""
    if isinstance(entry, np.ndarray):
        return entry
    if isinstance(entry, dict):
        return decode_array(entry)
    raise WireError(f"malformed array entry of type {type(entry).__name__}")


def decode_batch(entry: dict) -> RecordBatch:
    try:
        schema = Schema(tuple(entry["fields"]))
        rows = _entry_array(entry["rows"])
        is_real = _entry_array(entry["is_real"]).astype(bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed batch payload: {exc!r}") from exc
    return RecordBatch(schema, rows, is_real)


def encode_upload(
    time: int,
    batches: Mapping[str, RecordBatch] | Iterable[tuple[str, RecordBatch]],
    wait: bool = False,
    binary: bool = False,
) -> dict:
    """One step's uploads: ``(time, [(table, batch), ...])`` in order."""
    items = batches.items() if isinstance(batches, Mapping) else batches
    return {
        "time": int(time),
        "batches": [
            [name, encode_batch(batch, binary=binary)] for name, batch in items
        ],
        "wait": bool(wait),
    }


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


def encode_answer(answer: QueryAnswer, binary: bool = False) -> dict:
    """The padded result table; exact COUNT/SUM cells stay integers.

    Under the binary codec each column travels as one raw array when its
    cells share a scalar kind (``i``: all exact integers, ``f``: all
    floats); a mixed column falls back to a JSON cell list (kind ``m``).
    The int/float distinction survives either way, so "byte-identical to
    in-process" holds across both codecs.
    """
    base: dict = {
        "columns": list(answer.columns),
        "groups": (
            None if answer.group_keys is None else [int(k) for k in answer.group_keys]
        ),
    }
    if not binary:
        base["rows"] = [[_plain_cell(v) for v in row] for row in answer.rows]
        return base
    kinds: list[str] = []
    cols: list[object] = []
    for ci in range(len(answer.columns)):
        cells = [_plain_cell(row[ci]) for row in answer.rows]
        if all(isinstance(c, int) for c in cells):
            kinds.append("i")
            cols.append(np.asarray(cells, dtype="<i8"))
        elif all(isinstance(c, float) for c in cells):
            kinds.append("f")
            cols.append(np.asarray(cells, dtype="<f8"))
        else:
            kinds.append("m")
            cols.append(cells)
    base["kinds"] = kinds
    base["cols"] = cols
    return base


def decode_answer(entry: dict) -> QueryAnswer:
    try:
        groups = entry["groups"]
        group_keys = None if groups is None else tuple(int(k) for k in groups)
        columns = tuple(entry["columns"])
        if "cols" in entry:
            decoded_cols = []
            for kind, col in zip(entry["kinds"], entry["cols"], strict=True):
                cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
                if kind == "i":
                    decoded_cols.append([int(c) for c in cells])
                elif kind == "f":
                    decoded_cols.append([float(c) for c in cells])
                elif kind == "m":
                    decoded_cols.append(cells)
                else:
                    raise WireError(f"unknown answer column kind {kind!r}")
            n_rows = len(decoded_cols[0]) if decoded_cols else 0
            if any(len(c) != n_rows for c in decoded_cols):
                raise WireError("ragged answer columns")
            rows = tuple(
                tuple(col[ri] for col in decoded_cols) for ri in range(n_rows)
            )
        else:
            rows = tuple(tuple(row) for row in entry["rows"])
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
    #: plans and for servers predating incremental execution.  Public
    #: row counts only — nothing the transcript does not already leak.
    scan_report: dict | None = None

    @property
    def answer(self) -> float:
        """The historical scalar surface: the first released cell."""
        return self.view_answer


def encode_result(result, binary: bool = False) -> dict:
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
        "answers": encode_answer(result.answers, binary=binary),
        "logical_answers": encode_answer(result.logical_answers, binary=binary),
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
            # Absent on pre-incremental servers; public counts only.
            scan_report=entry.get("scan_report"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed result payload: {exc!r}") from exc
