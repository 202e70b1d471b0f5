"""Protocol fuzz/property suite for the wire layer and the reactor.

Three layers of adversarial confidence, per ISSUE 7:

* **randomized round-trips** — every payload codec (batches, uploads,
  answers, results-adjacent tables) survives encode→frame→decode across
  randomized shapes, dtypes, and cell mixes, fed to the incremental
  decoder in randomized chunk sizes;
* **hostile bytes against the pure decoder** — truncated frames,
  corrupted length prefixes, oversized bodies, bad magic, unknown
  versions and frame codes, malformed envelopes: every one raises the
  structured :class:`~repro.net.protocol.WireError` hierarchy, never an
  uncontrolled exception, and never buffers past one declared frame;
* **hostile bytes against a live reactor** — random garbage, mid-frame
  disconnects, interleaved junk after valid frames: the server always
  answers a structured ``error`` frame or closes the connection cleanly,
  its event loops record zero unhandled exceptions, and it keeps serving
  well-behaved clients afterwards.

Seeds are fixed: every "random" case is reproducible.
"""

from __future__ import annotations

import io
import math
import socket
import struct
import time as _time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import RecordBatch, Schema
from repro.net import protocol as wire
from repro.net.client import IncShrinkClient
from repro.net.server import NetworkServer
from repro.query.ast import QueryAnswer
from repro.server.runtime import DatabaseServer

from test_network import batches_at, build_database, query_mix

_HEADER_SIZE = 10
_DTYPES = ["<u4", "<i8", "<f8", "<f4", "<u1", "|b1", "<i2"]


# -- randomized round-trips ----------------------------------------------------
def _random_batch(rng: np.random.Generator) -> RecordBatch:
    n_fields = int(rng.integers(1, 5))
    schema = Schema(tuple(f"f{i}" for i in range(n_fields)))
    n_rows = int(rng.integers(0, 17))
    rows = rng.integers(0, 2**31, size=(n_rows, n_fields)).astype(np.uint32)
    is_real = rng.integers(0, 2, size=n_rows).astype(bool)
    return RecordBatch(schema, rows, is_real)


def _chunked_frames(blob: bytes, rng: np.random.Generator):
    """Feed ``blob`` to a fresh decoder in random-sized chunks."""
    decoder = wire.FrameDecoder()
    frames = []
    offset = 0
    while offset < len(blob):
        step = int(rng.integers(1, 64))
        frames.extend(decoder.feed(blob[offset : offset + step]))
        offset += step
    assert decoder.buffered_bytes == 0
    assert not decoder.mid_frame
    return frames


def test_upload_round_trip_randomized():
    rng = np.random.default_rng(1234)
    for trial in range(25):
        batches = [
            (f"table{i}", _random_batch(rng)) for i in range(int(rng.integers(1, 4)))
        ]
        payload = wire.encode_upload(trial + 1, batches)
        blob = wire.encode_frame("upload", payload)
        frames = _chunked_frames(blob, rng)
        assert len(frames) == 1
        frame_type, decoded_payload = frames[0]
        assert frame_type == "upload"
        decoded_time, items = wire.decode_upload(decoded_payload)
        assert decoded_time == trial + 1
        assert [name for name, _ in items] == [name for name, _ in batches]
        for (_, sent), (_, got) in zip(batches, items, strict=True):
            assert got.schema == sent.schema
            np.testing.assert_array_equal(got.rows, np.asarray(sent.rows))
            np.testing.assert_array_equal(got.is_real, np.asarray(sent.is_real))


def test_answer_round_trip_randomized():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n_cols = int(rng.integers(1, 5))
        n_rows = int(rng.integers(0, 8))
        columns = tuple(f"c{i}" for i in range(n_cols))
        # Column cell kinds: all-int, all-float, or mixed — the codec
        # must preserve the exact/noisy (int/float) distinction.
        kinds = [rng.choice(["i", "f", "m"]) for _ in range(n_cols)]
        rows = []
        for _ri in range(n_rows):
            row = []
            for kind in kinds:
                if kind == "i" or (kind == "m" and rng.integers(0, 2)):
                    row.append(int(rng.integers(-(2**40), 2**40)))
                else:
                    row.append(float(rng.normal()))
            rows.append(tuple(row))
        group_keys = (
            None
            if rng.integers(0, 2)
            else tuple(int(k) for k in rng.integers(0, 100, size=n_rows))
        )
        answer = QueryAnswer(columns=columns, group_keys=group_keys, rows=tuple(rows))
        payload = wire.encode_answer(answer)
        blob = wire.encode_frame("result", payload)
        frames = _chunked_frames(blob, rng)
        (frame_type, decoded_payload) = frames[0]
        decoded = wire.decode_answer(decoded_payload)
        assert decoded == answer
        # Same cell *types*, not just equal values (1 == 1.0 in Python).
        for sent_row, got_row in zip(answer.rows, decoded.rows, strict=True):
            for sent_cell, got_cell in zip(sent_row, got_row, strict=True):
                assert type(sent_cell) is type(got_cell)


def _through_the_wire(answer: QueryAnswer) -> QueryAnswer:
    frame = wire.encode_frame("result", wire.encode_answer(answer))
    [(_, payload)] = wire.FrameDecoder().feed(frame)
    return wire.decode_answer(payload)


def test_ring_sum_cells_cross_the_wire_as_ints():
    """SUM accumulators live in Z_{2^64}: a cell at or past 2^63 is a
    legal answer and arrives as the same Python int."""
    cells = (0, 2**63, 2**64 - 1)
    answer = QueryAnswer(("sum",), (1, 2, 3), tuple((c,) for c in cells))
    decoded = _through_the_wire(answer)
    assert [row[0] for row in decoded.rows] == list(cells)
    assert all(type(row[0]) is int for row in decoded.rows)


# The upper half of the ring on its own: a full-range draw rarely lands there.
_INT_CELLS = st.integers(0, 2**64 - 1) | st.integers(2**63, 2**64 - 1)
_FLOAT_CELLS = st.one_of(
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
)


@st.composite
def _answers(draw) -> QueryAnswer:
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 5))
    cells = {"i": _INT_CELLS, "f": _FLOAT_CELLS, "m": st.one_of(_INT_CELLS, _FLOAT_CELLS)}
    kinds = draw(st.lists(st.sampled_from("ifm"), min_size=n_cols, max_size=n_cols))
    rows = tuple(tuple(draw(cells[k]) for k in kinds) for _ in range(n_rows))
    groups = draw(
        st.none()
        | st.lists(
            st.integers(0, 2**32 - 1), min_size=n_rows, max_size=n_rows, unique=True
        ).map(tuple)
    )
    return QueryAnswer(tuple(f"c{i}" for i in range(n_cols)), groups, rows)


@given(_answers())
@settings(max_examples=200, deadline=None)
def test_any_answer_round_trips_with_its_cell_types(answer):
    # ``repr``, not ``==``: NaN cells compare unequal to themselves.
    decoded = _through_the_wire(answer)
    assert repr(decoded) == repr(answer)
    assert [[type(c) for c in row] for row in decoded.rows] == [
        [type(c) for c in row] for row in answer.rows
    ]


#: A result frame as the previous build sent it, answer columns as array
#: blobs: ``QueryAnswer(("count", "avg"), (1, 2), ((3, 4.0), (2, 3.75)))``.
_BLOB_COLUMN_RESULT = bytes.fromhex(
    "494e43570206000000b30000006b7b22616e7377657273223a7b22636f6c73223a5b7b"
    "225f5f6e645f5f223a307d2c7b225f5f6e645f5f223a317d5d2c22636f6c756d6e7322"
    "3a5b22636f756e74222c22617667225d2c2267726f757073223a5b312c325d2c226b69"
    "6e6473223a5b2269222c2266225d7d7d000203013c6938000000020000000000000010"
    "0300000000000000020000000000000003013c66380000000200000000000000100000"
    "0000000010400000000000000e40"
)


def test_a_result_frame_with_blob_columns_still_decodes():
    [(frame_type, payload)] = wire.FrameDecoder().feed(_BLOB_COLUMN_RESULT)
    decoded = wire.decode_answer(payload["answers"])
    assert frame_type == "result"
    assert decoded == QueryAnswer(("count", "avg"), (1, 2), ((3, 4.0), (2, 3.75)))
    assert [type(c) for c in decoded.rows[0]] == [int, float]


def _declared_blobs(frame: bytes) -> int:
    (head_len,) = struct.unpack_from(">I", frame, _HEADER_SIZE)
    return struct.unpack_from(">H", frame, _HEADER_SIZE + 4 + head_len)[0]


def test_only_upload_frames_declare_blobs(monkeypatch):
    """Every frame a served session puts on the wire, both directions:
    an upload declares two blobs per batch, everything else none."""
    sent = []
    encode = wire.encode_frame

    def recording(frame_type, payload=None):
        frame = encode(frame_type, payload)
        sent.append((frame_type, payload, frame))
        return frame

    monkeypatch.setattr(wire, "encode_frame", recording)
    server = DatabaseServer(build_database())
    with NetworkServer(server) as net:
        with IncShrinkClient(*net.address) as client:
            client.upload(1, batches_at(1), wait=True)
            client.query(query_mix()[0])
            client.query(query_mix()[0], epsilon=0.5)
            client.stats()
            with pytest.raises(wire.RemoteError):
                client._request("query", {"query": {}}, expect="result")
    server.stop()
    assert {"upload", "upload_ok", "query", "result", "stats", "error"} <= {
        frame_type for frame_type, _, _ in sent
    }
    for frame_type, payload, frame in sent:
        expected = 2 * len(payload["batches"]) if frame_type == "upload" else 0
        assert _declared_blobs(frame) == expected, frame_type


def test_an_array_outside_an_upload_batch_is_refused():
    with pytest.raises(wire.WireError, match="not JSON-serializable"):
        wire.encode_frame("stats", {"arr": np.arange(3)})
    with pytest.raises(wire.WireError, match="not JSON-serializable"):
        wire.encode_frame("upload", {"time": 1, "extra": np.arange(3)})


def _array_frame(arr: np.ndarray) -> bytes:
    """An upload frame whose one batch carries ``arr`` as its rows: upload
    batches are the only payload arrays travel in."""
    return wire.encode_frame("upload", {"batches": [["t", {"rows": arr}]]})


def _rows_of(payload: dict) -> np.ndarray:
    return payload["batches"][0][1]["rows"]


def test_blob_dtypes_round_trip_exactly():
    rng = np.random.default_rng(7)
    for dtype in _DTYPES:
        dt = np.dtype(dtype)
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        if dt.kind == "f":
            arr = rng.normal(size=shape).astype(dt)
        elif dt.kind == "b":
            arr = rng.integers(0, 2, size=shape).astype(dt)
        else:
            info = np.iinfo(dt)
            arr = rng.integers(
                info.min, int(info.max) + 1, size=shape, dtype=np.int64
            ).astype(dt)
        _, payload = wire.read_frame(io.BytesIO(_array_frame(arr)))
        got = _rows_of(payload)
        assert got.dtype == dt
        assert got.shape == shape
        np.testing.assert_array_equal(got, arr)


def test_big_endian_arrays_normalized_to_little():
    arr = np.arange(6, dtype=">u4").reshape(2, 3)
    _, payload = wire.read_frame(io.BytesIO(_array_frame(arr)))
    assert _rows_of(payload).dtype == np.dtype("<u4")
    np.testing.assert_array_equal(_rows_of(payload), arr)


def test_every_frame_type_round_trips_empty_payload():
    for frame_type in wire.FRAME_CODES:
        blob = wire.encode_frame(frame_type, {})
        assert blob[4] == wire.PROTOCOL_VERSION
        assert wire.read_frame(io.BytesIO(blob)) == (frame_type, {})


def test_object_dtype_rejected_by_binary_codec():
    arr = np.asarray([object()], dtype=object)
    with pytest.raises(wire.WireError, match="dtype"):
        _array_frame(arr)


# -- hostile bytes against the pure decoder ------------------------------------
def _valid_header(body_len: int) -> bytes:
    return struct.pack(
        ">4sBBI",
        wire.PROTOCOL_MAGIC,
        wire.PROTOCOL_VERSION,
        wire.FRAME_CODES["stats"],
        body_len,
    )


def test_truncated_frames_stay_buffered_without_output():
    blob = wire.encode_frame("stats", {"k": 123})
    for cut in range(len(blob)):
        decoder = wire.FrameDecoder()
        assert decoder.feed(blob[:cut]) == []
        assert decoder.buffered_bytes == cut
        # Completing the frame later drains the buffer exactly.
        assert decoder.feed(blob[cut:]) == [("stats", {"k": 123})]
        assert decoder.buffered_bytes == 0


def test_corrupted_length_prefix_rejected_before_buffering_a_body():
    # A hostile 4 GiB-minus-one length prefix must be rejected the
    # moment the header completes — not after gigabytes accumulate.
    header = _valid_header(0xFFFFFFFE)
    decoder = wire.FrameDecoder()
    with pytest.raises(wire.WireError, match="frame ceiling"):
        decoder.feed(header)


def test_oversized_body_rejected_at_exactly_the_ceiling_boundary():
    decoder = wire.FrameDecoder()
    with pytest.raises(wire.WireError, match="frame ceiling"):
        decoder.feed(_valid_header(wire.MAX_FRAME_BYTES + 1))
    # The ceiling itself is legal (header-level): no exception.
    assert wire.FrameDecoder().feed(_valid_header(wire.MAX_FRAME_BYTES)) == []


def test_bad_magic_rejected():
    blob = b"EVIL" + wire.encode_frame("stats", {})[4:]
    with pytest.raises(wire.WireError, match="magic"):
        wire.FrameDecoder().feed(blob)


@pytest.mark.parametrize("version", [1, 99])
def test_unknown_version_raises_version_mismatch(version):
    """Version 1 (the retired JSON-only body) is as unknown as 99."""
    blob = bytearray(wire.encode_frame("stats", {}))
    blob[4] = version
    with pytest.raises(wire.VersionMismatch):
        wire.FrameDecoder().feed(bytes(blob))


@pytest.mark.parametrize("code", [*range(15, 22), 0xEE])
def test_unknown_frame_code_rejected(code):
    """Codes 15-21 (a retired scan fabric's) parse like any unknown code."""
    blob = bytearray(wire.encode_frame("stats", {}))
    blob[5] = code
    with pytest.raises(wire.WireError, match="frame type code"):
        wire.FrameDecoder().feed(bytes(blob))


def test_frame_codes_are_exactly_one_to_fourteen():
    assert sorted(wire.FRAME_CODES.values()) == list(range(1, 15))
    assert wire.FRAME_NAMES == {c: n for n, c in wire.FRAME_CODES.items()}


def _envelope(head: bytes) -> bytes:
    """A frame body around ``head`` with an empty blob table."""
    return struct.pack(">I", len(head)) + head + struct.pack(">H", 0)


def test_non_json_body_rejected():
    body = _envelope(b"\xff\xfe not json")
    blob = _valid_header(len(body)) + body
    with pytest.raises(wire.WireError, match="not valid JSON"):
        wire.FrameDecoder().feed(blob)


def test_non_object_json_body_rejected():
    body = _envelope(b"[1,2,3]")
    blob = _valid_header(len(body)) + body
    with pytest.raises(wire.WireError, match="JSON object"):
        wire.FrameDecoder().feed(blob)


def _binary_frame_parts(arr: np.ndarray) -> tuple[bytes, bytes]:
    blob = _array_frame(arr)
    return blob[:_HEADER_SIZE], blob[_HEADER_SIZE:]


def test_binary_envelope_trailing_bytes_rejected():
    header, body = _binary_frame_parts(np.arange(4, dtype=np.uint32))
    body += b"\x00"
    tampered = _valid_header(len(body))
    with pytest.raises(wire.WireError, match="trailing bytes"):
        wire.FrameDecoder().feed(tampered + body)


def test_binary_envelope_blob_size_mismatch_rejected():
    header, body = _binary_frame_parts(np.arange(4, dtype=np.uint32))
    tampered = bytearray(body)
    # Flip one byte of the blob's 8-byte length field (it sits right
    # before the final 16 raw bytes of the uint32[4] payload).
    tampered[-17] ^= 0x01
    frame = _valid_header(len(tampered)) + bytes(tampered)
    with pytest.raises(wire.WireError):
        wire.FrameDecoder().feed(frame)


def test_binary_blob_reference_out_of_range_rejected():
    body = _envelope(b'{"arr":{"__nd__":3}}')
    frame = _valid_header(len(body)) + body
    with pytest.raises(wire.WireError, match="out of range"):
        wire.FrameDecoder().feed(frame)


def test_an_escaped_blob_reference_is_rejected_too():
    body = _envelope(b'{"arr":{"\\u005f_nd__":0}}')
    frame = _valid_header(len(body)) + body
    with pytest.raises(wire.WireError, match="out of range"):
        wire.FrameDecoder().feed(frame)


def test_random_garbage_never_escapes_the_wire_error_hierarchy():
    rng = np.random.default_rng(31337)
    for _ in range(300):
        blob = rng.integers(0, 256, size=int(rng.integers(1, 200))).astype(
            np.uint8
        ).tobytes()
        decoder = wire.FrameDecoder()
        try:
            decoder.feed(blob)
        except wire.WireError:
            pass  # structured rejection: exactly what the server maps to
        # Anything else (IndexError, struct.error, ...) fails the test.


def test_mutated_valid_frames_never_escape_wire_errors():
    rng = np.random.default_rng(424242)
    pristine = wire.encode_frame("upload", wire.encode_upload(3, batches_at(3)))
    for _ in range(300):
        blob = bytearray(pristine)
        for _flip in range(int(rng.integers(1, 8))):
            blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
        decoder = wire.FrameDecoder()
        try:
            frames = decoder.feed(bytes(blob))
            for _frame_type, decoded in frames:
                # A frame that survived byte flips may still carry a
                # nonsense payload; the payload codec must reject it
                # structurally too, not crash.
                try:
                    wire.decode_upload(decoded)
                except wire.WireError:
                    pass
        except wire.WireError:
            pass


# -- hostile bytes against a live reactor --------------------------------------
@pytest.fixture()
def live_net():
    server = DatabaseServer(build_database(), snapshot_every=None)
    net = NetworkServer(
        server,
        max_connections=16,
        max_inflight=4,
        idle_timeout=30.0,
        loop_threads=2,
    )
    net.start()
    yield net
    net.close(stop_server=True)
    assert net._unhandled_errors == []


def _raw_conn(net: NetworkServer) -> socket.socket:
    sock = socket.create_connection(net.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _read_until_closed(sock: socket.socket, limit: int = 1 << 20) -> bytes:
    data = bytearray()
    try:
        while len(data) < limit:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data.extend(chunk)
    except (socket.timeout, OSError):
        pass
    return bytes(data)


def test_reactor_answers_garbage_with_structured_error_then_closes(live_net):
    sock = _raw_conn(live_net)
    sock.sendall(b"GET / HTTP/1.1\r\nHost: example\r\n\r\n")
    data = _read_until_closed(sock)
    sock.close()
    frame_type, payload = wire.read_frame(io.BytesIO(data))
    assert frame_type == "error"
    assert payload["code"] == wire.ERR_BAD_FRAME


@pytest.mark.parametrize("version", [1, 42])
def test_reactor_answers_version_mismatch_structurally(live_net, version):
    sock = _raw_conn(live_net)
    blob = bytearray(wire.encode_frame("hello", {"client": "fuzz"}))
    blob[4] = version
    sock.sendall(bytes(blob))
    data = _read_until_closed(sock)
    sock.close()
    assert data[4] == wire.PROTOCOL_VERSION
    frame_type, payload = wire.read_frame(io.BytesIO(data))
    assert frame_type == "error"
    assert payload["code"] == wire.ERR_VERSION_MISMATCH


def test_reactor_rejects_hostile_length_prefix_without_buffering(live_net):
    sock = _raw_conn(live_net)
    sock.sendall(_valid_header(0x7FFFFFFF))
    data = _read_until_closed(sock)
    sock.close()
    frame_type, payload = wire.read_frame(io.BytesIO(data))
    assert frame_type == "error"
    assert payload["code"] == wire.ERR_BAD_FRAME
    # The declared 2 GiB body never accumulated server-side.
    assert live_net._reassembly_hwm <= wire.MAX_FRAME_BYTES


def test_mid_frame_disconnects_leave_no_debris(live_net):
    rng = np.random.default_rng(2024)
    blob = wire.encode_frame("hello", {"client": "fuzz"})
    for _ in range(30):
        cut = int(rng.integers(1, len(blob)))
        sock = _raw_conn(live_net)
        sock.sendall(blob[:cut])
        sock.close()
    deadline = _time.monotonic() + 5.0
    while live_net.open_connections and _time.monotonic() < deadline:
        _time.sleep(0.02)
    assert live_net.open_connections == 0
    # The reactor still serves a well-behaved exchange afterwards.  A
    # straggler from the accept backlog may transiently hold a slot
    # (client-side closes race the server-side accept), so tolerate a
    # connection-cap rejection and redial — exactly what the SDK does.
    deadline = _time.monotonic() + 5.0
    while True:
        sock = _raw_conn(live_net)
        sock.sendall(blob)
        frame_type, _payload = wire.read_frame(sock.makefile("rb"))
        sock.close()
        if frame_type == "welcome" or _time.monotonic() >= deadline:
            break
        _time.sleep(0.05)
    assert frame_type == "welcome"


def test_valid_frame_then_garbage_gets_answer_then_error(live_net):
    sock = _raw_conn(live_net)
    stream = sock.makefile("rb")
    sock.sendall(wire.encode_frame("hello", {"client": "fuzz"}) + b"\x00" * 32)
    frame_type, _payload = wire.read_frame(stream)
    assert frame_type == "welcome"
    frame_type, payload = wire.read_frame(stream)
    assert frame_type == "error"
    assert payload["code"] == wire.ERR_BAD_FRAME
    assert stream.read(1) == b""  # then the server hangs up
    sock.close()


def test_random_byte_storm_never_wedges_the_reactor(live_net):
    rng = np.random.default_rng(777)
    for _ in range(25):
        sock = _raw_conn(live_net)
        blob = rng.integers(0, 256, size=int(rng.integers(1, 500))).astype(
            np.uint8
        ).tobytes()
        try:
            sock.sendall(blob)
            _read_until_closed(sock, limit=1 << 16)
        finally:
            sock.close()
    # The loops survived: a fresh handshake still completes promptly.
    sock = _raw_conn(live_net)
    sock.sendall(wire.encode_frame("hello", {"client": "after-storm"}))
    frame_type, _ = wire.read_frame(sock.makefile("rb"))
    assert frame_type == "welcome"
    sock.close()


def test_response_type_frames_sent_as_requests_get_unsupported(live_net):
    sock = _raw_conn(live_net)
    stream = sock.makefile("rb")
    sock.sendall(wire.encode_frame("welcome", {"server": "imposter"}))
    frame_type, payload = wire.read_frame(stream)
    assert frame_type == "error"
    assert payload["code"] == wire.ERR_UNSUPPORTED
    # Not fatal: the connection still answers a real handshake.
    sock.sendall(wire.encode_frame("hello", {"client": "fuzz"}))
    frame_type, _ = wire.read_frame(stream)
    assert frame_type == "welcome"
    sock.close()


# -- hostile credentials against a tenant-aware reactor ------------------------
@pytest.fixture()
def tenant_net():
    from repro.tenancy import Tenant, TenantRegistry

    registry = TenantRegistry(
        [
            Tenant("fuzz-owner", "fuzz-owner-token", role="owner"),
            Tenant("fuzz-analyst", "fuzz-analyst-token", role="analyst"),
        ]
    )
    server = DatabaseServer(build_database(), snapshot_every=None)
    net = NetworkServer(
        server,
        registry=registry,
        max_connections=16,
        max_inflight=4,
        idle_timeout=30.0,
        loop_threads=2,
    )
    net.start()
    yield net
    net.close(stop_server=True)
    assert net._unhandled_errors == []


def _hello_response(net, payload: dict) -> tuple[str, dict]:
    sock = _raw_conn(net)
    try:
        sock.sendall(wire.encode_frame("hello", payload))
        stream = sock.makefile("rb")
        frame_type, body = wire.read_frame(stream)
        if frame_type == "error":
            # An auth failure must also close the connection cleanly.
            assert stream.read(1) == b""
        return frame_type, body
    finally:
        sock.close()


def test_malformed_credential_shapes_all_rejected_structurally(tenant_net):
    hostile_values = [
        None,
        0,
        1.5,
        True,
        [],
        ["fuzz-owner"],
        {},
        {"id": "fuzz-owner"},
        "",
    ]
    for tenant in hostile_values:
        for token in hostile_values:
            frame_type, body = _hello_response(
                tenant_net,
                {"client": "fuzz", "tenant": tenant, "token": token},
            )
            assert frame_type == "error"
            assert body["code"] == wire.ERR_AUTH_FAILED


def test_oversized_credentials_rejected_without_amplification(tenant_net):
    for size in (1025, 4096, 1 << 16):
        for payload in (
            {"tenant": "x" * size, "token": "fuzz-owner-token"},
            {"tenant": "fuzz-owner", "token": "x" * size},
            {"tenant": "x" * size, "token": "y" * size},
        ):
            payload["client"] = "fuzz"
            frame_type, body = _hello_response(tenant_net, payload)
            assert frame_type == "error"
            assert body["code"] == wire.ERR_AUTH_FAILED
            assert "1024" in body["message"]


def test_credential_errors_never_echo_the_presented_token(tenant_net):
    # The tenant *id* may appear in the refusal (it names the subject);
    # the presented *token* must never leak into any error surface.
    token_marker = "sekrit-fuzz-token-marker"
    for payload in (
        {"client": "fuzz", "tenant": "fuzz-owner", "token": token_marker},
        {"client": "fuzz", "tenant": "ghost-tenant", "token": token_marker},
    ):
        frame_type, body = _hello_response(tenant_net, payload)
        assert frame_type == "error"
        assert token_marker not in body.get("message", "")


def test_randomized_credential_garbage_never_wedges_auth(tenant_net):
    rng = np.random.default_rng(4242)
    alphabet = np.frombuffer(bytes(range(256)), dtype=np.uint8)
    for _ in range(60):
        tenant = bytes(
            rng.choice(alphabet, size=int(rng.integers(0, 64)))
        ).decode("latin1")
        token = bytes(
            rng.choice(alphabet, size=int(rng.integers(0, 64)))
        ).decode("latin1")
        frame_type, body = _hello_response(
            tenant_net, {"client": "fuzz", "tenant": tenant, "token": token}
        )
        assert frame_type == "error"
        assert body["code"] == wire.ERR_AUTH_FAILED
    # The registry still authenticates a well-formed principal.
    frame_type, body = _hello_response(
        tenant_net,
        {
            "client": "fuzz",
            "tenant": "fuzz-analyst",
            "token": "fuzz-analyst-token",
        },
    )
    assert frame_type == "welcome"
    assert body["tenant"] == "fuzz-analyst"
    assert body["role"] == "analyst"


def test_request_frames_before_credentialed_hello_are_refused(tenant_net):
    for frame in ("query", "upload", "stats", "snapshot", "reshard"):
        sock = _raw_conn(tenant_net)
        try:
            sock.sendall(wire.encode_frame(frame, {}))
            frame_type, body = wire.read_frame(sock.makefile("rb"))
        finally:
            sock.close()
        assert frame_type == "error"
        assert body["code"] == wire.ERR_AUTH_FAILED


# -- hostile bytes against the metrics listener --------------------------------
@pytest.fixture()
def metrics_endpoint(live_net):
    from repro.net.metrics import MetricsServer

    with MetricsServer(live_net, port=0) as metrics:
        yield metrics.address


def _raw_metrics_conn(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def test_metrics_truncated_request_lines_close_cleanly(metrics_endpoint):
    for blob in (b"", b"G", b"GET", b"GET /metrics", b"GET /metrics HTTP/1.1\r\n"):
        sock = _raw_metrics_conn(metrics_endpoint)
        try:
            if blob:
                sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            data = _read_until_closed(sock, limit=1 << 16)
        finally:
            sock.close()
        # Either nothing (too truncated to parse) or an HTTP error —
        # never a hang, never a traceback blob.
        assert b"Traceback" not in data


def test_metrics_garbage_requests_never_crash_the_listener(metrics_endpoint):
    rng = np.random.default_rng(9091)
    for _ in range(25):
        blob = (
            rng.integers(0, 256, size=int(rng.integers(1, 300)))
            .astype(np.uint8)
            .tobytes()
        )
        sock = _raw_metrics_conn(metrics_endpoint)
        try:
            sock.sendall(blob)
            # Half-close: the parser sees EOF, so this exercises parsing
            # rather than whose timer fires first.
            sock.shutdown(socket.SHUT_WR)
            _read_until_closed(sock, limit=1 << 16)
        except OSError:
            pass
        finally:
            sock.close()
    # The listener survived the storm and still serves a real scrape.
    _assert_scrape_succeeds(metrics_endpoint)


def _assert_scrape_succeeds(address) -> None:
    sock = _raw_metrics_conn(address)
    try:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: fuzz\r\n\r\n")
        data = _read_until_closed(sock, limit=1 << 20)
    finally:
        sock.close()
    assert data.startswith(b"HTTP/1.0 200") or data.startswith(b"HTTP/1.1 200")
    assert b"incshrink_" in data


def test_metrics_silent_peer_is_hung_up_on(live_net, monkeypatch):
    """Half a request line, then silence: the server closes within its
    read timeout instead of parking a thread on the peer's goodwill."""
    from repro.net import metrics

    monkeypatch.setattr(metrics, "REQUEST_READ_TIMEOUT", 0.3)
    with metrics.MetricsServer(live_net, port=0) as server:
        sock = _raw_metrics_conn(server.address)
        try:
            sock.sendall(b"GET /metr")
            t0 = _time.monotonic()
            data = _read_until_closed(sock, limit=1 << 16)
            assert _time.monotonic() - t0 < 2.0
        finally:
            sock.close()
        assert b"Traceback" not in data
        _assert_scrape_succeeds(server.address)


def test_metrics_rejects_writes_and_unknown_paths(metrics_endpoint):
    for request, expected in (
        (b"POST /metrics HTTP/1.1\r\nHost: f\r\nContent-Length: 0\r\n\r\n", b" 405 "),
        (b"DELETE /healthz HTTP/1.1\r\nHost: f\r\n\r\n", b" 405 "),
        (b"GET /admin HTTP/1.1\r\nHost: f\r\n\r\n", b" 404 "),
    ):
        sock = _raw_metrics_conn(metrics_endpoint)
        try:
            sock.sendall(request)
            data = _read_until_closed(sock, limit=1 << 16)
        finally:
            sock.close()
        assert expected in data.split(b"\r\n", 1)[0] + b" "
