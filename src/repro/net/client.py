"""The analyst/owner SDK: a typed client for the network front door.

:class:`IncShrinkClient` mirrors the in-process serving surface over one
TCP connection:

* ``connect()`` retries with capped exponential backoff and full jitter
  (servers often come up a beat after their clients in scripted
  deployments, and jitter de-synchronizes reconnect herds) and performs the
  ``hello``/``welcome`` handshake, capturing the server's public
  deployment metadata (:attr:`server_info` — view names and join specs,
  shard count, stream watermark);
* ``upload``/``query``/``stats``/``snapshot``/``reshard`` map one-to-one
  onto protocol frames; ``query`` accepts any AST form the in-process
  :meth:`~repro.server.runtime.DatabaseServer.query` accepts and returns
  a typed :class:`~repro.net.protocol.RemoteQueryResult`;
* structured ``overloaded`` rejections are retried automatically after
  the server's ``retry_after`` hint (bounded by ``busy_retries``); every
  other ``error`` frame raises :class:`~repro.net.protocol.RemoteError`
  with its machine-readable code;
* ``upload_many`` pipelines a run of steps in one write burst and one
  read pass — the reactor coalesces the burst into a single batched
  queue submission — and :attr:`bytes_sent`/:attr:`bytes_received`
  meter the wire;
* the client is a context manager (``with IncShrinkClient(...) as c:``)
  and is safe to share across threads — one request/response exchange at
  a time, serialized on an internal lock.
"""

from __future__ import annotations

import socket
import threading
import time as _time
from typing import Iterable, Mapping

from ..common.types import RecordBatch
from ..query.ast import LogicalQuery
from . import protocol as wire
from .backoff import backoff_delay, clamp_retry_after
from .protocol import RemoteError, RemoteQueryResult, WireError


class _MeteredStream:
    """File-like wrapper metering every byte that crosses the socket.

    Benchmarks need honest bytes-on-wire numbers, and the frame
    reader/writer only see a file object — so the count happens here,
    transparently, for requests and responses alike.
    """

    __slots__ = ("_stream", "_owner")

    def __init__(self, stream, owner: "IncShrinkClient") -> None:
        self._stream = stream
        self._owner = owner

    def read(self, n: int = -1) -> bytes:
        data = self._stream.read(n)
        self._owner._bytes_received += len(data)
        return data

    def write(self, data) -> int:
        self._owner._bytes_sent += len(data)
        return self._stream.write(data)

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()


class IncShrinkClient:
    """One connection to a :class:`~repro.net.server.NetworkServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str | None = None,
        timeout: float = 30.0,
        connect_retries: int = 20,
        retry_backoff: float = 0.05,
        busy_retries: int = 16,
        tenant: str | None = None,
        token: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or "incshrink-client"
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff
        self.busy_retries = busy_retries
        #: multi-tenant credentials, sent in the ``hello`` frame when
        #: set.  A registry-backed server answers a wrong or missing
        #: pair with a structured ``auth-failed`` error and closes; a
        #: registry-less server ignores the fields entirely.
        self.tenant = tenant
        self.token = token
        #: the server's ``welcome`` payload (views, shard count, watermark)
        self.server_info: dict = {}
        self._sock: socket.socket | None = None
        self._stream = None
        self._lock = threading.Lock()
        self._bytes_sent = 0
        self._bytes_received = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._stream is not None

    @property
    def bytes_sent(self) -> int:
        """Request bytes written to the wire (frames + headers),
        accumulated across reconnects."""
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        """Response bytes read off the wire, accumulated across
        reconnects."""
        return self._bytes_received

    def connect(self) -> "IncShrinkClient":
        """Dial the server (with retry) and perform the handshake.

        Both failure modes retry with backoff up to ``connect_retries``
        times: an unreachable endpoint (redial), and a server at its
        connection cap — which answers the handshake with a structured
        ``overloaded`` error *and closes the socket*, so honouring its
        ``retry_after`` hint requires a fresh dial, not a resend.  When
        the retries run out the most recent error is raised
        (:class:`~repro.net.protocol.RemoteError` for a persistently
        full server, :class:`ConnectionError` otherwise).
        """
        if self.connected:
            return self
        last_error: Exception | None = None
        for attempt in range(max(1, self.connect_retries)):
            if attempt:
                # Exponential backoff with full jitter, capped
                # (:mod:`repro.net.backoff`).  Jitter keeps a
                # thundering herd of reconnecting clients from landing
                # on the same instant after a server restart.
                _time.sleep(backoff_delay(attempt - 1, base=self.retry_backoff))
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._stream = _MeteredStream(sock.makefile("rwb"), self)
            try:
                # No same-socket busy retry here: a connection-cap
                # rejection closes the socket, so overload is handled
                # below by redialing.
                hello: dict = {"client": self.name}
                if self.tenant is not None:
                    hello["tenant"] = self.tenant
                if self.token is not None:
                    hello["token"] = self.token
                self.server_info = self._request(
                    "hello",
                    hello,
                    expect="welcome",
                    retry_busy=False,
                )
                return self
            except RemoteError as exc:
                # A failed handshake must not leave a half-connected
                # client behind: a later connect() would short-circuit
                # on `connected` and hand back a dead stream.
                self._teardown()
                if exc.code == wire.ERR_OVERLOADED:
                    last_error = exc
                    # The hint is untrusted wire data: absent, zero, or
                    # negative values all clamp to a floor so a shedding
                    # server is never redialed in a hot loop.
                    _time.sleep(clamp_retry_after(exc.retry_after))
                    continue
                raise
            except ConnectionError as exc:
                self._teardown()
                last_error = exc
                continue
            except BaseException:
                self._teardown()
                raise
        if isinstance(last_error, RemoteError):
            raise last_error
        raise ConnectionError(
            f"cannot reach {self.host}:{self.port} after "
            f"{self.connect_retries} attempts: {last_error}"
        )

    def _teardown(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Say goodbye (best effort) and release the socket."""
        with self._lock:
            if self._stream is not None:
                try:
                    wire.write_frame(self._stream, "bye", {})
                    wire.read_frame(self._stream)
                except (OSError, ValueError, WireError):
                    pass
            self._teardown()

    def __enter__(self) -> "IncShrinkClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ---------------------------------------------------------
    def _request(
        self, frame_type: str, payload: dict, expect: str, retry_busy: bool = True
    ) -> dict:
        """One exchange; retries structured ``overloaded`` rejections.

        A transport failure mid-exchange (timeout, reset, EOF) tears the
        connection down before raising: the stream is desynchronized —
        the server's late response would otherwise be read as the answer
        to the *next* request — so the only safe continuation is a fresh
        :meth:`connect`.
        """
        busy_budget = self.busy_retries if retry_busy else 0
        for attempt in range(busy_budget + 1):
            with self._lock:
                # Checked under the lock: a concurrent close() tears the
                # stream down inside the same critical section, so this
                # request either completes or sees "not connected".
                stream = self._stream
                if stream is None:
                    raise ConnectionError(
                        "client is not connected; call connect() first"
                    )
                try:
                    wire.write_frame(stream, frame_type, payload)
                    response_type, response = wire.read_frame(stream)
                except (OSError, ValueError, wire.ConnectionClosed) as exc:
                    self._teardown()
                    raise ConnectionError(
                        f"connection to {self.host}:{self.port} lost: {exc}"
                    ) from exc
            if response_type == "error":
                code = response.get("code", wire.ERR_SERVER)
                retry_after = response.get("retry_after")
                if code == wire.ERR_OVERLOADED and attempt < busy_budget:
                    # Only ``overloaded`` is retryable — ``auth-failed``,
                    # ``forbidden``, and ``budget-exhausted`` raise below:
                    # waiting makes no token valid and no ledger solvent.
                    # A missing/zero hint clamps to a floor (no hot loop).
                    _time.sleep(clamp_retry_after(retry_after))
                    continue
                raise RemoteError(
                    code, response.get("message", "unspecified"), retry_after
                )
            if response_type != expect:
                raise WireError(
                    f"expected a {expect!r} frame in response to "
                    f"{frame_type!r}, got {response_type!r}"
                )
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    # -- the serving surface ------------------------------------------------------
    def upload(
        self,
        time: int,
        batches: Mapping[str, RecordBatch] | Iterable[tuple[str, RecordBatch]],
        wait: bool = False,
        wait_timeout: float = 30.0,
    ) -> dict:
        """Submit one step's padded batches to the server's ingest backlog.

        With ``wait=True`` the call returns only after the server has
        applied everything queued before it (read-your-writes
        for the subsequent query).  Returns the ``upload_ok`` payload:
        applied watermark, current queue depth, and ``drained`` —
        ``False`` means the upload was *accepted* but the bounded wait
        expired before it applied (do **not** resend; the step is
        queued and a resend would be stale).
        """
        payload = wire.encode_upload(time, batches, wait=wait)
        if wait:
            payload["wait_timeout"] = float(wait_timeout)
        return self._request("upload", payload, expect="upload_ok")

    def upload_many(
        self,
        steps: Iterable[
            tuple[int, Mapping[str, RecordBatch] | Iterable[tuple[str, RecordBatch]]]
        ],
        wait: bool = False,
        wait_timeout: float = 30.0,
    ) -> list[dict]:
        """Pipeline a run of steps: one write burst, one read pass.

        All frames go out back-to-back before any response is read, so
        the reactor parses them as one run and coalesces the admission
        into a single batched queue submission.  ``wait=True`` attaches
        the drain wait to the **last** step only — when it has applied,
        every earlier step has too (read-your-writes for the burst).

        The server admits a burst as a *prefix* (admission stops at the
        first step that finds the ingest queue full), so ``overloaded``
        rejections are always a suffix — which this method retries
        after the server's ``retry_after`` hint, up to ``busy_retries``
        times, without ever re-sending an accepted step.  Returns one
        ``upload_ok`` payload per step, in order.
        """
        remaining = list(steps)
        results: list[dict] = []
        if not remaining:
            return results
        for attempt in range(self.busy_retries + 1):
            with self._lock:
                stream = self._stream
                if stream is None:
                    raise ConnectionError(
                        "client is not connected; call connect() first"
                    )
                payloads = []
                for idx, (time, batches) in enumerate(remaining):
                    last = idx == len(remaining) - 1
                    payload = wire.encode_upload(time, batches, wait=wait and last)
                    if wait and last:
                        payload["wait_timeout"] = float(wait_timeout)
                    payloads.append(payload)
                try:
                    stream.write(
                        b"".join(wire.encode_frame("upload", p) for p in payloads)
                    )
                    stream.flush()
                    responses = [wire.read_frame(stream) for _ in payloads]
                except (OSError, ValueError, wire.ConnectionClosed) as exc:
                    self._teardown()
                    raise ConnectionError(
                        f"connection to {self.host}:{self.port} lost: {exc}"
                    ) from exc
            retry_from: int | None = None
            retry_after: float | None = None
            for i, (response_type, response) in enumerate(responses):
                if response_type == "upload_ok":
                    results.append(response)
                    continue
                if response_type == "error":
                    code = response.get("code", wire.ERR_SERVER)
                    if code == wire.ERR_OVERLOADED:
                        retry_from = i
                        retry_after = response.get("retry_after")
                        break
                    raise RemoteError(
                        code,
                        response.get("message", "unspecified"),
                        response.get("retry_after"),
                    )
                raise WireError(
                    f"expected an 'upload_ok' frame in response to "
                    f"'upload', got {response_type!r}"
                )
            if retry_from is None:
                return results
            remaining = remaining[retry_from:]
            if attempt < self.busy_retries:
                _time.sleep(clamp_retry_after(retry_after))
        raise RemoteError(
            wire.ERR_OVERLOADED,
            f"ingest queue still full after {self.busy_retries} retries "
            f"({len(remaining)} steps unsubmitted)",
            retry_after,
        )

    def query(
        self,
        query: LogicalQuery,
        time: int | None = None,
        epsilon: float | None = None,
    ) -> RemoteQueryResult:
        """Plan and execute one logical query on the server.

        Mirrors :meth:`repro.server.runtime.DatabaseServer.query`:
        ``time=None`` resolves to the ingestion watermark under the
        server's read lock, and ``epsilon`` releases the answers with
        per-aggregate Laplace noise spent in the server's accountant.
        """
        payload = {
            "query": wire.encode_query(query),
            "time": None if time is None else int(time),
            "epsilon": None if epsilon is None else float(epsilon),
        }
        return wire.decode_result(self._request("query", payload, expect="result"))

    def stats(self) -> dict:
        """The server's observability surface (``ServingStats.to_dict()``
        plus watermark, shard count, and realized ε)."""
        return self._request("stats", {}, expect="stats_result")

    def snapshot(self, path: str | None = None) -> dict:
        """Ask the server to checkpoint; returns the snapshot receipt."""
        payload = {} if path is None else {"path": path}
        return self._request("snapshot", payload, expect="snapshot_ok")

    def reshard(self, n_shards: int) -> dict:
        """Re-partition every view server-side (answers and ε unchanged)."""
        return self._request(
            "reshard", {"n_shards": int(n_shards)}, expect="reshard_ok"
        )

    def views(self) -> list[dict]:
        """Registered views (name + join spec) from the handshake."""
        return list(self.server_info.get("views", []))
