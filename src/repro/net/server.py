"""The event-driven socket front door around one :class:`DatabaseServer`.

:class:`NetworkServer` gives the in-process serving runtime an actual
service boundary — the deployment shape of the paper's Figure 1, where
owners and analysts talk to the two untrusted servers over a network
rather than through Python object references.  Since PR 7 the front
door is a **reactor**, not thread-per-connection:

* a small fixed pool of **event-loop threads** (``loop_threads``), each
  multiplexing its share of non-blocking sockets through one
  :mod:`selectors` selector; connections are assigned round-robin at
  accept, so a thousand mostly-idle connections cost a thousand socket
  objects, not a thousand stacks;
* a per-connection **frame-reassembly state machine**
  (:class:`~repro.net.protocol.FrameDecoder`) that tolerates arbitrary
  byte fragmentation, validates headers before buffering bodies, and
  keeps reassembly memory bounded by one declared frame;
* a request **runs on the event-loop thread that decoded it** whenever
  it provably cannot stall the loop, and on a small **executor** only
  otherwise (two lanes, one rule — :meth:`NetworkServer._pump`): upload
  admission never waits, and a lone ``wait=True`` upload is applied
  right there when the ingest backlog is idle, the write lock free and
  the step within the inline bounds (public row counts); a
  query or ``stats`` frame runs inline iff its plan is a view scan below
  the scan executor's own inline bound, takes the read lock without
  waiting, and waits for the MPC lock only behind such bounded scans
  (:class:`~repro.server.runtime.MpcLock`) — a wait bounded by one scan
  per other query frame in line, at most ``max_inflight − 1``; a read
  lock held or wanted by a writer, the MPC lock held by (or promised to)
  unbounded work, an NM join, a big cold scan, ``snapshot`` and
  ``reshard`` go to the executor — so one
  slow MPC circuit still cannot stall the I/O of 999 other connections,
  and a 0.5 ms query is not bounced across two threads to be answered,
  not even when another analyst's scan holds the MPC lock;
* a ``wait=True`` upload the loop could not apply itself (a step is
  queued, the write lock is busy, a checkpoint falls due, the step is
  past the inline bounds, or it came in a coalesced run) is a
  **continuation**, not a parked thread: the
  thread that applies the step calls back, and the client's
  ``wait_timeout`` is an event-loop timer;
* **bounded admission** everywhere, re-expressed as event-loop state
  instead of blocked threads: at most ``max_connections`` concurrent
  connections and ``max_inflight`` concurrently executing requests
  (anything beyond is *rejected* with a structured ``overloaded`` error
  carrying a ``retry_after`` hint, never buffered without bound); the
  ingest backlog applies the same policy through
  :meth:`~repro.server.runtime.DatabaseServer.try_submit`;
* **event-loop timers** reclaim connection slots: a peer that completes
  no frame for ``idle_timeout`` seconds (idle, dead, or slow-loris
  dribbling bytes without ever finishing a frame) is closed, as is a
  stalled reader whose kernel buffers stay full past the same deadline;
  a write buffer past ``max_write_buffer`` bytes closes immediately;
* back-to-back ``upload`` frames parsed from one connection are
  **coalesced** into a single admission-gate pass and a single batched
  backlog submission (:meth:`~repro.server.runtime.DatabaseServer.
  try_submit_many`), with one ``upload_ok`` answered per frame;
* **graceful drain** — :meth:`close` stops accepting, lets every
  in-flight request finish and flush its response, answers anything
  newly arrived with ``shutting-down``, then severs the idle
  connections.

The server binds ``127.0.0.1`` by default; pass ``port=0`` to let the
OS pick a free port (the bound address is :attr:`address`).
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import threading
import time as _time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from ..common.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    ReproError,
    SecurityError,
)
from ..query.ast import LogicalQuery
from ..server.runtime import DatabaseServer, WouldBlock
from ..tenancy.ledger import TenantLedger
from ..tenancy.quota import TenantGates
from ..tenancy.registry import Tenant, TenantRegistry
from . import protocol as wire

#: Request frames that consume an in-flight permit (everything that
#: executes against the database; hello and stats never compete with
#: real work).
_GUARDED_FRAMES = ("upload", "query", "snapshot", "reshard")

#: Request frames an event loop runs itself when their non-blocking form
#: goes through; the others (a write-lock hold each) always go to the
#: executor.
_LOOP_FRAMES = ("upload", "query", "stats")

#: recv() chunk size for the event loops.
_RECV_CHUNK = 65536


class _Connection:
    """Per-connection reactor state: reassembly, dispatch, write-back."""

    __slots__ = (
        "sock",
        "decoder",
        "pending",
        "outbuf",
        "executing",
        "permits",
        "counted",
        "eof",
        "wire_fail",
        "close_after_flush",
        "closed",
        "last_progress",
        "last_write_progress",
        "registered",
        "events",
        "tenant",
        "gate",
        "tenant_permits",
        "waiting",
    )

    def __init__(self, sock: socket.socket, counted: bool = True) -> None:
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        #: complete frames parsed but not yet dispatched (bounded)
        self.pending: deque = deque()
        #: encoded response bytes awaiting the socket
        self.outbuf = bytearray()
        #: a request batch is unanswered: on the executor, or an upload
        #: waiting for its step to be applied (:attr:`waiting`)
        self.executing = False
        #: in-flight permits held until the response bytes are flushed
        self.permits = 0
        #: whether this connection occupies a max_connections slot
        self.counted = counted
        self.eof = False
        #: deferred framing failure ``(code, message)`` — answered with
        #: a structured error once the frames before it are served
        self.wire_fail: tuple[str, str] | None = None
        self.close_after_flush = False
        self.closed = False
        now = _time.monotonic()
        #: monotonic time of the last *completed* frame (not last byte:
        #: a slow-loris dribble never resets the idle clock)
        self.last_progress = now
        #: monotonic time of the last successful socket write
        self.last_write_progress = now
        self.registered = False
        self.events = 0
        #: the authenticated :class:`~repro.tenancy.registry.Tenant`
        #: (None until a credentialed hello on a registry-backed server)
        self.tenant: Tenant | None = None
        #: the tenant's admission gate; holds one connection slot
        self.gate = None
        #: per-tenant in-flight permits held alongside :attr:`permits`
        self.tenant_permits = 0
        #: the admitted ``wait=True`` upload batch whose reply is a
        #: continuation the applying thread (or its deadline) will post
        self.waiting: _UploadWait | None = None


class _UploadWait:
    """An admitted upload batch that answers once its last step is applied."""

    __slots__ = ("responses", "admitted", "deadline")

    def __init__(self, responses: list, admitted: list, deadline: float) -> None:
        #: one slot per frame of the batch; rejected frames already answered
        self.responses = responses
        #: ``(slot, step, waits)`` of the frames the ingest backlog took
        self.admitted = admitted
        #: monotonic time at which the loop answers ``drained: false``
        self.deadline = deadline


class _EventLoop(threading.Thread):
    """One selector thread owning a subset of the connections."""

    def __init__(self, net: "NetworkServer", index: int) -> None:
        super().__init__(name=f"incshrink-loop-{index}", daemon=True)
        self.net = net
        self.index = index
        self.selector = selectors.DefaultSelector()
        self.connections: set[_Connection] = set()
        #: connections whose upload reply is a pending continuation; each
        #: holds an in-flight permit, so there are at most ``max_inflight``
        self.waiting: set[_Connection] = set()
        self._tasks: deque = deque()
        self._tasks_lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        self._listener: socket.socket | None = None
        self._stopping = False
        self._next_reap = 0.0

    # -- cross-thread entry point ------------------------------------------------
    def call_soon(self, fn, *args) -> None:
        """Schedule ``fn(*args)`` on this loop's thread and wake it."""
        with self._tasks_lock:
            self._tasks.append((fn, args))
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wake buffer full (already awake) or loop gone

    def attach_listener(self, listener: socket.socket) -> None:
        self._listener = listener
        self.selector.register(listener, selectors.EVENT_READ, ("listener", None))

    def attach(self, conn: _Connection) -> None:
        """Adopt one accepted connection (runs on this loop's thread)."""
        if self._stopping:
            self.net._discard(conn)
            _close_socket(conn.sock)
            return
        self.connections.add(conn)
        self.net._update_interest(self, conn)
        # A rejection connection arrives with a preloaded outbuf.
        if conn.outbuf:
            self.net._flush(self, conn)

    def shutdown(self) -> None:
        """Close everything this loop owns and let run() exit."""
        self._stopping = True
        if self._listener is not None:
            try:
                self.selector.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            _close_socket(self._listener)
            self._listener = None
        for conn in list(self.connections):
            self.net._close_conn(self, conn)

    # -- the loop ----------------------------------------------------------------
    def _poll_timeout(self) -> float:
        idle = self.net.idle_timeout
        if idle is None or not self.connections:
            return 0.5
        return max(0.02, min(0.5, idle / 4.0))

    def _select_timeout(self) -> float:
        """The poll timeout, cut short by the nearest upload-wait deadline."""
        timeout = self._poll_timeout()
        if self.waiting:
            nearest = min(conn.waiting.deadline for conn in self.waiting)
            timeout = min(timeout, max(0.0, nearest - _time.monotonic()))
        return timeout

    def run(self) -> None:
        while True:
            try:
                events = self.selector.select(self._select_timeout())
                # Drain before running tasks: a call_soon that lands after
                # the drain leaves its byte in the pipe and the next select
                # returns at once.  The other order swallows that byte with
                # its task still queued, and the task waits out the timeout.
                if any(key.data[0] == "wake" for key, _mask in events):
                    self._drain_wake()
                self._run_tasks()
                for key, mask in events:
                    kind, conn = key.data
                    if kind == "listener":
                        self.net._on_accept(self)
                    elif kind != "wake":
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self.net._flush(self, conn)
                        if mask & selectors.EVENT_READ and not conn.closed:
                            self.net._on_readable(self, conn)
                now = _time.monotonic()
                if self.waiting:
                    self.net._expire_upload_waits(self, now)
                if now >= self._next_reap:
                    self._next_reap = now + self._poll_timeout()
                    self.net._reap_idle(self, now)
                if self._stopping and not self.connections:
                    break
            except Exception as exc:  # never die silently: record and carry on
                self.net._unhandled_errors.append(exc)
                if self._stopping:
                    break
        try:
            self.selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _run_tasks(self) -> None:
        while True:
            with self._tasks_lock:
                if not self._tasks:
                    return
                fn, args = self._tasks.popleft()
            fn(*args)


class NetworkServer:
    """Serve one :class:`DatabaseServer` over TCP, event-driven."""

    def __init__(
        self,
        server: DatabaseServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 32,
        max_inflight: int = 8,
        retry_after: float = 0.05,
        max_wait_timeout: float = 60.0,
        idle_timeout: float | None = 300.0,
        loop_threads: int = 2,
        max_write_buffer: int = 2 * wire.MAX_FRAME_BYTES,
        max_pending_frames: int = 64,
        socket_sndbuf: int | None = None,
        registry: TenantRegistry | None = None,
        audit_log: str | None = None,
    ) -> None:
        if max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if retry_after <= 0:
            raise ConfigurationError(
                f"retry_after must be positive, got {retry_after}"
            )
        if max_wait_timeout <= 0:
            raise ConfigurationError(
                f"max_wait_timeout must be positive, got {max_wait_timeout}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ConfigurationError(
                f"idle_timeout must be positive (or None), got {idle_timeout}"
            )
        if loop_threads < 1:
            raise ConfigurationError(
                f"loop_threads must be >= 1, got {loop_threads}"
            )
        if max_write_buffer < 1:
            raise ConfigurationError(
                f"max_write_buffer must be >= 1, got {max_write_buffer}"
            )
        if max_pending_frames < 1:
            raise ConfigurationError(
                f"max_pending_frames must be >= 1, got {max_pending_frames}"
            )
        self.server = server
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        #: ceiling on the client-supplied `wait_timeout` of an upload
        #: frame — an in-flight permit is held for the wait, so an
        #: unbounded client value could pin the request capacity
        self.max_wait_timeout = max_wait_timeout
        #: per-connection progress deadline — a peer that completes no
        #: frame (idle, dead, or slow-loris) or accepts no response
        #: bytes (stalled reader) for this long is closed by the loop's
        #: timer wheel; None disables (trusted single-tenant setups)
        self.idle_timeout = idle_timeout
        #: number of event-loop threads multiplexing the connections.
        #: Loops execute requests, so one loop serves two busy analyst
        #: connections faster than two (no contended ``_mpc_lock``) —
        #: but only while the scheduler gives that one thread a
        #: core of its own: sharing one with its clients it falls back to
        #: the two-loop rate, and on a 2-core host it flips between the
        #: two from run to run (docs/NETWORK.md).  Two is the steady one.
        self.loop_threads = loop_threads
        #: per-connection write-buffer cap: a reader stalled past this
        #: many un-sent response bytes is disconnected immediately
        self.max_write_buffer = max_write_buffer
        #: per-connection cap on parsed-but-undispatched frames; past
        #: it the loop stops reading that socket (TCP backpressure)
        self.max_pending_frames = max_pending_frames
        #: when set, pins SO_SNDBUF on accepted sockets — disables
        #: kernel autotuning so per-connection kernel memory is bounded
        #: and a stalled reader hits :attr:`max_write_buffer` promptly
        self.socket_sndbuf = socket_sndbuf
        self._listener: socket.socket | None = None
        self._loops: list[_EventLoop] = []
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._inflight = threading.Semaphore(max_inflight)
        # Admission gate for uploads: a stale (non-advancing) step must
        # be rejected *synchronously* — once enqueued it would fail when
        # applied and poison ingestion for every client.
        self._upload_gate = threading.Lock()
        self._open_connections = 0
        self._next_loop = 0
        self._closing = False
        self._closed = False
        #: exceptions the event loops could not attribute to a request
        #: (should stay empty; the fuzz suite asserts it does)
        self._unhandled_errors: list[BaseException] = []
        #: high-water mark of any connection's reassembly buffer, for
        #: bounded-memory assertions in tests
        self._reassembly_hwm = 0
        #: multi-tenant identity/quota config.  ``None`` = open
        #: back-compat mode: hello's tenant/token fields are ignored and
        #: every request is served exactly as before PR 10.
        self.registry = registry
        self._gates = None if registry is None else TenantGates(registry)
        #: structured JSON audit trail (auth failures, budget refusals,
        #: quota rejections) — a bounded in-memory ring plus an optional
        #: append-only JSON-lines file at ``audit_log``
        self.audit_log = audit_log
        self.audit_events: deque = deque(maxlen=1024)
        self._audit_lock = threading.Lock()
        if registry is not None:
            budgets = registry.budgets()
            if budgets:
                server.database.set_tenant_budgets(budgets)

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemera)."""
        if self._listener is None:
            raise ConfigurationError("server not started; call start() first")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    @property
    def open_connections(self) -> int:
        """Connections currently holding a ``max_connections`` slot."""
        with self._lock:
            return self._open_connections

    def start(self) -> "NetworkServer":
        """Bind, listen, and launch the event loops.

        Starts the wrapped :class:`DatabaseServer` too if the caller has
        not already — the network door implies a running ingest worker.
        """
        if self._listener is not None:
            raise ConfigurationError("network server already started")
        if not self.server.running:
            self.server.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(min(1024, max(128, self.max_connections)))
        listener.setblocking(False)
        self._listener = listener
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight + 1,
            thread_name_prefix="incshrink-net-exec",
        )
        self._loops = [_EventLoop(self, i) for i in range(self.loop_threads)]
        self._loops[0].attach_listener(listener)
        for loop in self._loops:
            loop.start()
        return self

    def close(self, drain_timeout: float = 10.0, stop_server: bool = False) -> None:
        """Graceful drain: finish in-flight requests, then disconnect.

        New *guarded* requests (upload/query/snapshot/reshard) arriving
        during the drain are answered with a structured
        ``shutting-down`` error; the cheap observability frames
        (hello/stats) keep being served so monitors can watch the drain
        itself.  With ``stop_server`` the wrapped
        :class:`DatabaseServer` is stopped afterwards as well (draining
        its ingest backlog under the same timeout).
        """
        if self._listener is None or self._closed:
            return
        self._closing = True
        deadline = _time.monotonic() + drain_timeout
        # Wait for every in-flight request to finish *and flush*: the
        # permits are released only after the response bytes left the
        # write buffer, so when all max_inflight permits are
        # re-acquirable nothing executed is still unanswered.
        acquired = 0
        for _ in range(self.max_inflight):
            remaining = deadline - _time.monotonic()
            if remaining <= 0 or not self._inflight.acquire(timeout=remaining):
                break
            acquired += 1
        for _ in range(acquired):
            self._inflight.release()
        # Sever the (now idle) connections and stop the loops.
        for loop in self._loops:
            loop.call_soon(loop.shutdown)
        for loop in self._loops:
            loop.join(timeout=max(0.1, deadline - _time.monotonic()))
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._closed = True
        if stop_server:
            self.server.stop(drain_timeout=drain_timeout)

    def __enter__(self) -> "NetworkServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept path --------------------------------------------------------------
    def _on_accept(self, loop: _EventLoop) -> None:
        """Drain the accept backlog (runs on the listener's loop)."""
        assert self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # listener closed by close()
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self.socket_sndbuf is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, self.socket_sndbuf
                    )
            except OSError:
                pass
            if self._closing:
                _close_socket(sock)
                continue
            with self._lock:
                admit = self._open_connections < self.max_connections
                if admit:
                    self._open_connections += 1
                target = self._loops[self._next_loop % len(self._loops)]
                self._next_loop += 1
            conn = _Connection(sock, counted=admit)
            if not admit:
                # Structured rejection: the error frame is queued on the
                # connection's write buffer and the socket closes once
                # it flushes — no thread ever blocks on a slow peer.
                conn.outbuf += wire.encode_frame(
                    "error",
                    wire.error_payload(
                        wire.ERR_OVERLOADED,
                        f"server at max_connections={self.max_connections}",
                        retry_after=self.retry_after,
                    ),
                )
                conn.close_after_flush = True
            if target is loop:
                loop.attach(conn)
            else:
                target.call_soon(target.attach, conn)

    def _discard(self, conn: _Connection) -> None:
        """Release the connection's accounting slot."""
        if conn.counted:
            conn.counted = False
            with self._lock:
                self._open_connections -= 1

    # -- event handlers (loop threads only) ---------------------------------------
    def _close_conn(self, loop: _EventLoop, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.waiting = None  # the continuation finds nobody to answer
        loop.waiting.discard(conn)
        self._release_permits(conn)
        self._release_gate(conn)
        if conn.registered:
            try:
                loop.selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.registered = False
        _close_socket(conn.sock)
        loop.connections.discard(conn)
        self._discard(conn)

    def _release_permits(self, conn: _Connection) -> None:
        while conn.permits > 0:
            conn.permits -= 1
            self._inflight.release()
        while conn.tenant_permits > 0:
            conn.tenant_permits -= 1
            if conn.gate is not None:
                conn.gate.release_permit()

    def _release_gate(self, conn: _Connection) -> None:
        """Return the tenant's connection slot (at most once)."""
        gate, conn.gate = conn.gate, None
        if gate is not None:
            gate.release_connection()

    def _update_interest(self, loop: _EventLoop, conn: _Connection) -> None:
        if conn.closed:
            return
        events = 0
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        read_paused = len(conn.pending) >= self.max_pending_frames
        if (
            not conn.close_after_flush
            and not conn.eof
            and conn.wire_fail is None
            and not read_paused
            and len(conn.outbuf) < self.max_write_buffer
        ):
            events |= selectors.EVENT_READ
        if events == conn.events and conn.registered == bool(events):
            return
        try:
            if conn.registered and events:
                loop.selector.modify(conn.sock, events, ("conn", conn))
            elif conn.registered:
                loop.selector.unregister(conn.sock)
            elif events:
                loop.selector.register(conn.sock, events, ("conn", conn))
        except (KeyError, ValueError, OSError):
            self._close_conn(loop, conn)
            return
        conn.registered = bool(events)
        conn.events = events

    def _on_readable(self, loop: _EventLoop, conn: _Connection) -> None:
        while conn.wire_fail is None and len(conn.pending) < self.max_pending_frames:
            try:
                data = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(loop, conn)
                return
            if not data:
                conn.eof = True
                break
            try:
                frames = conn.decoder.feed(data)
                failure = conn.decoder.error
            except wire.WireError as exc:
                frames = []
                failure = exc
            buffered = conn.decoder.buffered_bytes
            if buffered > self._reassembly_hwm:
                self._reassembly_hwm = buffered
            if frames:
                conn.last_progress = _time.monotonic()
                conn.pending.extend(frames)
            if failure is not None:
                # Frames completed before the malformed bytes still get
                # answered (pending drains first); then the structured
                # error goes out and the connection closes.
                code = (
                    wire.ERR_VERSION_MISMATCH
                    if isinstance(failure, wire.VersionMismatch)
                    else wire.ERR_BAD_FRAME
                )
                conn.wire_fail = (code, str(failure))
                break
        if conn.eof and conn.waiting is not None:
            # Nobody is left to wait on the peer's behalf: answer now (the
            # steps stay queued), which frees the permits on the flush.
            self._end_upload_wait(loop, conn, drained=False, error=None)
            return
        self._pump(loop, conn)

    def _fail_conn(
        self, loop: _EventLoop, conn: _Connection, code: str, message: str
    ) -> None:
        """Malformed framing: answer a structured error, then hang up."""
        conn.pending.clear()
        conn.close_after_flush = True
        try:
            conn.outbuf += wire.encode_frame("error", wire.error_payload(code, message))
        except wire.WireError:  # pragma: no cover - error payloads encode
            pass
        self._flush(loop, conn)

    def _pump(self, loop: _EventLoop, conn: _Connection) -> None:
        """Dispatch parsed frames in order; one request batch at a time."""
        while (
            not conn.closed
            and not conn.executing
            and not conn.close_after_flush
            and conn.pending
            and len(conn.outbuf) < self.max_write_buffer
        ):
            frame_type, payload = conn.pending[0]
            if frame_type == "bye":
                conn.pending.clear()
                conn.close_after_flush = True
                self._send(loop, conn, [("bye", {})])
                break
            if frame_type == "hello":
                conn.pending.popleft()
                if self.registry is not None:
                    failure = self._authenticate(conn, payload)
                    if failure is not None:
                        # A failed handshake answers one structured
                        # error and closes cleanly once it flushes.
                        conn.pending.clear()
                        conn.close_after_flush = True
                        self._send(loop, conn, [failure])
                        break
                self._send(loop, conn, [("welcome", self._welcome(conn.tenant))])
                continue
            if frame_type in _GUARDED_FRAMES or frame_type == "stats":
                batch = [conn.pending.popleft()]
                if frame_type == "upload":
                    # Coalesce back-to-back uploads into one admission
                    # pass and one batched backlog submission.
                    limit = max(1, self.server.ingest_batch)
                    while (
                        len(batch) < limit
                        and conn.pending
                        and conn.pending[0][0] == "upload"
                    ):
                        batch.append(conn.pending.popleft())
                if self.registry is not None:
                    rejection = self._authorize(conn, frame_type, len(batch))
                    if rejection is not None:
                        if rejection[1].get("code") == wire.ERR_AUTH_FAILED:
                            # Requests before a credentialed hello: one
                            # error, then hang up.
                            conn.pending.clear()
                            conn.close_after_flush = True
                            self._send(loop, conn, [rejection])
                            break
                        self._send(loop, conn, [rejection] * len(batch))
                        continue
                if frame_type in _GUARDED_FRAMES:
                    rejection = self._admit(conn)
                    if rejection is not None:
                        self._send(loop, conn, [rejection] * len(batch))
                        continue
                # The two lanes.  Whatever provably cannot stall this
                # loop runs here, on the thread that decoded it: upload
                # admission (decode, gate, try_submit_many — or, for a lone
                # waited step within the inline bounds, try_apply), and a
                # query or stats frame whose non-blocking form goes
                # through — a bounded query waiting its turn at the MPC
                # lock behind other bounded scans only.
                # WouldBlock — the read lock busy, unbounded work at the
                # MPC lock, an NM join, a big cold scan — and the
                # write-lock frames take the executor.
                conn.executing = True
                if frame_type in _LOOP_FRAMES:
                    try:
                        blob = self._run_batch(loop, conn, batch, blocking=False)
                    except WouldBlock:
                        pass
                    else:
                        if blob is None:
                            break  # a waiting upload: its continuation answers
                        self._batch_done(loop, conn, blob)
                        continue
                assert self._executor is not None
                self._executor.submit(self._worker, loop, conn, batch)
                break
            # A response-type or unknown frame is not a request.
            conn.pending.popleft()
            self._send(
                loop,
                conn,
                [
                    (
                        "error",
                        wire.error_payload(
                            wire.ERR_UNSUPPORTED,
                            f"cannot serve {frame_type!r} frames",
                        ),
                    )
                ],
            )
        if (
            conn.wire_fail is not None
            and not conn.closed
            and not conn.pending
            and not conn.executing
            and not conn.close_after_flush
        ):
            code, message = conn.wire_fail
            self._fail_conn(loop, conn, code, message)
            return
        if (
            conn.eof
            and not conn.closed
            and not conn.pending
            and not conn.executing
            and not conn.outbuf
        ):
            self._close_conn(loop, conn)
            return
        self._update_interest(loop, conn)

    def _send(
        self, loop: _EventLoop, conn: _Connection, responses: list[tuple[str, dict]]
    ) -> None:
        conn.outbuf += self._encode_responses(responses)
        conn.last_write_progress = _time.monotonic()
        self._flush(loop, conn)

    def _encode_responses(self, responses: list[tuple[str, dict]]) -> bytes:
        """One frame per response.

        A response that cannot be encoded becomes a structured ``server``
        error *in its own slot*: a pipelining client counts replies, so a
        batch of N must always be answered with N frames.
        """
        frames = []
        for frame_type, payload in responses:
            try:
                frames.append(wire.encode_frame(frame_type, payload))
            except Exception as exc:  # a response that cannot encode
                frames.append(
                    wire.encode_frame(
                        "error",
                        wire.error_payload(
                            wire.ERR_SERVER,
                            f"response encoding failed: {type(exc).__name__}: {exc}",
                        ),
                    )
                )
        return b"".join(frames)

    def _flush(self, loop: _EventLoop, conn: _Connection) -> None:
        if conn.closed:
            return
        try:
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                if sent <= 0:
                    break
                del conn.outbuf[:sent]
                conn.last_write_progress = _time.monotonic()
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._close_conn(loop, conn)
            return
        if not conn.outbuf:
            self._release_permits(conn)
            if conn.close_after_flush:
                self._close_conn(loop, conn)
                return
            if conn.eof and not conn.pending and not conn.executing:
                self._close_conn(loop, conn)
                return
        elif len(conn.outbuf) > self.max_write_buffer:
            # A reader stalled past the cap: frames cannot be dropped
            # mid-stream, so the only bounded-memory option is hangup.
            self._close_conn(loop, conn)
            return
        self._update_interest(loop, conn)

    def _reap_idle(self, loop: _EventLoop, now: float) -> None:
        """Event-loop timers: reclaim slots held by unproductive peers."""
        if self.idle_timeout is None:
            return
        for conn in list(loop.connections):
            if conn.closed or conn.executing:
                continue
            stalled_write = (
                conn.outbuf and now - conn.last_write_progress > self.idle_timeout
            )
            idle = not conn.outbuf and (
                now - conn.last_progress > self.idle_timeout
            )
            if stalled_write or idle:
                self._close_conn(loop, conn)

    # -- request execution (either lane) ----------------------------------------------
    def _run_batch(
        self, loop: _EventLoop, conn: _Connection, batch: list, blocking: bool
    ) -> bytes | None:
        """Execute one admitted batch; return its encoded responses.

        The one body both lanes run: an event loop calls it with
        ``blocking=False`` — then it raises :class:`WouldBlock` instead of
        waiting for a lock held by anything but bounded scans or running
        an unbounded plan, with nothing executed — and the executor with
        ``blocking=True``.  ``None``
        means an upload batch left a continuation behind that will answer
        (:meth:`_end_upload_wait`).  Nothing else escapes: a handler bug is
        recorded and answered as a ``server`` error, so the connection
        never hangs with ``executing`` set.
        """
        frame_type = batch[0][0]
        try:
            if frame_type == "upload":
                responses = self._start_uploads(loop, conn, [p for _, p in batch])
                if responses is None:
                    return None
            elif frame_type == "stats":
                responses = [
                    ("stats_result", self.server.observability(blocking=blocking))
                ]
            else:
                responses = [
                    self._execute(
                        frame_type,
                        batch[0][1],
                        tenant=(
                            None
                            if conn.tenant is None
                            else conn.tenant.tenant_id
                        ),
                        blocking=blocking,
                    )
                ]
        except WouldBlock:
            raise
        except BaseException as exc:  # _execute never raises; belt and braces
            self._unhandled_errors.append(exc)
            responses = [
                (
                    "error",
                    wire.error_payload(
                        wire.ERR_SERVER, f"{type(exc).__name__}: {exc}"
                    ),
                )
            ] * len(batch)
        return self._encode_responses(responses)

    def _worker(self, loop: _EventLoop, conn: _Connection, batch: list) -> None:
        """The executor lane: may wait for locks, may run for long."""
        blob = self._run_batch(loop, conn, batch, blocking=True)
        loop.call_soon(self._on_worker_done, loop, conn, blob)

    def _on_worker_done(
        self, loop: _EventLoop, conn: _Connection, blob: bytes
    ) -> None:
        self._batch_done(loop, conn, blob)
        if not conn.closed:
            self._pump(loop, conn)

    def _batch_done(self, loop: _EventLoop, conn: _Connection, blob: bytes) -> None:
        """Queue a finished batch's responses on its connection and flush."""
        conn.executing = False
        conn.last_progress = _time.monotonic()
        if conn.closed:
            self._release_permits(conn)
            return
        conn.outbuf += blob
        conn.last_write_progress = conn.last_progress
        self._flush(loop, conn)

    # -- multi-tenant identity and quotas ------------------------------------------
    def _authenticate(
        self, conn: _Connection, payload: object
    ) -> tuple[str, dict] | None:
        """Verify a hello's tenant credentials against the registry.

        Returns the rejection response, or ``None`` with ``conn.tenant``
        and ``conn.gate`` set.  Every failure shape — missing fields,
        wrong types, oversized strings, unknown tenant, wrong token —
        answers the same structured ``auth-failed`` error (constant-time
        token comparison, no token ever echoed or logged).
        """
        assert self.registry is not None and self._gates is not None
        fields = payload if isinstance(payload, dict) else {}
        tenant_id = fields.get("tenant")
        try:
            tenant = self.registry.authenticate(tenant_id, fields.get("token"))
        except SecurityError as exc:
            self._audit(
                "auth-failed",
                tenant=tenant_id if isinstance(tenant_id, str) else None,
                reason=str(exc),
            )
            return "error", wire.error_payload(
                wire.ERR_AUTH_FAILED, str(exc)
            )
        gate = self._gates.gate(tenant.tenant_id)
        if conn.gate is not None and conn.gate is not gate:
            # A re-hello that switches identity frees the old slot.
            self._release_gate(conn)
        if conn.gate is None:
            if not gate.try_connect():
                gate.note_rejection("connections")
                self._audit("quota-rejected", tenant=tenant.tenant_id,
                            quota="connections")
                return "error", wire.error_payload(
                    wire.ERR_OVERLOADED,
                    f"tenant {tenant.tenant_id!r} at "
                    f"max_connections={tenant.max_connections}",
                    retry_after=self.retry_after,
                )
            conn.gate = gate
        conn.tenant = tenant
        return None

    def _authorize(
        self, conn: _Connection, frame_type: str, n: int
    ) -> tuple[str, dict] | None:
        """Role and rate checks for one request batch (``n`` frames).

        Runs before the global admission gate so a throttled tenant
        never consumes a deployment-wide permit.  ``stats`` needs a
        session but no role (every tenant may watch the deployment).
        """
        tenant = conn.tenant
        if tenant is None:
            self._audit("auth-failed", tenant=None,
                        reason=f"{frame_type} before a credentialed hello")
            return "error", wire.error_payload(
                wire.ERR_AUTH_FAILED,
                f"cannot serve {frame_type!r} before a credentialed hello",
            )
        if frame_type == "stats":
            return None
        if not self.registry.allowed(tenant.role, frame_type):
            assert conn.gate is not None
            conn.gate.note_rejection("forbidden")
            self._audit("forbidden", tenant=tenant.tenant_id,
                        role=tenant.role, frame=frame_type)
            return "error", wire.error_payload(
                wire.ERR_FORBIDDEN,
                f"role {tenant.role!r} of tenant {tenant.tenant_id!r} "
                f"may not {frame_type}",
            )
        if frame_type in ("upload", "query"):
            assert conn.gate is not None
            wait = conn.gate.try_rate(frame_type, n)
            if wait is not None:
                conn.gate.note_rejection(f"{frame_type}-rate")
                self._audit("quota-rejected", tenant=tenant.tenant_id,
                            quota=f"{frame_type}-rate")
                return "error", wire.error_payload(
                    wire.ERR_OVERLOADED,
                    f"tenant {tenant.tenant_id!r} over its {frame_type} "
                    "rate limit",
                    retry_after=max(wait, self.retry_after),
                )
        return None

    def _audit(self, event: str, **fields: object) -> None:
        """Record one structured audit event (never a token)."""
        record = {"event": event, "ts": _time.time(), **fields}
        with self._audit_lock:
            self.audit_events.append(record)
            if self.audit_log is not None:
                try:
                    with open(self.audit_log, "a", encoding="utf8") as fh:
                        fh.write(json.dumps(record, default=str) + "\n")
                except OSError:
                    pass  # auditing must never take the data path down

    def tenancy_stats(self) -> dict:
        """Per-tenant gauges for the metrics listener and tests.

        Merges each tenant's live admission gauges (connections,
        in-flight, rejection counters) with its privacy-ledger summary
        (ε spent / budget / remaining).  Empty without a registry.
        """
        if self.registry is None or self._gates is None:
            return {}
        db = self.server.database
        ledger = TenantLedger(db.accountant, db.tenant_budgets)
        summary = ledger.summary()
        out: dict[str, dict] = {}
        for tenant in self.registry:
            tid = tenant.tenant_id
            entry = dict(self._gates.gate(tid).gauges())
            entry["role"] = tenant.role
            entry.update(
                summary.get(
                    tid,
                    {
                        "epsilon_spent": ledger.spent(tid),
                        "epsilon_budget": None,
                        "epsilon_remaining": None,
                    },
                )
            )
            out[tid] = entry
        return out

    # -- request dispatch ---------------------------------------------------------
    def _admit(self, conn: _Connection) -> tuple[str, dict] | None:
        """Admission control for guarded frames.

        Returns a rejection response, or ``None`` when admitted — in
        which case one in-flight permit (plus the tenant's, when ``conn``
        is an authenticated connection) is held on ``conn`` and released
        after the response bytes flush, so a graceful drain counts the
        unflushed answer as still in flight.
        """
        if self._closing:
            return "error", wire.error_payload(
                wire.ERR_SHUTTING_DOWN, "server is draining; no new requests"
            )
        if not self._inflight.acquire(blocking=False):
            return "error", wire.error_payload(
                wire.ERR_OVERLOADED,
                f"server at max_inflight={self.max_inflight} concurrent requests",
                retry_after=self.retry_after,
            )
        if conn.gate is not None and not conn.gate.try_permit():
            self._inflight.release()
            conn.gate.note_rejection("inflight")
            tenant = conn.tenant
            assert tenant is not None
            self._audit("quota-rejected", tenant=tenant.tenant_id,
                        quota="inflight")
            return "error", wire.error_payload(
                wire.ERR_OVERLOADED,
                f"tenant {tenant.tenant_id!r} at "
                f"max_inflight={tenant.max_inflight} concurrent requests",
                retry_after=self.retry_after,
            )
        conn.permits += 1
        if conn.gate is not None:
            conn.tenant_permits += 1
        return None

    def _execute(
        self,
        frame_type: str,
        payload: dict,
        tenant: str | None = None,
        blocking: bool = True,
    ) -> tuple[str, dict]:
        """Run one admitted query, snapshot or reshard; never raises a
        request's failure.

        With ``blocking=False`` (an event loop asking) a query that would
        have to wait for anything but bounded scans raises
        :class:`~repro.server.runtime.WouldBlock` with nothing executed.
        """
        # Halted ingestion is the *server's* condition, not this
        # request's fault: report it as a server error (with the original
        # failure) instead of letting the query re-raise it as an
        # invalid-request that blames the innocent caller's payload.
        deferred = self.server.ingest_error
        if deferred is not None and frame_type == "query":
            return "error", wire.error_payload(
                wire.ERR_SERVER,
                "ingestion halted by an earlier failure: "
                f"{type(deferred).__name__}: {deferred}",
            )
        try:
            if frame_type == "query":
                return self._handle_query(payload, tenant=tenant, blocking=blocking)
            if frame_type == "snapshot":
                return self._handle_snapshot(payload)
            return self._handle_reshard(payload)
        except WouldBlock:
            raise
        except BudgetExhaustedError as exc:
            # Refused *before* any noise was drawn: structured fields so
            # the analyst can see exactly what the ledger has left.  Not
            # retryable — waiting cannot make the ledger solvent.
            self._audit(
                "budget-exhausted",
                tenant=exc.tenant,
                requested_epsilon=exc.requested,
                epsilon_spent=exc.spent,
                epsilon_budget=exc.budget,
            )
            if self._gates is not None and exc.tenant is not None:
                self._gates.gate(exc.tenant).note_rejection("budget-exhausted")
            response = wire.error_payload(wire.ERR_BUDGET_EXHAUSTED, str(exc))
            response["tenant"] = exc.tenant
            response["requested_epsilon"] = exc.requested
            response["epsilon_spent"] = exc.spent
            response["epsilon_budget"] = exc.budget
            return "error", response
        except Exception as exc:  # never let one request kill the connection
            return _error_response(exc)

    def _welcome(self, tenant: Tenant | None = None) -> dict:
        """Public deployment metadata a client needs to form queries."""
        db = self.server.database
        payload = {
            "server": "incshrink",
            "protocol": wire.PROTOCOL_VERSION,
            "views": [
                {
                    "name": name,
                    **{f: getattr(vr.view_def, f) for f in wire.JOIN_FIELDS},
                }
                for name, vr in db.views.items()
            ],
            "n_shards": db.n_shards,
            "last_time": self.server.last_time,
        }
        if tenant is not None:
            payload["tenant"] = tenant.tenant_id
            payload["role"] = tenant.role
        return payload

    # -- upload admission + batched submission -------------------------------------
    def _start_uploads(
        self, loop: _EventLoop, conn: _Connection, payloads: list[dict]
    ) -> list[tuple[str, dict]] | None:
        """Admit a run of coalesced upload frames on their event loop.

        Never waits.  A lone ``wait=True`` frame is applied right here
        when nothing is queued, the write lock is free and the step is
        within the inline bounds
        (:meth:`~repro.server.runtime.DatabaseServer.try_apply`), and
        answered ``drained: true`` at once — no thread crossing.  Without
        a waited frame among the admitted ones every frame is answered
        here too.  Otherwise the batch becomes a continuation (``None``
        is returned): ``conn`` keeps ``executing`` and its permits, the
        applying thread posts :meth:`_on_upload_applied` once the last
        waited step is applied (or ingestion failed), and the clamped
        ``wait_timeout`` is a deadline this loop's timer answers
        ``drained: false`` at.
        """
        responses, admitted = self._submit_uploads(payloads)
        waited = [(i, step) for i, step, waits in admitted if waits]
        if not waited or self.server.last_time >= waited[-1][1]:
            self._answer_admitted(responses, admitted, drained=True, error=None)
            return responses
        # Clamp the client-supplied wait: an in-flight permit is held for
        # its duration, so an unbounded value would let one client pin
        # the server's request capacity.
        timeout = min(
            max(self._wait_timeout_of(payloads[i]) for i, _ in waited),
            self.max_wait_timeout,
        )
        wait = _UploadWait(responses, admitted, _time.monotonic() + timeout)
        conn.waiting = wait
        loop.waiting.add(conn)
        # Steps advance within a batch: the last waited one covers them all.
        self.server.when_applied(
            waited[-1][1],
            lambda error: loop.call_soon(
                self._on_upload_applied, loop, conn, wait, error
            ),
        )
        return None

    def _on_upload_applied(
        self,
        loop: _EventLoop,
        conn: _Connection,
        wait: _UploadWait,
        error: BaseException | None,
    ) -> None:
        """The applying thread's callback, back on the connection's loop."""
        if conn.waiting is wait:  # else: timed out, or the peer is gone
            self._end_upload_wait(loop, conn, drained=True, error=error)

    def _expire_upload_waits(self, loop: _EventLoop, now: float) -> None:
        """Event-loop timer: answer the waits whose deadline has passed."""
        for conn in [c for c in loop.waiting if c.waiting.deadline <= now]:
            # The upload *was* accepted and will be applied; a slow apply
            # must not read as "rejected, resend" (a resend would be a
            # stale step).
            self._end_upload_wait(loop, conn, drained=False, error=None)

    def _end_upload_wait(
        self,
        loop: _EventLoop,
        conn: _Connection,
        drained: bool,
        error: BaseException | None,
    ) -> None:
        """Answer a waiting upload batch and resume its connection."""
        wait, conn.waiting = conn.waiting, None
        loop.waiting.discard(conn)
        self._answer_admitted(wait.responses, wait.admitted, drained, error)
        self._batch_done(loop, conn, self._encode_responses(wait.responses))
        if not conn.closed:
            self._pump(loop, conn)

    @staticmethod
    def _wait_timeout_of(payload: dict) -> float:
        """The frame's ``wait_timeout`` in seconds (30 when absent).

        A NaN would slip past the ``max_wait_timeout`` clamp (``min`` with
        a NaN is NaN) and turn the loop's poll timeout into a busy spin,
        so anything but a number ≥ 0 is the request's fault; ``+inf``
        clamps like any long wait.
        """
        try:
            timeout = float(payload.get("wait_timeout", 30.0))
        except (TypeError, ValueError) as exc:
            raise wire.WireError(f"malformed wait_timeout: {exc!r}") from exc
        if math.isnan(timeout) or timeout < 0.0:
            raise wire.WireError(
                f"wait_timeout must be a number >= 0, got {timeout}"
            )
        return timeout

    def _answer_admitted(
        self,
        responses: list,
        admitted: list[tuple[int, int, bool]],
        drained: bool,
        error: BaseException | None,
    ) -> None:
        """Fill the admitted frames' slots: ``upload_ok``, or for a waiter
        whose ingest failed the structured error (a poisoned loop is the
        server's condition unless the step itself was invalid)."""
        failure = None if error is None else _error_response(error)
        for i, time_step, waits in admitted:
            if waits and failure is not None:
                responses[i] = failure
                continue
            responses[i] = (
                "upload_ok",
                {
                    "time": time_step,
                    "applied_through": self.server.last_time,
                    "queue_depth": self.server.pending_uploads,
                    "drained": drained if waits else True,
                },
            )

    def _submit_uploads(
        self, payloads: list[dict]
    ) -> tuple[list, list[tuple[int, int, bool]]]:
        """Decode, gate and enqueue a run of upload frames; never waits.

        One gate pass covers the whole run: each step must advance past
        the floor *and* its predecessors in the batch; admitted steps
        enter the ingest backlog through one
        :meth:`~repro.server.runtime.DatabaseServer.try_submit_many`
        call — except a lone ``wait=True`` frame, which is applied on this
        thread when :meth:`~repro.server.runtime.DatabaseServer.try_apply`
        claims it.
        Returns one response slot per frame — filled for every
        frame refused here (admission failures and backlog overflow reject
        individual frames without severing the rest), ``None`` for the
        admitted ones — and the admitted ``(slot, step, waits)`` list
        for :meth:`_answer_admitted` (the flag, not the payload: a wait
        must not keep the frame's body alive).
        """
        responses: list[tuple[str, dict] | None] = [None] * len(payloads)
        admitted: list[tuple[int, int, bool]] = []
        try:
            self._admit_uploads(payloads, responses, admitted)
        except Exception as exc:
            # try_submit refused outright (server stopping, ingestion
            # halted), or the step applied here failed and halted
            # ingestion: a waiter on the backlog is answered the same.
            fallback = _error_response(exc)
            responses = [r if r is not None else fallback for r in responses]
            admitted = []
        return responses, admitted

    def _admit_uploads(
        self,
        payloads: list[dict],
        responses: list[tuple[str, dict] | None],
        admitted: list[tuple[int, int, bool]],
    ) -> None:
        deferred = self.server.ingest_error
        if deferred is not None:
            halted = (
                "error",
                wire.error_payload(
                    wire.ERR_SERVER,
                    "ingestion halted by an earlier failure: "
                    f"{type(deferred).__name__}: {deferred}",
                ),
            )
            for i in range(len(payloads)):
                responses[i] = halted
            return
        decoded: list[tuple[int, int, list, dict]] = []
        for i, payload in enumerate(payloads):
            try:
                time_step, items = wire.decode_upload(payload)
                self._wait_timeout_of(payload)
                # Like a stale step below: a malformed one must be refused
                # here, or it would halt the background loop for everyone.
                self.server.database.check_upload(items)
                decoded.append((i, time_step, items, payload))
            except Exception as exc:
                responses[i] = _error_response(exc)
        with self._upload_gate:
            # Reject a non-advancing step *before* it reaches the backlog:
            # deferred, it would halt ingestion for everyone
            # while its sender saw upload_ok.  The floor covers local
            # submits too (highest_submitted), not just applied steps.
            floor = self.server.highest_submitted
            to_submit: list[tuple[int, int, list, dict]] = []
            for i, time_step, items, payload in decoded:
                if time_step <= floor:
                    responses[i] = (
                        "error",
                        wire.error_payload(
                            wire.ERR_INVALID_REQUEST,
                            f"upload at step {time_step} does not advance the "
                            f"stream (highest admitted step is {floor})",
                        ),
                    )
                else:
                    to_submit.append((i, time_step, items, payload))
                    floor = time_step
            # Built before any claim: nothing between try_apply and
            # apply() may raise, or the write lock would never be freed.
            overloaded = (
                "error",
                wire.error_payload(
                    wire.ERR_OVERLOADED,
                    f"ingest queue at capacity ({self.server.max_pending} steps)",
                    retry_after=self.retry_after,
                ),
            )
            apply = None
            if len(to_submit) == 1:
                i, time_step, items, payload = to_submit[0]
                if len(payloads) == 1 and payload.get("wait"):
                    # Still under the gate: no step admitted after this
                    # one can reach the backlog before try_apply has looked.
                    apply = self.server.try_apply(time_step, items)
                accepted = (
                    1 if apply or self.server.try_submit(time_step, items) else 0
                )
            elif to_submit:
                accepted = self.server.try_submit_many(
                    [(t, items) for _, t, items, _ in to_submit]
                )
            else:
                accepted = 0
            for j, (i, time_step, items, payload) in enumerate(to_submit):
                if j < accepted:
                    admitted.append((i, time_step, bool(payload.get("wait"))))
                else:
                    responses[i] = overloaded
        if apply is not None:
            # Past the gate: the role and write lock try_apply holds keep
            # every later step behind this one, queued or claimed on another
            # loop, so admission there need not wait for this apply.
            apply()

    def _handle_query(
        self,
        payload: dict,
        tenant: str | None = None,
        blocking: bool = True,
    ) -> tuple[str, dict]:
        try:
            query = payload["query"]
            if not isinstance(query, LogicalQuery):
                # Kept in place of the wire form: a query the loop could
                # not run is handled again, on the executor.
                query = payload["query"] = wire.decode_query(query)
            time = payload.get("time")
            time = None if time is None else int(time)
            epsilon = payload.get("epsilon")
            if epsilon is not None:
                epsilon = float(epsilon)
                if not (math.isfinite(epsilon) and epsilon > 0):
                    raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        except (KeyError, TypeError, ValueError) as exc:
            raise wire.WireError(f"malformed query frame: {exc!r}") from exc
        result = self.server.query(
            query, time=time, epsilon=epsilon, tenant=tenant, blocking=blocking
        )
        return "result", wire.encode_result(result)

    def _handle_snapshot(self, payload: dict) -> tuple[str, dict]:
        info = self.server.snapshot(payload.get("path"))
        return "snapshot_ok", {
            "path": info.path,
            "bytes_written": info.bytes_written,
            "sha256": info.sha256,
            "created_at": info.created_at,
            "kind": info.kind,
            "segments": info.segments,
        }

    def _handle_reshard(self, payload: dict) -> tuple[str, dict]:
        n_shards = int(payload["n_shards"])
        self.server.reshard(n_shards)
        return "reshard_ok", {"n_shards": self.server.database.n_shards}


def _error_response(exc: BaseException) -> tuple[str, dict]:
    """The structured ``error`` frame for a failure: the request's fault
    when the library says so (:class:`ReproError`), the server's otherwise."""
    code = wire.ERR_INVALID_REQUEST if isinstance(exc, ReproError) else wire.ERR_SERVER
    return "error", wire.error_payload(code, f"{type(exc).__name__}: {exc}")


def _close_socket(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass
