"""The persistent, concurrent serving runtime around the database.

:class:`~repro.server.database.IncShrinkDatabase` is a passive object:
callers invoke ``upload``/``step``/``query`` one at a time.  A real
deployment (the paper's Figure 1 read end-to-end) is a *server*: owners
stream batches in forever, many analysts hold open read sessions, and
the whole thing survives restarts.  :class:`DatabaseServer` provides
that shape:

* **one ordered backlog** — submitted uploads wait in a bounded backlog
  and are applied strictly in order by whichever thread holds the
  *applier role*: the ingest worker, which coalesces up to
  ``ingest_batch`` queued steps into one exclusive critical section
  (batched uploads: one writer-lock acquisition covers many upload+step
  pairs), or — when nothing is queued, the write lock is free and the
  step is small — the caller's own thread
  (:meth:`~DatabaseServer.try_apply`).  Both run the one apply body,
  :meth:`~DatabaseServer._drain`; a failure there halts ingestion and
  reaches every producer, waiter and :meth:`~DatabaseServer.drain`;
* **concurrent read sessions** — queries run under a shared read lock
  (so they never observe a half-applied step); planning parallelises
  freely, while execution serialises on one MPC lock, the simulated 2PC
  backend, exactly as the paper's two servers evaluate one garbled
  circuit at a time;
* **snapshot/resume** — :meth:`snapshot` quiesces ingestion at a step
  boundary and checkpoints the state through
  :mod:`repro.server.persistence` (a base the first time, then one
  segment of what changed per checkpoint); :meth:`resume` reconstructs
  a server from disk that continues the identical randomness streams,
  answers queries byte-identically, cannot double-spend the ε recorded
  in the checkpointed accountant, and appends its own checkpoints to
  the chain it restored from.

Queries never advance the servers' randomness streams (they only reveal
and charge gates), so read concurrency — however the OS schedules the
sessions — cannot perturb the deterministic state evolution of the
stream.  Only the ingestion order matters, and the backlog fixes it.
"""

from __future__ import annotations

import sys
import threading
import time as _time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from ..common.errors import ConfigurationError, ProtocolError
from ..common.types import RecordBatch
from ..query import parallel
from ..query.ast import LogicalQuery
from ..query.planner import VIEW_SCAN, QueryPlan
from ..tenancy.ledger import TenantLedger
from .database import DatabaseQueryResult, IncShrinkDatabase

if TYPE_CHECKING:
    from .persistence import SnapshotInfo


#: Why a ``blocking=False`` query raised :class:`WouldBlock` — the keys of
#: :attr:`ServingStats.query_handoffs`: the read/write lock is held or
#: wanted by a writer, unbounded work holds (or is next in line for) the
#: MPC lock, or the plan itself is not bounded.
RW_LOCK_BUSY = "rw_lock_busy"
MPC_UNBOUNDED = "mpc_unbounded_holder"
UNBOUNDED_PLAN = "unbounded_plan"
HANDOFF_REASONS = (RW_LOCK_BUSY, MPC_UNBOUNDED, UNBOUNDED_PLAN)


class WouldBlock(Exception):
    """A non-blocking call could not finish without waiting.

    Raised by the ``blocking=False`` forms of :meth:`DatabaseServer.query`
    and :meth:`DatabaseServer.observability` (a lock is held or wanted by
    someone else, or the plan is not one that runs in bounded time) before
    anything was executed, charged or released: the caller repeats the
    call in its blocking form on a thread that may wait.  ``reason`` is
    one of :data:`HANDOFF_REASONS`.  Deliberately not a
    :class:`~repro.common.errors.ReproError` — it says nothing about the
    request.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Turn:
    """One place in :class:`MpcLock`'s line (compared by identity)."""

    __slots__ = ("bounded", "wake")

    def __init__(self, bounded: bool) -> None:
        self.bounded = bounded
        #: this place's own condition, made only when it has to wait
        self.wake: threading.Condition | None = None


class MpcLock:
    """The MPC lock: one holder at a time, in arrival order, and each
    place in line says whether its work is *bounded*.

    Bounded work is an in-process view scan that
    :meth:`DatabaseServer._runs_in_bounded_time` admits, on either lane;
    a plain :meth:`acquire` is unbounded.  :meth:`acquire_behind_bounded`
    is the event loops' form: it joins the line only when the holder and
    every waiter ahead are bounded, and refuses otherwise.  Nobody
    overtakes a place once taken, so such a wait is bounded by the scans
    ahead of it at arrival, and a loop never waits behind unbounded work.
    On the network server every query frame in the line holds one of the
    ``max_inflight`` permits, so that is at most ``max_inflight − 1``
    bounded scans of under ~1 ms each: about 7 ms at the default 8, during
    which the waiting loop's other connections wait too.  A release wakes
    the next place only.  Like :class:`threading.Lock`, any thread may
    :meth:`release` it.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: the holder first, then the waiters in arrival order
        self._line: deque[_Turn] = deque()

    def acquire(self, bounded: bool = False) -> bool:
        """Take the lock after everyone ahead of this call."""
        with self._mutex:
            return self._wait_turn(_Turn(bounded))

    def acquire_behind_bounded(self) -> bool:
        """Take the lock as bounded work, waiting only behind bounded work;
        ``False``, without queuing, when unbounded work holds the lock or
        is in line for it."""
        with self._mutex:
            if not all(turn.bounded for turn in self._line):
                return False
            return self._wait_turn(_Turn(True))

    def _wait_turn(self, turn: _Turn) -> bool:
        self._line.append(turn)
        if self._line[0] is turn:
            return True
        turn.wake = threading.Condition(self._mutex)
        try:
            while self._line[0] is not turn:
                turn.wake.wait()
        except BaseException:
            # Interrupted: leave the line, passing the turn on if it
            # had already come.
            if self._line[0] is turn:
                self._pass_turn()
            else:
                self._line.remove(turn)
            raise
        return True

    def _pass_turn(self) -> None:
        self._line.popleft()
        if self._line:
            self._line[0].wake.notify()

    def release(self) -> None:
        with self._mutex:
            if not self._line:
                raise RuntimeError("release of an unheld MpcLock")
            self._pass_turn()


class ReadWriteLock:
    """A writer-preferring read/write lock.

    Many readers (query sessions) may hold the lock simultaneously; the
    single writer (the thread applying steps, or a snapshot) excludes them all.
    Writer preference keeps a steady query load from starving the
    stream: once a writer is waiting, new readers queue behind it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self, blocking: bool = True) -> bool:
        """Enter as a reader; with ``blocking=False`` return ``False``
        instead of waiting for an active or waiting writer."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                if not blocking:
                    return False
                self._cond.wait()
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, blocking: bool = True) -> bool:
        """Enter as the writer; with ``blocking=False`` return ``False``
        instead of waiting while the lock is held or wanted by anyone."""
        with self._cond:
            if not blocking and (
                self._writer_active or self._readers or self._writers_waiting
            ):
                return False
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
            return True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self, blocking: bool = True) -> Iterator[None]:
        if not self.acquire_read(blocking):
            raise WouldBlock(RW_LOCK_BUSY)
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ServingStats:
    """Wall-clock throughput counters and live gauges of one serving run.

    The counters accumulate; the gauges (``queue_depth``,
    ``queue_capacity``, ``query_epsilon``, …) mirror the current server
    state and are refreshed by :meth:`DatabaseServer.current_stats`.
    ``to_dict`` is the single observability surface: the network
    ``stats`` frame and ``BENCH_serving.json`` both report exactly these
    fields, beside what :meth:`DatabaseServer.observability` reads off
    the database (per-view shard sizes among them).
    """

    uploads: int = 0
    steps: int = 0
    queries: int = 0
    ingest_seconds: float = 0.0
    query_seconds: float = 0.0
    snapshots: int = 0
    last_snapshot_seconds: float = 0.0
    #: bytes the last checkpoint wrote, across the checkpoint's four files
    last_snapshot_bytes: int = 0
    #: segments on top of the checkpoint's base after the last checkpoint
    snapshot_segments: int = 0
    #: what the last checkpoint wrote: ``base``, ``segment`` or
    #: ``compaction`` (empty before the first)
    last_snapshot_kind: str = ""
    #: submitted steps in the ingest backlog, not yet taken by an apply
    queue_depth: int = 0
    #: the backlog's bound (``max_pending`` — backpressure beyond this)
    queue_capacity: int = 0
    #: total ε spent by noisy per-query releases so far
    query_epsilon: float = 0.0
    #: fraction of planner calls served from the structural plan cache
    plan_cache_hit_rate: float = 0.0
    #: accumulator-cache gauges (hits/misses/evictions/...); empty when
    #: incremental execution is disabled
    incremental_cache: dict = field(default_factory=dict)
    #: ground-truth join mirror gauges (hits/extensions/signatures) —
    #: functions of upload and query counts only, never of row counts
    logical_mirror: dict = field(default_factory=dict)
    #: ``query(blocking=False)`` calls refused with :class:`WouldBlock`,
    #: by reason (:data:`HANDOFF_REASONS`) — on the network server, the
    #: query frames an event loop handed to the executor lane.  Request
    #: counts: public.
    query_handoffs: dict = field(
        default_factory=lambda: dict.fromkeys(HANDOFF_REASONS, 0)
    )

    def uploads_per_second(self) -> float:
        return self.uploads / self.ingest_seconds if self.ingest_seconds else 0.0

    def queries_per_second(self) -> float:
        return self.queries / self.query_seconds if self.query_seconds else 0.0

    def to_dict(self) -> dict:
        return {
            "uploads": self.uploads,
            "steps": self.steps,
            "queries": self.queries,
            "ingest_seconds": self.ingest_seconds,
            "query_seconds": self.query_seconds,
            "uploads_per_second": self.uploads_per_second(),
            "queries_per_second": self.queries_per_second(),
            "snapshots": self.snapshots,
            "last_snapshot_seconds": self.last_snapshot_seconds,
            "last_snapshot_bytes": self.last_snapshot_bytes,
            "snapshot_segments": self.snapshot_segments,
            "last_snapshot_kind": self.last_snapshot_kind,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "query_epsilon": self.query_epsilon,
            "plan_cache_hit_rate": self.plan_cache_hit_rate,
            "incremental_cache": dict(self.incremental_cache),
            "logical_mirror": dict(self.logical_mirror),
            "query_handoffs": dict(self.query_handoffs),
        }


class ReadSession:
    """One analyst's handle onto a running server.

    Sessions are cheap: they add per-session bookkeeping (issued queries
    and their results) on top of the server's thread-safe query path.
    Many sessions may query concurrently from different threads.
    """

    def __init__(self, server: "DatabaseServer", name: str) -> None:
        self.server = server
        self.name = name
        self.results: list[DatabaseQueryResult] = []

    def query(
        self,
        query: LogicalQuery,
        time: int | None = None,
        epsilon: float | None = None,
        tenant: str | None = None,
    ) -> DatabaseQueryResult:
        result = self.server.query(
            query, time=time, epsilon=epsilon, tenant=tenant
        )
        self.results.append(result)
        return result

    @property
    def query_count(self) -> int:
        return len(self.results)

    def answers(self) -> list[float]:
        return [r.answer for r in self.results]


#: The inline bounds of :meth:`DatabaseServer.try_apply`: a step the
#: caller's thread may apply at once (the network front door's event
#: loop, which must not stall) uploads fewer padded rows than
#: :data:`INLINE_APPLY_ROWS` and finds fewer rows than
#: :data:`INLINE_APPLY_CACHE_ROWS` in the views' caches.  Both are public
#: sizes, and a step's cost grows with each: an uploaded row is shared,
#: stored and joined by Transform (0.25–1 µs on the 2-core reference
#: host), a cached row is sorted by the step's Shrink update or cache
#: flush (≈ 0.09 µs).  So an inline step costs at most ≈ 2 + 3 ms beyond
#: its fixed 1–2 ms.  The benchmark's steady steps (34–85 rows) are
#: inline but for 3 of cpdb-heavy's 100, whose caches pass the bound just
#: before a flush; a bulk load takes the backlog.
INLINE_APPLY_ROWS = 2_048
INLINE_APPLY_CACHE_ROWS = 32_768


def _step(time: int, batches) -> tuple[int, object]:
    """A step as the backlog holds it: its time and a copy of its batches."""
    return int(time), dict(batches) if isinstance(batches, Mapping) else list(batches)


def _name_ingest_thread() -> None:
    """The ingest worker's initializer: one stable name for its thread."""
    threading.current_thread().name = "incshrink-ingest"


def _persistence():
    """:mod:`repro.server.persistence`, loaded at the first checkpoint or
    resume: a server that never persists never compiles it or the
    chain-file code.  Callers load it before they take the write lock,
    never under it, so no reader waits on an import."""
    from . import persistence

    return persistence


class DrainTimeout(ProtocolError):
    """A bounded :meth:`DatabaseServer.drain`/:meth:`~DatabaseServer.stop`
    wait expired with submissions still queued.

    Nothing is lost and nothing failed: the backlog keeps being
    applied, and calling the method again resumes waiting.  Kept
    distinct from other :class:`~repro.common.errors.ProtocolError`\\ s
    so callers can tell "accepted but still applying" apart from a
    genuinely failed ingest."""


class DatabaseServer:
    """Long-lived serving process state around one database."""

    def __init__(
        self,
        database: IncShrinkDatabase,
        snapshot_path: str | None = None,
        snapshot_every: int | None = None,
        max_pending: int = 1024,
        ingest_batch: int = 32,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if snapshot_every is not None and snapshot_path is None:
            raise ConfigurationError(
                "snapshot_every requires a snapshot_path to write to"
            )
        if ingest_batch < 1:
            raise ConfigurationError(
                f"ingest_batch must be >= 1, got {ingest_batch}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.database = database
        self.snapshot_path = snapshot_path
        self.snapshot_every = snapshot_every
        self.max_pending = max_pending
        self.ingest_batch = ingest_batch
        self.stats = ServingStats(queue_capacity=max_pending)
        #: metadata merged into every snapshot (callers may add keys,
        #: e.g. the CLI records its workload parameters for ``resume``)
        self.metadata: dict = {}
        #: metadata recovered from the snapshot this server resumed from
        #: (empty for a freshly constructed server)
        self.resume_metadata: dict = {}

        #: submitted steps not yet taken by an apply, in stream order;
        #: empty whenever no thread holds the applier role (``_applying``)
        self._backlog: deque[tuple[int, object]] = deque()
        #: guards the backlog, the role, ``_highest_submitted`` and the
        #: :meth:`when_applied` waiters; notified whenever the backlog
        #: shrinks, the role is freed, ingestion fails or the server stops
        self._cond = threading.Condition()
        #: the ingest worker: one thread, to which the role is handed with
        #: whatever is queued (:meth:`_drain`)
        self._worker: ThreadPoolExecutor | None = None
        self._rw = ReadWriteLock()
        self._mpc_lock = MpcLock()
        self._stats_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._stopped = False
        self._ingest_error: BaseException | None = None
        #: a thread holds the applier role: it runs :meth:`_drain` next,
        #: and no other thread applies a step until the role is freed
        self._applying = False
        self._last_time = 0
        self._highest_submitted = 0
        #: ``(step, callback)`` registered by :meth:`when_applied` and not
        #: yet fired
        self._applied_waiters: list[tuple[int, Callable]] = []
        self._session_counter = 0
        self._steps_since_snapshot = 0

    # -- lifecycle --------------------------------------------------------------
    @property
    def last_time(self) -> int:
        """Highest upload step the server has fully applied."""
        return self._last_time

    @property
    def running(self) -> bool:
        """Started, not stopped, and ingestion not halted by a failure."""
        return self._started and not self._stopped and self._ingest_error is None

    def start(self) -> "DatabaseServer":
        """Finalize the deployment and launch the ingest worker."""
        if self._started:
            raise ConfigurationError("server already started")
        self.database.finalize()
        if self.snapshot_every is not None:
            # Periodic checkpoints run under the write lock: load their
            # code now.
            _persistence()
        # Its thread starts here, not at the first hand-off: a thread
        # started in the middle of a _drain takes the GIL from the loop
        # that must answer next.
        self._worker = ThreadPoolExecutor(
            max_workers=1, initializer=_name_ingest_thread
        )
        self._worker.submit(lambda: None).result()
        self._started = True
        return self

    def submit(
        self,
        time: int,
        batches: Mapping[str, RecordBatch] | list[tuple[str, RecordBatch]],
    ) -> None:
        """Append one step's uploads to the backlog.

        Blocks while the backlog is full (backpressure toward the owners),
        exactly like a bounded ingest buffer in front of a real server.
        If ingestion fails or the server starts stopping meanwhile, the
        step is refused: this raises the failure, or
        :class:`~repro.common.errors.ConfigurationError`.
        """
        self._admit([(time, batches)], None)

    def try_submit(
        self,
        time: int,
        batches: Mapping[str, RecordBatch] | list[tuple[str, RecordBatch]],
        timeout: float | None = None,
    ) -> bool:
        """:meth:`submit` without unbounded blocking.

        Returns ``False`` when the backlog stays full (past ``timeout``
        seconds; immediately when ``timeout`` is ``None``).
        The network front door uses this to *reject with retry-after*
        instead of parking one connection thread per blocked producer.
        """
        return self._admit([(time, batches)], timeout or 0.0) == 1

    def try_submit_many(
        self,
        steps: list[
            tuple[int, Mapping[str, RecordBatch] | list[tuple[str, RecordBatch]]]
        ],
    ) -> int:
        """Append a run of steps without blocking; returns how many fit.

        The network front door coalesces back-to-back upload frames
        from one connection into a single call here: one backlog pass
        for the whole run instead of a lock round-trip per frame.  Steps
        are appended **in order** and admission stops at the first one
        that finds the backlog full, so the accepted set is always a
        prefix — the caller can answer ``upload_ok`` for the first
        ``n`` frames and ``overloaded`` for the rest without creating
        gaps in the stream.
        """
        return self._admit(steps, 0.0)

    def _admit(self, steps: list, wait: float | None) -> int:
        """Append ``steps`` to the backlog in order; returns how many fit.

        Waits up to ``wait`` seconds (``None``: without bound) for room,
        then appends steps, without letting go of the backlog, until one
        finds it full.  Hands the role to the ingest worker when no
        thread holds it.
        """
        items = [_step(time, batches) for time, batches in steps]
        accepted = 0
        with self._cond:
            if wait != 0.0:
                self._cond.wait_for(self._has_room, wait)
            while accepted < len(items) and self._has_room():
                self._enqueue(items[accepted])
                accepted += 1
            hand_off = accepted > 0 and not self._applying
            if hand_off:
                self._applying = True
        if hand_off:
            self._worker.submit(self._drain)
        return accepted

    def _has_room(self) -> bool:
        """Under the condition: whether one more step fits in the backlog;
        raises whatever refuses every step (a failure, a stop)."""
        self._require_running()
        return len(self._backlog) < self.max_pending

    def _enqueue(self, item: tuple[int, object]) -> None:
        """Under the condition: append one accepted step."""
        self._backlog.append(item)
        if item[0] > self._highest_submitted:
            self._highest_submitted = item[0]

    def try_apply(
        self,
        time: int,
        batches: Mapping[str, RecordBatch] | list[tuple[str, RecordBatch]],
    ) -> Callable[[], None] | None:
        """Claim the applier role for one step, for the calling thread.

        The network front door calls this for a lone ``wait=True`` upload,
        so the event loop that decoded the step applies it and answers at
        once, with no round trip through the ingest worker.  Returns
        ``None``, with nothing claimed, when the step would have to wait,
        could overtake an earlier one or could run long: the write lock is
        held or wanted, a thread holds the role (a submitted step is
        queued or being applied), a ``snapshot_every`` checkpoint would
        fall due (a checkpoint is the ingest worker's work), or the step
        is past the inline bounds (:meth:`_applies_in_bounded_time`).  The
        caller then queues it (:meth:`try_submit`) instead.

        Otherwise the step is the backlog's only one, and the calling
        thread holds the role and the write lock when this returns, so no
        later step — queued, or claimed by another thread — can run before
        it: the caller may drop its own admission lock first.  It must
        then call the returned ``apply()`` exactly once.  That is
        :meth:`_drain` for this one step — the stream-order check, stats,
        checkpoint counter and :meth:`when_applied` waiters — which
        releases the lock, hands whatever was queued meanwhile to the
        ingest worker and raises whatever the step raised.  A failure
        halts ingestion exactly as it would on the worker.
        """
        item = _step(time, batches)
        if not self._rw.acquire_write(blocking=False):
            return None
        try:
            checkpoint_due = (
                self.snapshot_every is not None
                and self._steps_since_snapshot + 1 >= self.snapshot_every
            )
            with self._cond:
                self._require_running()
                # A free role means an empty backlog: nothing to overtake.
                claimed = (
                    not self._applying
                    and not checkpoint_due
                    and self._applies_in_bounded_time(item[1])
                )
                if claimed:
                    self._applying = True
                    self._enqueue(item)
        except BaseException:
            self._rw.release_write()
            raise
        if not claimed:
            self._rw.release_write()
            return None
        return partial(self._drain, held=True)

    def _applies_in_bounded_time(
        self, batches: dict[str, RecordBatch] | list[tuple[str, RecordBatch]]
    ) -> bool:
        """Whether a step of ``batches`` is short enough to apply inline.

        The upload counterpart of :meth:`_runs_in_bounded_time`, bounded
        on public sizes only — the step's padded rows, below
        :data:`INLINE_APPLY_ROWS`, and the rows of every view's cache,
        below :data:`INLINE_APPLY_CACHE_ROWS`: a Shrink update or a cache
        flush this step triggers sorts those rows and the step's own
        Transform output.  The caller holds the write lock, so the caches
        cannot grow meanwhile.
        """
        pairs = batches.items() if isinstance(batches, dict) else batches
        rows = sum(len(batch) for _, batch in pairs)
        cache_rows = sum(len(vr.cache) for vr in self.database.views.values())
        return rows < INLINE_APPLY_ROWS and cache_rows < INLINE_APPLY_CACHE_ROWS

    @property
    def highest_submitted(self) -> int:
        """Highest step ever accepted into the backlog (applied or not).

        This is the network front door's upload-admission floor: a
        step at or below it — queued locally, before the listener opened,
        or by another connection — is refused before it reaches the
        backlog, where it would fail and halt ingestion.
        """
        with self._cond:
            return max(self._highest_submitted, self._last_time)

    @property
    def pending_uploads(self) -> int:
        """Submitted steps in the backlog, not yet taken by an apply."""
        return len(self._backlog)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted upload has been applied.

        With a ``timeout`` the wait is bounded: if submissions remain
        unapplied after ``timeout`` seconds a :class:`DrainTimeout` is
        raised (nothing is lost — the backlog keeps being applied; call
        again to keep waiting).  An ingestion failure ends the wait at
        once and is raised here.
        """
        if not self._wait_idle(timeout):
            raise DrainTimeout(
                f"submissions were not applied within {timeout:.3f}s "
                f"({len(self._backlog)} still queued)"
            )
        self._raise_ingest_error()

    def _wait_idle(self, timeout: float | None) -> bool:
        """Wait until no thread holds the applier role — the backlog is
        applied, or dropped by a failure; ``False`` at the timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._applying, timeout)

    def when_applied(
        self, time: int, callback: Callable[[BaseException | None], None]
    ) -> None:
        """Call ``callback(error)`` once step ``time`` has been applied.

        The continuation form of :meth:`drain` for a caller that must not
        park a thread: the network front door's event loops register one
        for a waited upload that went through the backlog — the fallback,
        when :meth:`try_apply` could not apply the step on the loop
        itself.  The thread holding the applier role calls back, on that
        thread, after the apply that covers ``time`` has released the
        write lock — ``error`` is ``None`` — or as soon as ingestion has
        failed, with the failure every :meth:`drain` would raise.  When
        ingestion has failed, or ``time`` is applied and no thread holds
        the role, the callback runs here, before this method returns.
        Callbacks must be quick and must not raise; each runs exactly once.
        """
        with self._cond:
            error = self._ingest_error
            if error is None and (self._applying or time > self._last_time):
                self._applied_waiters.append((time, callback))
                return
        callback(error)

    def stop(
        self, final_snapshot: bool = False, drain_timeout: float | None = None
    ) -> None:
        """Refuse new steps, drain the backlog, stop the worker, optionally
        snapshot.

        The shutdown is *graceful by default*: everything already
        submitted is applied first; a producer still blocked on a full
        backlog is refused.  ``drain_timeout`` bounds that wait — on
        expiry a :class:`DrainTimeout` reports how many steps are still
        queued, the backlog keeps being applied, and calling :meth:`stop`
        again resumes waiting.  An ingestion failure is (re-)raised here,
        so a caller that never submits again still observes it.
        """
        if not self._started or self._stopped:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if not self._wait_idle(drain_timeout):
            raise DrainTimeout(
                f"ingestion did not drain within {drain_timeout:.3f}s "
                f"({len(self._backlog)} submissions still queued); call "
                "stop() again to keep waiting"
            )
        self._worker.shutdown()
        self._stopped = True
        # No step is applied and no query runs through this server any
        # more: release the process scan backend's worker pool and
        # shared-memory publications (only a forced process backend ever
        # loads it), and join the scan helper's thread (idempotent; a
        # later database in the same interpreter transparently respawns
        # them).
        process_backend = sys.modules.get("repro.query.shard_workers")
        if process_backend is not None:
            process_backend.shutdown_process_backend()
        parallel.shutdown_scan_helper()
        self._raise_ingest_error()
        if final_snapshot:
            self.snapshot()

    # -- applying ---------------------------------------------------------------
    def _drain(self, held: bool = False) -> None:
        """The one apply body: apply the backlog's head, in stream order.

        Run only by the thread holding the applier role: the ingest
        worker, which takes up to ``ingest_batch`` steps queued while it
        waited for the write lock, or the caller :meth:`try_apply`
        returned it to (``held``: it holds the write lock already and
        applies its one step).  Then it fires the :meth:`when_applied`
        waiters the apply covers and hands the role, with whatever was
        queued meanwhile, to the worker — or frees it.

        A failure halts ingestion: it is recorded, the backlog dropped,
        and every blocked producer, waiter and :meth:`drain` gets it; a
        claimed step's caller has it raised, the worker only records it.
        """
        t0 = _time.perf_counter()
        if not held:
            self._rw.acquire_write()
        error = None
        try:
            with self._cond:
                take = 1 if held else min(self.ingest_batch, len(self._backlog))
                pending = [self._backlog.popleft() for _ in range(take)]
                self._cond.notify_all()  # room for a blocked producer
            self._apply_held(pending, t0)
        except BaseException as exc:
            error = exc
        finally:
            self._rw.release_write()
        with self._cond:
            if error is not None:
                self._ingest_error = error
                self._backlog.clear()
            hand_off = self._applying = bool(self._backlog)
            due, waiting = [], []
            for waiter in self._applied_waiters:
                reached = error is not None or waiter[0] <= self._last_time
                (due if reached else waiting).append(waiter)
            self._applied_waiters = waiting
            self._cond.notify_all()
        if hand_off:
            self._worker.submit(self._drain)
        for _, callback in due:
            callback(error)
        if error is not None and held:
            raise error

    def _apply_held(self, pending: list[tuple[int, object]], t0: float) -> None:
        """Apply ``pending`` in order; the caller holds the write lock."""
        for step_time, batches in pending:
            if step_time <= self._last_time:
                raise ProtocolError(
                    f"upload at step {step_time} does not advance the "
                    f"stream (last applied step is {self._last_time})"
                )
            self.database.upload(step_time, batches)
            self.database.step(step_time)
            self._last_time = step_time
            self._steps_since_snapshot += 1
            with self._stats_lock:
                self.stats.uploads += len(batches)
                self.stats.steps += 1
        # Counted against steps-since-last-checkpoint, not a modulus
        # of the total: coalesced applies advance many steps at once
        # and must not jump over the configured interval.
        if (
            self.snapshot_every is not None
            and self._steps_since_snapshot >= self.snapshot_every
        ):
            self._snapshot_locked()
        with self._stats_lock:
            self.stats.ingest_seconds += _time.perf_counter() - t0

    def _require_running(self) -> None:
        if not self._started:
            raise ConfigurationError("server not started; call start() first")
        if self._stopping:
            raise ConfigurationError("server is stopping; no new submissions")
        self._raise_ingest_error()

    def _raise_ingest_error(self) -> None:
        if self._ingest_error is not None:
            raise self._ingest_error

    @property
    def ingest_error(self) -> BaseException | None:
        """The deferred background-ingestion failure, if any (no raise).

        :meth:`submit`, :meth:`drain`, and :meth:`stop` *raise* it; this
        property lets monitoring surfaces (the network ``stats`` frame)
        report halted ingestion without tearing themselves down.
        """
        return self._ingest_error

    # -- analyst side -------------------------------------------------------------
    def session(self, name: str | None = None) -> ReadSession:
        """Open one concurrent read session."""
        self._session_counter += 1
        return ReadSession(self, name or f"session-{self._session_counter}")

    def query(
        self,
        query: LogicalQuery,
        time: int | None = None,
        epsilon: float | None = None,
        tenant: str | None = None,
        blocking: bool = True,
    ) -> DatabaseQueryResult:
        """Plan and execute one logical query against a consistent state.

        The read lock guarantees no step is mid-application; the MPC lock
        serialises circuit evaluation on the simulated 2PC backend (and
        with it every session's scan, and the noisy-release sampling of
        an ε-released query, whose noise stream is separate from the
        ingestion streams).  Because the MPC lock serialises noisy
        releases, the database's check-then-spend ledger gate for
        ``tenant`` is atomic with the spend it guards.  The query holds
        the MPC lock as bounded work iff :meth:`_runs_in_bounded_time`
        admits its plan.

        With ``blocking=False`` the call never waits for a lock held by
        unbounded work and never runs for long: it raises
        :class:`WouldBlock` — nothing executed, charged or released, the
        reason counted in :attr:`ServingStats.query_handoffs` — when the
        read lock is held or wanted by a writer, when the plan is not a
        bounded in-process scan, or when unbounded work holds or is in
        line for the MPC lock.  Behind bounded holders only it waits its
        turn (:class:`MpcLock`): at most one bounded scan — fewer than
        :data:`~repro.query.parallel.POOL_MIN_DELTA_ROWS` unscanned rows —
        per other query in line ahead of it (``max_inflight − 1`` on the
        network server).
        """
        self._raise_ingest_error()
        t0 = _time.perf_counter()
        try:
            with self._rw.read_locked(blocking):
                at_time = self._last_time if time is None else int(time)
                plan = self.database.planner.plan(query)
                bounded = self._runs_in_bounded_time(plan)
                if blocking:
                    self._mpc_lock.acquire(bounded=bounded)
                elif not bounded:
                    raise WouldBlock(UNBOUNDED_PLAN)
                elif not self._mpc_lock.acquire_behind_bounded():
                    raise WouldBlock(MPC_UNBOUNDED)
                try:
                    result = self.database.query(
                        query, at_time, plan=plan, epsilon=epsilon, tenant=tenant
                    )
                finally:
                    self._mpc_lock.release()
        except WouldBlock as refused:
            with self._stats_lock:
                self.stats.query_handoffs[refused.reason] += 1
            raise
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.query_seconds += _time.perf_counter() - t0
        return result

    def _runs_in_bounded_time(self, plan: QueryPlan) -> bool:
        """Whether executing ``plan`` is a small in-process view scan.

        The bound is on a public quantity, the rows the scan has not
        folded before: below
        :data:`~repro.query.parallel.POOL_MIN_DELTA_ROWS` of them
        (about 1 ms of scan) the caller may as well run it where it
        stands.  An NM join (a sort over the whole base tables) and a
        scan placed on worker processes are never bounded.
        """
        if plan.kind != VIEW_SCAN:
            return False
        view = self.database.views[plan.view_name].view
        return (
            self.database.scan_executor.backend_for(view) == "thread"
            and len(view) - plan.cached_rows < parallel.POOL_MIN_DELTA_ROWS
        )

    def reshard(self, n_shards: int) -> None:
        """Re-partition every view under the write lock.

        Quiesces read sessions exactly like a snapshot; answers, gate
        charges, and ε are unchanged (see
        :meth:`~repro.server.database.IncShrinkDatabase.reshard`).
        """
        with self._rw.write_locked():
            self.database.reshard(n_shards)

    # -- observability ------------------------------------------------------------
    def current_stats(self) -> ServingStats:
        """Refresh the live gauges and return the stats record."""
        with self._stats_lock:
            self.stats.queue_depth = len(self._backlog)
            self.stats.queue_capacity = self.max_pending
            self.stats.query_epsilon = self.database.query_epsilon()
            self.stats.plan_cache_hit_rate = self.database.planner.hit_rate
            self.stats.incremental_cache = (
                self.database.incremental_cache_stats()
            )
            self.stats.logical_mirror = self.database.logical_mirror_stats()
            return self.stats

    def observability(self, blocking: bool = True) -> dict:
        """The full monitoring surface, as one JSON-shaped dict.

        ``ServingStats.to_dict()`` plus the stream watermark, shard
        count, per-view shard sizes, realized ε, and any deferred ingest
        failure — exactly what the network ``stats`` frame serves and what
        ``BENCH_serving.json`` records.  Taken under the read lock so
        the gauges describe one consistent step boundary; the ingest
        loop's write lock waits for that, so everything read here is a
        running answer — O(views + tenants), independent of how many
        records were uploaded or releases made.  With ``blocking=False``
        a held or wanted write lock raises :class:`WouldBlock` instead.
        """
        with self._rw.read_locked(blocking):
            payload = self.current_stats().to_dict()
            payload["last_time"] = self._last_time
            payload["n_shards"] = self.database.n_shards
            payload["shard_rows"] = self._shard_rows()
            payload["realized_epsilon"] = self.database.realized_epsilon()
            error = self._ingest_error
            payload["ingest_error"] = None if error is None else str(error)
            if self.database.tenant_budgets:
                payload["tenants"] = TenantLedger(
                    self.database.accountant, self.database.tenant_budgets
                ).summary()
        return payload

    def _shard_rows(self) -> dict:
        """Each view's public per-shard sizes, read off the view now."""
        return {
            name: list(vr.view.shard_lengths())
            for name, vr in self.database.views.items()
        }

    # -- persistence --------------------------------------------------------------
    def snapshot(self, path: str | None = None) -> SnapshotInfo:
        """Quiesce at a step boundary and persist the full state."""
        target = path or self.snapshot_path
        if target is None:
            raise ConfigurationError(
                "no snapshot path: pass one here or configure snapshot_path"
            )
        _persistence()
        with self._rw.write_locked():
            return self._snapshot_locked(target)

    def _snapshot_locked(self, path: str | None = None) -> SnapshotInfo:
        target = path or self.snapshot_path
        assert target is not None
        t0 = _time.perf_counter()
        metadata = dict(self.metadata)
        metadata["last_time"] = self._last_time
        info = _persistence().snapshot_database(
            self.database, target, metadata=metadata
        )
        self._steps_since_snapshot = 0
        with self._stats_lock:
            self.stats.snapshots += 1
            self.stats.last_snapshot_seconds = _time.perf_counter() - t0
            self.stats.last_snapshot_bytes = info.bytes_written
            self.stats.snapshot_segments = info.segments
            self.stats.last_snapshot_kind = info.kind
        return info

    @classmethod
    def resume(
        cls,
        path: str,
        snapshot_path: str | None = None,
        snapshot_every: int | None = None,
        **kwargs,
    ) -> "DatabaseServer":
        """Reconstruct a server from a snapshot written by :meth:`snapshot`.

        The resumed server keeps checkpointing to the same path unless a
        different ``snapshot_path`` is given, appending segments to the
        chain it restored from.  The restored metadata is
        exposed as :attr:`resume_metadata` (and the caller-added keys are
        carried forward into future snapshots).
        """
        restored = _persistence().restore_database(path)
        server = cls(
            restored.database,
            snapshot_path=snapshot_path or path,
            snapshot_every=snapshot_every,
            **kwargs,
        )
        server.resume_metadata = dict(restored.metadata)
        # Checkpoints of earlier builds also carried a "stats" record.
        server.metadata = {
            k: v
            for k, v in restored.metadata.items()
            if k not in ("last_time", "stats")
        }
        server._last_time = int(restored.metadata.get("last_time", 0))
        return server
