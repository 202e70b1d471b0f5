"""Out-of-process shard scan workers over shared memory.

The **process** backend of
:class:`~repro.query.parallel.ParallelScanExecutor`: a persistent
``spawn`` worker pool (started once, reused across queries, shut down
explicitly or at interpreter exit) plus per-view *publications* — the
view's share halves copied into one :mod:`multiprocessing.shared_memory`
segment — that workers map with **zero-copy** numpy views.

It is **forced-only** (``backend="process"``): ``auto`` never selects
it.  The in-process path is not GIL-bound — the kernel is numpy calls
that release the lock — and against it this backend lost at every size
measured: four no-op tasks cost 1.0 ms of round trip before any row is
scanned, and every Shrink release republishes the whole view
(``docs/SHARDING.md``, "What was measured").  It stays as the measured
alternative.

Per query the coordinator ships only a tiny picklable
:class:`ShardScanTask` (segment name, offsets, plan scalars) per shard;
each worker XOR-recovers its shard inside its own interpreter, runs the
same :func:`~repro.oblivious.filter.oblivious_multi_aggregate` kernel
under a :class:`~repro.mpc.runtime.WorkerShardContext`, and returns the
partial ``(counts, sums, gates)``.  The coordinator replays the gate
totals onto the real shard contexts, so answers, merged
:class:`~repro.mpc.runtime.ProtocolRun` gate totals, and simulated
seconds are byte-identical to the in-process path (see
``tests/test_sharding_equivalence.py``).

Security note: the workers are spawned processes of the same simulated
evaluator on one host, not new parties.  A publication maps both XOR
share halves of every shard, exactly as the in-process heap already
holds them.  Shard placement remains a pure function of public lengths,
so moving the scan into worker processes leaks nothing new.

Publications are cached per view and invalidated by
:attr:`~repro.storage.materialized_view.MaterializedView.content_version`,
so a dashboard re-querying an unchanged view pays the copy once per
content change, not once per query.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory

import numpy as np

from ..common.errors import ProtocolError
from ..common.types import Schema
from ..mpc.cost_model import CostModel
from ..mpc.runtime import WorkerShardContext
from ..oblivious.filter import oblivious_multi_aggregate
from ..sharing.shared_value import SharedArray, SharedTable
from ..storage.materialized_view import MaterializedView
from .parallel import usable_cpus

#: Hard cap on pool size — matches the cost model's
#: ``max_parallel_workers`` ceiling, the paper-style evaluator budget.
MAX_POOL_WORKERS = 8


@dataclass(frozen=True)
class ShardScanTask:
    """Everything one worker needs to scan one shard, all picklable.

    ``offset_words`` indexes into the publication's flat ``uint32``
    buffer; the shard occupies ``2·n·w`` row-share words (column-major)
    followed by ``2·n`` flag-share words (share half 0 then half 1 for
    each).
    Clauses arrive pre-lowered to ``(column_index, lo, hi)`` so workers
    never unpickle plan/schema objects.

    ``start_row`` makes the task incremental: the worker recovers and
    folds only rows ``[start_row, n_rows)`` of its shard and charges
    gates for that suffix alone — the coordinator merges the returned
    suffix accumulators with its cached prefix
    (:mod:`repro.query.incremental`).  0 scans the whole shard.
    """

    shm_name: str
    offset_words: int
    n_rows: int
    width: int
    sum_indices: tuple[int, ...]
    need_count: bool
    group_column: int | None
    group_domain: tuple[int, ...] | None
    clause_specs: tuple[tuple[int, int, int], ...]
    payload_words: int
    predicate_words: int
    cost_model: CostModel
    start_row: int = 0


# -- worker side (runs in spawned processes) ---------------------------------

#: Per-worker cache of attached segments: name → (SharedMemory, flat u32
#: view).  Attaching is a syscall + mmap; a persistent worker answering
#: many queries over the same publication should pay it once.
_WORKER_ATTACHMENTS: "OrderedDict[str, tuple[shared_memory.SharedMemory, np.ndarray]]" = (
    OrderedDict()
)
#: Stale publications (the view grew, the coordinator republished) are
#: evicted LRU beyond this many cached attachments.
_WORKER_ATTACHMENT_CAP = 8


def _worker_attach(name: str) -> np.ndarray:
    entry = _WORKER_ATTACHMENTS.get(name)
    if entry is not None:
        _WORKER_ATTACHMENTS.move_to_end(name)
        return entry[1]
    # Python 3.11 registers with the resource tracker on *attach* too.
    # Spawned workers share the coordinator's tracker process, whose
    # per-name cache is a set, so the extra register is an idempotent
    # no-op — do NOT unregister here: that would cancel the
    # coordinator's own registration and break its unlink bookkeeping.
    shm = shared_memory.SharedMemory(name=name)
    flat = np.frombuffer(shm.buf, dtype=np.uint32)
    _WORKER_ATTACHMENTS[name] = (shm, flat)
    while len(_WORKER_ATTACHMENTS) > _WORKER_ATTACHMENT_CAP:
        _evicted, (old_shm, old_flat) = _WORKER_ATTACHMENTS.popitem(last=False)
        del old_flat  # drop the buffer export before closing the mapping
        old_shm.close()
    return flat


def scan_share_suffix(
    rows0: np.ndarray,
    rows1: np.ndarray,
    flags0: np.ndarray,
    flags1: np.ndarray,
    sum_indices: tuple[int, ...],
    need_count: bool,
    group_column: int | None,
    group_domain: tuple[int, ...] | None,
    clause_specs: tuple[tuple[int, int, int], ...],
    payload_words: int,
    predicate_words: int,
    cost_model: CostModel,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The shard-scan kernel over already-sliced share halves.

    Wraps the halves (``payload_words`` columns wide) as the
    :class:`~repro.sharing.shared_value.SharedTable` they are and runs
    the same :func:`~repro.oblivious.filter.oblivious_multi_aggregate`
    pass every backend runs, under a
    :class:`~repro.mpc.runtime.WorkerShardContext` — one kernel, so
    "byte-identical across backends" is structural, not re-proved per
    backend.
    """
    table = SharedTable(
        Schema(tuple(f"c{i}" for i in range(payload_words))),
        SharedArray(rows0, rows1),
        SharedArray(flags0, flags1),
    )
    ctx = WorkerShardContext(cost_model)
    counts, sums = oblivious_multi_aggregate(
        ctx,
        table,
        sum_indices,
        need_count,
        group_column,
        group_domain,
        clause_specs,
        predicate_words,
    )
    return counts, sums, ctx.gates


def worker_scan(task: ShardScanTask) -> tuple[np.ndarray, np.ndarray, int]:
    """Scan one shard suffix: zero-copy views → XOR recover → one pass.

    Runs inside a spawned worker process.  Returns the suffix's partial
    ``(counts, sums, gates)`` for the coordinator to merge and replay.
    The slice ``[start_row, n_rows)`` is taken on the zero-copy views
    before recovery, so an incremental task's XOR/fold work — and its
    gate charge — is proportional to the suffix, not the shard.
    """
    flat = _worker_attach(task.shm_name)
    n, w = task.n_rows, task.width
    base = task.offset_words
    start = task.start_row
    rw = n * w
    return scan_share_suffix(
        flat[base : base + rw].reshape(w, n).T[start:],
        flat[base + rw : base + 2 * rw].reshape(w, n).T[start:],
        flat[base + 2 * rw : base + 2 * rw + n][start:],
        flat[base + 2 * rw + n : base + 2 * rw + 2 * n][start:],
        task.sum_indices,
        task.need_count,
        task.group_column,
        task.group_domain,
        task.clause_specs,
        task.payload_words,
        task.predicate_words,
        task.cost_model,
    )


def _worker_ping() -> int:
    """No-op task used to force worker spawn (pool warmup)."""
    return os.getpid()


def _worker_release_attachments() -> None:
    """Drop cached buffer views, then unmap (worker atexit hook).

    Without this, the numpy views keep the mappings exported when the
    worker interpreter shuts down and ``SharedMemory.__del__`` spews
    ``BufferError: cannot close exported pointers exist``.  In the
    coordinator the cache is always empty, so this is a no-op there.
    """
    while _WORKER_ATTACHMENTS:
        _name, (shm, flat) = _WORKER_ATTACHMENTS.popitem()
        del flat
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view leaked elsewhere
            pass


atexit.register(_worker_release_attachments)


# -- coordinator side ---------------------------------------------------------


class ViewPublication:
    """One view's shards copied into a single shared-memory segment.

    Layout: shards back-to-back, each as ``rows·share0 ‖ rows·share1 ‖
    flags·share0 ‖ flags·share1`` (all ``uint32``), the row halves
    column-major — one run per column, as the view stores them.  ``shard_meta`` holds
    each shard's ``(offset_words, n_rows)``.
    """

    def __init__(self, view: MaterializedView) -> None:
        shards = view.shards
        self.version = view.content_version
        self.width = view.schema.width
        self.shard_meta: list[tuple[int, int]] = []
        total_words = sum(
            2 * len(t) * self.width + 2 * len(t) for t in shards
        )
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(total_words * 4, 4)
        )
        self.name = self.shm.name
        flat = np.frombuffer(self.shm.buf, dtype=np.uint32)
        offset = 0
        for table in shards:
            n = len(table)
            rw = n * self.width
            self.shard_meta.append((offset, n))
            # Column-major, like the shard buffers being copied.
            column_shape = (self.width, n)
            flat[offset : offset + rw].reshape(column_shape)[:] = (
                table.rows.share0.T
            )
            flat[offset + rw : offset + 2 * rw].reshape(column_shape)[:] = (
                table.rows.share1.T
            )
            flat[offset + 2 * rw : offset + 2 * rw + n] = table.flags.share0
            flat[offset + 2 * rw + n : offset + 2 * rw + 2 * n] = table.flags.share1
            offset += 2 * rw + 2 * n
        del flat  # release the buffer export so close() can succeed

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ProcessScanBackend:
    """Persistent spawn-pool + publication cache for process-backend scans.

    One instance serves the whole interpreter (module-level
    :data:`PROCESS_BACKEND`): however many databases a test session
    constructs, there is one worker pool and one publication per live
    view.  The pool is created lazily on the first process-backend
    scan and survives across queries; :meth:`shutdown` (wired into
    ``DatabaseServer.stop()`` and ``atexit``) tears everything down, and
    the next scan transparently respawns.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._publications: "weakref.WeakKeyDictionary[MaterializedView, ViewPublication]" = (
            weakref.WeakKeyDictionary()
        )
        self._finalizers: "weakref.WeakKeyDictionary[MaterializedView, weakref.finalize]" = (
            weakref.WeakKeyDictionary()
        )

    # -- pool lifecycle ---------------------------------------------------
    @property
    def pool_size(self) -> int:
        if self._max_workers is not None:
            return self._max_workers
        # At least two workers even on tiny hosts so the IPC path is a
        # real cross-process fan-out wherever it runs.
        return min(MAX_POOL_WORKERS, max(2, usable_cpus()))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.pool_size,
                    mp_context=get_context("spawn"),
                )
            return self._pool

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (spawning them if needed)."""
        pool = self._ensure_pool()
        futures = [pool.submit(_worker_ping) for _ in range(self.pool_size)]
        wait(futures)
        pids = {f.result() for f in futures}
        # Workers that spawned but did not win a ping still count.
        pids.update(pool._processes.keys())
        return sorted(pids)

    def _discard_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- publications -----------------------------------------------------
    def publication_for(self, view: MaterializedView) -> ViewPublication:
        """The view's current publication, (re)built when stale."""
        with self._lock:
            pub = self._publications.get(view)
            if pub is not None and pub.version == view.content_version:
                return pub
            if pub is not None:
                self._finalizers.pop(view).detach()
                pub.close()
            pub = ViewPublication(view)
            self._publications[view] = pub
            # Unlink promptly when the view is garbage collected —
            # not just at shutdown/exit.
            self._finalizers[view] = weakref.finalize(
                view, ViewPublication.close, pub
            )
            return pub

    # -- scanning ---------------------------------------------------------
    def scan(
        self, tasks: list[ShardScanTask]
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Run one task per shard on the pool; results in shard order.

        A dead worker (crash, OOM kill) surfaces as a clean
        :class:`~repro.common.errors.ProtocolError`; the broken pool is
        discarded so the *next* query spawns a fresh pool.
        """
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(worker_scan, task) for task in tasks]
            wait(futures)
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            self._discard_pool()
            raise ProtocolError(
                "process-backend shard scan failed: a worker process died "
                "mid-query (the worker pool has been discarded and will "
                "respawn on the next query)"
            ) from exc

    # -- teardown ---------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pool and unlink every publication (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            pubs = list(self._publications.values())
            for fin in self._finalizers.values():
                fin.detach()
            self._publications = weakref.WeakKeyDictionary()
            self._finalizers = weakref.WeakKeyDictionary()
        if pool is not None:
            pool.shutdown(wait=True)
        for pub in pubs:
            pub.close()


#: The interpreter-wide backend instance the parallel executor uses.
PROCESS_BACKEND = ProcessScanBackend()


def shutdown_process_backend() -> None:
    """Tear down the process scan backend (idempotent; scans respawn)."""
    PROCESS_BACKEND.shutdown()


atexit.register(shutdown_process_backend)
