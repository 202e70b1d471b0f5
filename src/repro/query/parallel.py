"""Parallel oblivious view scans over sharded materialized views.

The paper's query path is one padded linear scan over the whole view
(Appendix A.1.1); PR 3's compiler folds every aggregate of every group
into that single pass, which leaves the pass itself as the bottleneck:
latency grows with the view's total (real + dummy) size.  With the view
stored in round-robin shards (:mod:`repro.storage.materialized_view`),
the scan decomposes perfectly — per-row accumulation is associative and
touches no cross-row state — so :class:`ParallelScanExecutor` runs
:func:`~repro.oblivious.filter.oblivious_multi_aggregate` once per shard,
each shard under its own :class:`~repro.mpc.runtime.ProtocolContext`,
and merges the per-shard accumulators share-locally (plain ring addition
of count/sum slots).

Where the shard scans run is a placement question only — every backend
runs the same kernel and merges the same accumulators:

* **in-process** (``"thread"``, and what ``"auto"`` — the default —
  always resolves to).  Shards with nothing past their watermark are
  answered without a call.  When the rest hold fewer than
  :data:`SPLIT_MIN_DELTA_ROWS` unscanned rows they run one after the
  other on the calling thread.  From that bound on the scan splits over
  two threads, both in blocks of :data:`SPLIT_BLOCK_ROWS` rows: with
  two or more pending shards every other one runs on a lazily started
  helper thread while the calling thread scans the others; a lone
  pending shard — a one-shard view's, the database default — is cut at
  the public midpoint of its suffix into two contiguous ranges, the
  second on the helper under a further context of the same protocol
  group (:meth:`~repro.mpc.runtime.ParallelProtocolGroup.range_context`),
  which is still priced by the view's shard count.  The helper is
  joined before the protocol scope closes.  Why the split needs larger
  blocks, and the sweep that sized both constants, are in
  ``docs/SHARDING.md`` ("Execution backends").
* ``"process"`` — a persistent ``spawn`` worker pool over shared-memory
  publications (:mod:`repro.query.shard_workers`); workers return
  partial accumulators plus gate counts, replayed onto the real shard
  contexts.  It is **forced-only**: against the in-process path it lost
  at every size measured (the task round trip alone is ≈ 1 ms, a whole
  400k-row inline scan ≈ 1.5 ms, and every Shrink release republishes
  the view), so ``auto`` never picks it — ``docs/SHARDING.md`` has the
  table.

Equivalence to the serial engine is exact in every backend, not
approximate:

* **answers** — per-shard counts add in Z, per-shard sums add in
  Z_{2^64}, exactly the order-independent folds the one-pass scan
  performs, so the merged :class:`~repro.query.ast.QueryAnswer` is
  byte-identical;
* **gates** — every shard charges the same per-row formula over its own
  rows; the merged :class:`~repro.mpc.runtime.ProtocolRun` totals
  ``Σ n_i × per_row = n × per_row``, identical to the unsharded charge;
* **privacy** — scans neither consume randomness nor release anything,
  so the realized ε is untouched either way.

Only the *wall clock* changes: the merged run's seconds come from
:meth:`~repro.mpc.cost_model.CostModel.parallel_seconds`, the
``gates / (throughput × effective_workers)`` estimate the planner also
prices shard counts with — the simulated cost is backend-independent by
construction; backends only change how closely the host tracks it.

With an :class:`~repro.query.incremental.AccumulatorCache` attached
(``cache=`` on :meth:`ParallelScanExecutor.execute`), repeat queries go
**incremental**: each shard scans only its suffix past the cached
watermark, charges gates for the suffix alone, and merges the cached
prefix accumulators by exact ring addition — byte-identical answers at
O(delta) gate cost, on every backend (in-process scans slice the suffix
share-locally before revealing; process workers receive a ``start_row``
and slice their zero-copy shared-memory views).  See
:mod:`repro.query.incremental` for the correctness and leakage
arguments.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures

import numpy as np

from ..common.errors import ConfigurationError
from ..mpc.runtime import MPCRuntime
from ..oblivious.filter import oblivious_multi_aggregate
from ..storage.materialized_view import MaterializedView
from .ast import QueryAnswer, ViewScanPlan
from .executor import assemble_answer, scan_arguments
from .incremental import AccumulatorCache, ScanReport, ShardAccumulator

#: Executor backends a caller may request.
SCAN_BACKENDS = ("auto", "thread", "process")

#: The one size threshold a server reads: a view scan over fewer
#: unscanned rows than this — the public delta ``Σ(n_rows − start)`` —
#: is short enough to run on whatever thread asked for it.  It encodes
#: a *time*, about 1 ms of scan on the 2-core reference host
#: (``docs/SHARDING.md``, "Execution backends").  Its reader is
#: :meth:`repro.server.runtime.DatabaseServer._runs_in_bounded_time` —
#: which event-loop requests may scan where they were decoded.  (The
#: name is from when the same bound also moved scans onto a thread pool.)
POOL_MIN_DELTA_ROWS = 524_288


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


#: A scan whose public delta ``Σ(n_rows − start)`` reaches this many
#: rows splits over two threads: every other pending shard runs on the
#: scan helper, the rest on the calling thread — or, with one pending
#: shard, the second half of its suffix.  Below it, waking and joining
#: the helper costs what the second core saves.
SPLIT_MIN_DELTA_ROWS = 262_144

#: Rows per kernel block on both threads of a split scan.  Larger than
#: :data:`~repro.oblivious.filter.SCAN_BLOCK_ROWS` so that the numpy
#: calls of one thread run long enough, between two hand-offs of the
#: interpreter lock, for the other thread to work beside them.
SPLIT_BLOCK_ROWS = 1 << 17

_HELPER: futures.ThreadPoolExecutor | None = None
_HELPER_LOCK = threading.Lock()


def _submit_to_helper(fn, *args) -> futures.Future:
    """Run ``fn(*args)`` on the scan helper, starting it on first use.

    The helper is one thread, shared by every scan in the process.
    Submission holds the lock :func:`shutdown_scan_helper` takes, so a
    scan never submits to a helper that is shutting down — it starts a
    new one instead.
    """
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="scan-helper"
            )
        return _HELPER.submit(fn, *args)


def shutdown_scan_helper() -> None:
    """Join the scan helper's thread (idempotent; scans restart it)."""
    global _HELPER
    with _HELPER_LOCK:
        helper, _HELPER = _HELPER, None
    if helper is not None:
        helper.shutdown(wait=True)


def _scan_shards(contexts, shards, starts, args, parts, indices) -> None:
    """Scan ``shards[i]`` past ``starts[i]`` into ``parts[i]`` for each
    ``i`` of ``indices``, calling the kernel with ``args`` after the
    context and the table.

    Suffix selection is share-local (a public slice of each half): the
    kernel reveals and folds O(delta).  Each shard charges its own
    context and fills its own slot of ``parts``, so two threads may run
    disjoint ``indices`` at once.
    """
    for i in indices:
        shard = shards[i]
        suffix = shard.take(slice(starts[i], None)) if starts[i] else shard
        parts[i] = oblivious_multi_aggregate(contexts[i], suffix, *args)


def _beside_helper(on_helper, here):
    """Run ``on_helper()`` on the scan helper while ``here()`` runs on
    the calling thread; return ``(here's result, on_helper's result)``.

    The helper is waited for before anything is returned or raised, so
    a caller whose protocol scope closes next never leaves the helper
    revealing under a closed scope, and the first error surfaces only
    once both have stopped.
    """
    helper = _submit_to_helper(on_helper)
    try:
        result = here()
    finally:
        futures.wait((helper,))
    return result, helper.result()


class ParallelScanExecutor:
    """Runs one lowered view-scan plan across shards on a worker backend.

    ``backend`` is the executor seam: ``"thread"`` and ``"auto"`` (the
    default) scan in-process — shard after shard on the calling thread,
    or, from :data:`SPLIT_MIN_DELTA_ROWS` unscanned rows on, every other
    shard (or the second half of a lone pending one) on the scan helper
    thread beside it; ``"process"`` forces the
    persistent shared-memory worker pool of
    :mod:`repro.query.shard_workers` (:meth:`backend_for`).  Shard scans
    are pure reveal/charge work on disjoint contexts (no RNG, no shared
    mutable state), so every backend preserves the deterministic
    per-shard protocol discipline.  With one shard execution is one
    padded scan of the whole view in one protocol — the serial form the
    sharding equivalence suite holds every shard count to, gates and
    simulated seconds included — whether it runs on one thread or, from
    the split bound on, as two halves on two.
    """

    def __init__(self, backend: str = "auto") -> None:
        if backend not in SCAN_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SCAN_BACKENDS}, got {backend!r}"
            )
        self.backend = backend

    # -- backend selection -------------------------------------------------
    def backend_for(self, view: MaterializedView) -> str:
        """Resolve the backend this executor would scan ``view`` with.

        Single-shard views always scan in-process (there is no shard to
        fan out to a worker; a large scan still splits into halves, and
        either way is byte-identical to the historical executor).  A
        forced backend is otherwise honored; ``"auto"`` is the
        in-process path at every size — no measured cell has the process
        pool ahead of it (see the module docstring).
        """
        if view.n_shards <= 1 or self.backend == "auto":
            return "thread"
        return self.backend

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        runtime: MPCRuntime,
        time: int,
        view: MaterializedView,
        plan: ViewScanPlan,
        cache: AccumulatorCache | None = None,
    ) -> tuple[QueryAnswer, float]:
        """Answer ``plan`` over every shard of ``view`` concurrently.

        Returns ``(answer, QET)`` like the serial executor; the QET is
        the parallelism-aware wall-clock estimate of the merged run.
        With a ``cache``, repeat queries scan only each shard's suffix
        past the cached watermark (see :meth:`execute_detailed`).
        """
        answer, seconds, _report = self.execute_detailed(
            runtime, time, view, plan, cache
        )
        return answer, seconds

    def execute_detailed(
        self,
        runtime: MPCRuntime,
        time: int,
        view: MaterializedView,
        plan: ViewScanPlan,
        cache: AccumulatorCache | None = None,
    ) -> tuple[QueryAnswer, float, ScanReport]:
        """:meth:`execute` plus a :class:`~repro.query.incremental.ScanReport`.

        Without a ``cache`` every shard is scanned in full (``mode
        "off"``).  With one, a valid entry turns the query **warm**: each
        shard reveals and folds only ``[watermark, len)``, charges gates
        for those rows alone, and the cached prefix accumulators are
        merged in by plain ring addition — counts in Z, sums in
        Z_{2^64}, exactly the folds the one-pass kernel performs, so the
        answer is byte-identical to a cold full scan.  Either way the
        full-prefix accumulators are (re)stored, so the next repeat pays
        only its own delta.
        """
        schema = view.schema
        kernel_args = scan_arguments(plan, schema)
        n_groups, n_sums = plan.n_groups, len(plan.sum_view_columns)
        shards = view.shards
        lengths = [len(shard) for shard in shards]
        backend = self.backend_for(view)
        entry = cache.lookup(view, plan) if cache is not None else None
        starts = (
            [acc.watermark for acc in entry.shards]
            if entry is not None
            else [0] * len(shards)
        )

        # Watermarks never pass their shard's length (the cache checks),
        # so the difference is the public delta this query scans.
        total_rows = sum(lengths)
        cached_rows = sum(starts)
        # Shards with nothing past their watermark are answered without
        # a call or a task on any backend: a zero accumulator, no gates.
        parts: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(shards)
        pending = []
        for i, (n_rows, start) in enumerate(zip(lengths, starts)):
            if start < n_rows:
                pending.append(i)
            else:
                parts[i] = (
                    np.zeros(n_groups, dtype=np.int64),
                    np.zeros((n_groups, n_sums), dtype=np.uint64),
                )

        with runtime.parallel_protocol("query", time, len(shards)) as group:
            if backend == "process":
                from .shard_workers import PROCESS_BACKEND, ShardScanTask

                pub = PROCESS_BACKEND.publication_for(view)
                # The plan as worker processes receive it: the kernel's
                # own arguments by name, plus the width of the rows.
                sum_indices, need_count, group_column, domain, clauses, words = (
                    kernel_args
                )
                results = PROCESS_BACKEND.scan(
                    [
                        ShardScanTask(
                            shm_name=pub.name,
                            offset_words=pub.shard_meta[i][0],
                            n_rows=pub.shard_meta[i][1],
                            width=schema.width,
                            cost_model=runtime.cost_model,
                            start_row=starts[i],
                            sum_indices=sum_indices,
                            need_count=need_count,
                            group_column=group_column,
                            group_domain=None if domain is None else tuple(domain),
                            clause_specs=clauses,
                            payload_words=schema.width,
                            predicate_words=words,
                        )
                        for i in pending
                    ]
                )
                # Replay worker gate totals onto the real shard contexts:
                # the merged ProtocolRun is then byte-identical to the
                # in-process backends' (workers charge the same per-row
                # formulas over the same suffix sizes).
                for i, (counts, sums, gates) in zip(pending, results):
                    group.contexts[i].charge_gates(gates)
                    parts[i] = (counts, sums)
            elif (
                total_rows - cached_rows < SPLIT_MIN_DELTA_ROWS
                or not pending
                or usable_cpus() < 2
            ):
                _scan_shards(group.contexts, shards, starts, kernel_args, parts, pending)
            elif len(pending) == 1:
                # A lone pending shard: its suffix is cut at the public
                # midpoint, the second half on the helper under a
                # context of its own.  The group is still priced by the
                # view's shard count.
                (i,) = pending
                shard, start = shards[i], starts[i]
                mid = (start + lengths[i]) // 2
                second = group.range_context(i)
                split_args = (*kernel_args, SPLIT_BLOCK_ROWS)
                (c0, s0), (c1, s1) = _beside_helper(
                    lambda: oblivious_multi_aggregate(
                        second, shard.take(slice(mid, None)), *split_args
                    ),
                    lambda: oblivious_multi_aggregate(
                        group.contexts[i], shard.take(slice(start, mid)), *split_args
                    ),
                )
                parts[i] = (c0 + c1, s0 + s1)
            else:
                # Every other pending shard goes to the helper.
                split_args = (*kernel_args, SPLIT_BLOCK_ROWS)
                contexts = group.contexts
                _beside_helper(
                    lambda: _scan_shards(
                        contexts, shards, starts, split_args, parts, pending[1::2]
                    ),
                    lambda: _scan_shards(
                        contexts, shards, starts, split_args, parts, pending[::2]
                    ),
                )
            # Per-shard full-prefix accumulators: cached prefix (when
            # warm) plus the suffix just folded.  Counts add in Z, sums
            # add in Z_{2^64} — the same folds the one-pass scan
            # performs, so prefix+suffix is byte-identical to a full
            # scan of the shard.
            accumulators = []
            for i, part in enumerate(parts):
                part_counts, part_sums = part
                if entry is not None:
                    prev = entry.shards[i]
                    part_counts = prev.counts + part_counts
                    part_sums = prev.sums + part_sums
                    shard_gates = prev.gates + group.shard_gates(i)
                else:
                    shard_gates = group.shard_gates(i)
                accumulators.append(
                    ShardAccumulator(
                        watermark=lengths[i],
                        counts=part_counts,
                        sums=part_sums,
                        gates=shard_gates,
                    )
                )
            # Share-local merge across shards, in shard order.
            counts = accumulators[0].counts.copy()
            sums = accumulators[0].sums.copy()
            for acc in accumulators[1:]:
                counts += acc.counts
                sums += acc.sums
            seconds = group.seconds(runtime.cost_model)
            suffix_gates = group.gates
        if cache is not None:
            cache.store(view, plan, accumulators)
        report = ScanReport(
            mode=(
                "off"
                if cache is None
                else ("warm" if entry is not None else "cold")
            ),
            total_rows=total_rows,
            delta_rows=total_rows - cached_rows,
            cached_rows=cached_rows,
            gates=suffix_gates,
            saved_gates=entry.cached_gates if entry is not None else 0,
        )
        answer = assemble_answer(
            plan.aggregate_slots, plan.group_domain, counts, sums
        )
        return answer, seconds, report
