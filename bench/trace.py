"""Outside-in tracing: timing wrappers around the layers' public callables.

Nothing in ``src/`` knows about tracing.  :class:`Tracer.install` patches
class methods on the class and module functions in every ``repro.*``
namespace that imported them; :meth:`Tracer.restore` puts the originals
back.  Spans are kept in memory as ``[name, start_ns, end_ns, parent,
thread, count]`` with a thread-local stack supplying ``parent``; they are
written out once, when the process shuts down.

``perf_counter_ns`` is CLOCK_MONOTONIC on Linux — one clock for the load
generator and the server child — so spans of both processes are attributed
to a request by its client-observed window.  That is exact in the steady
phase, where one request is in flight.

A span's *self time* is its duration minus its direct children's; children
are found through ``parent``, which only ever points at a span of the same
thread, so concurrent work on another thread is never subtracted (nor
counted twice) here.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import threading
from time import perf_counter_ns

from . import stats

NAME, START, END, PARENT, THREAD, COUNT = range(6)


def _rows(*indices: int):
    """Count extractor: total length of the positional arguments ``indices``."""

    def count(args) -> int:
        try:
            return sum(len(args[i]) for i in indices)
        except (IndexError, TypeError):  # the callable's signature changed
            return 0

    return count


#: (module, qualified name, optional count extractor).  A count extractor
#: sees the positional arguments before the call and returns a public size
#: (a padded row count) recorded on the span.
TARGETS = [
    ("repro.net.client", "IncShrinkClient.query", None),
    ("repro.net.client", "IncShrinkClient.upload", None),
    ("repro.net.protocol", "FrameDecoder.feed", None),
    ("repro.net.protocol", "encode_frame", None),
    ("repro.net.protocol", "encode_query", None),
    ("repro.net.protocol", "encode_upload", None),
    ("repro.net.protocol", "encode_result", None),
    ("repro.net.protocol", "decode_query", None),
    ("repro.net.protocol", "decode_upload", None),
    ("repro.net.protocol", "decode_result", None),
    ("repro.tenancy.registry", "TenantRegistry.authenticate", None),
    ("repro.tenancy.registry", "TenantRegistry.allowed", None),
    ("repro.tenancy.quota", "TenantGate.try_permit", None),
    ("repro.tenancy.quota", "TenantGate.try_rate", None),
    ("repro.tenancy.ledger", "check_tenant_budget", None),
    ("repro.server.runtime", "DatabaseServer.query", None),
    ("repro.server.runtime", "DatabaseServer.try_submit", None),
    ("repro.server.runtime", "DatabaseServer.try_submit_many", None),
    ("repro.server.runtime", "ReadWriteLock.acquire_read", None),
    ("repro.server.runtime", "ReadWriteLock.acquire_write", None),
    ("repro.server.planner", "DatabasePlanner.plan", None),
    ("repro.server.database", "IncShrinkDatabase.query", None),
    ("repro.server.database", "IncShrinkDatabase.upload", None),
    ("repro.server.database", "IncShrinkDatabase.step", None),
    ("repro.core.view_def", "JoinViewDefinition.logical_join_rows", _rows(1, 2)),
    ("repro.query.executor", "aggregate_plain", None),
    ("repro.storage.growing_db", "GrowingDatabase.instance_at", None),
    ("repro.server.scheduler", "StepScheduler.run_step", None),
    ("repro.core.transform", "TransformProtocol.run", None),
    ("repro.core.shrink_timer", "SDPTimer.step", None),
    ("repro.core.shrink_ant", "SDPANT.step", None),
    ("repro.core.flush", "CacheFlusher.run", None),
    ("repro.storage.secure_cache", "SecureCache.sorted_read", _rows(0)),
    ("repro.oblivious.sort", "oblivious_sort", _rows(1)),
    ("repro.oblivious.sort_merge_join", "truncated_sort_merge_join", _rows(1, 5)),
    ("repro.oblivious.filter", "oblivious_multi_aggregate", _rows(1)),
    ("repro.query.parallel", "ParallelScanExecutor.execute_detailed", None),
    ("repro.query.incremental", "AccumulatorCache.lookup", None),
    ("repro.query.incremental", "AccumulatorCache.store", None),
    ("repro.query.shard_workers", "ProcessScanBackend.scan", None),
    ("repro.query.shard_workers", "ProcessScanBackend.publication_for", None),
    ("repro.dp.laplace", "laplace_noise", None),
    ("repro.mpc.joint_noise", "joint_laplace", None),
    ("repro.dp.accountant", "PrivacyAccountant.spend", None),
    ("repro.mpc.runtime", "MPCRuntime.owner_share_table", None),
    ("repro.mpc.runtime", "ProtocolContext.share_table", None),
    ("repro.server.persistence", "snapshot_database", None),
    ("repro.server.persistence", "restore_database", None),
    ("repro.workload.variants", "make_workload", None),
]


class Tracer:
    """Installs and removes the timing wrappers; owns the span list."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[list] = []
        #: targets that no longer resolve (a later change removed them)
        self.missing: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn, count):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0, 0, stack[-1] if stack else None,
                    threading.get_ident(), count(args) if count else 0]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target that resolves; note the ones that do not."""
        if self._patched:
            return
        self.missing = []
        for module_name, qualname, count in self.targets:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, qualname
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{qualname}")
                continue
            traced = self._wrap(qualname, original, count)
            if owner is not module:
                self._patch(owner, attr, traced)
                continue
            # A module function: rebind it wherever ``from x import f``
            # copied the reference, so callers in other modules are seen.
            for name, mod in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------
    def export(self) -> list[list]:
        """Spans as JSON-ready lists, ``parent`` turned into an index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                span[NAME], span[START], span[END],
                -1 if span[PARENT] is None else index[id(span[PARENT])],
                span[THREAD], span[COUNT],
            ]
            for span in self.spans
            if span[END]
        ]


# -- analysis ------------------------------------------------------------------
def self_times(spans: list[list]) -> list[int]:
    """Self time (ns) of every exported span: duration minus direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


class SpanIndex:
    """Spans of one or more processes, queryable by request window."""

    def __init__(self, *span_lists: list[list]) -> None:
        rows = []
        for spans in span_lists:
            for span, own in zip(spans, self_times(spans)):
                rows.append((span[START], span[NAME], own, span[END] - span[START],
                             span[COUNT]))
        rows.sort(key=lambda row: row[0])
        self._rows = rows
        self._starts = [row[0] for row in rows]

    def window(self, start_ns: int, end_ns: int) -> list[tuple]:
        """``(start, name, self_ns, total_ns, count)`` of spans begun in the window."""
        lo = bisect.bisect_left(self._starts, start_ns)
        hi = bisect.bisect_right(self._starts, end_ns)
        return self._rows[lo:hi]

    def all(self) -> list[tuple]:
        return self._rows


def _ms(ns: float) -> float:
    return ns / 1e6


def _p50(values) -> float:
    return stats.median(values) if values else 0.0


#: metric -> (request kind, span names): per request of that kind, the sum
#: of the named spans' self times; the metric is the median over requests
#: that ran at least one of them.
SELF_TIME_METRICS = {
    "net.protocol.decode_ms": (
        None, ("FrameDecoder.feed", "decode_query", "decode_upload", "decode_result")),
    "net.protocol.encode_ms": (
        None, ("encode_frame", "encode_query", "encode_upload", "encode_result")),
    "tenancy.admission_ms": (
        "query",
        ("TenantRegistry.authenticate", "TenantRegistry.allowed",
         "TenantGate.try_permit", "TenantGate.try_rate", "check_tenant_budget")),
    "server.runtime.query_self_ms": ("query", ("DatabaseServer.query",)),
    "server.runtime.read_lock_wait_ms": ("query", ("ReadWriteLock.acquire_read",)),
    "server.runtime.write_lock_wait_ms": ("upload", ("ReadWriteLock.acquire_write",)),
    "server.planner.plan_ms": ("query", ("DatabasePlanner.plan",)),
    "server.database.query_self_ms": ("query", ("IncShrinkDatabase.query",)),
    "server.database.ground_truth_ms": (
        "query",
        ("JoinViewDefinition.logical_join_rows", "aggregate_plain",
         "GrowingDatabase.instance_at")),
    "server.database.upload_ms": (
        "upload", ("IncShrinkDatabase.upload", "IncShrinkDatabase.step")),
    "server.scheduler.step_self_ms": ("upload", ("StepScheduler.run_step",)),
    "core.transform.run_ms": ("upload", ("TransformProtocol.run",)),
    "core.shrink.step_ms": ("upload", ("SDPTimer.step", "SDPANT.step")),
    "core.shrink.flush_ms": ("upload", ("CacheFlusher.run",)),
    "storage.secure_cache.sorted_read_ms": ("upload", ("SecureCache.sorted_read",)),
    "oblivious.sort.sort_ms": ("upload", ("oblivious_sort",)),
    "oblivious.sort_merge_join.join_ms": ("upload", ("truncated_sort_merge_join",)),
    "oblivious.filter.scan_ms": ("query", ("oblivious_multi_aggregate",)),
    "query.parallel.execute_self_ms": (
        "query", ("ParallelScanExecutor.execute_detailed",)),
    "query.shard_workers.scan_ms": ("query", ("ProcessScanBackend.scan",)),
    "query.shard_workers.publish_ms": (
        "query", ("ProcessScanBackend.publication_for",)),
    "dp.release_ms": (
        None, ("laplace_noise", "joint_laplace", "PrivacyAccountant.spend")),
    "mpc.runtime.share_ms": (
        "upload", ("MPCRuntime.owner_share_table", "ProtocolContext.share_table")),
}

#: metric -> (request kind, span name): per-request sum of the span's count.
COUNT_METRICS = {
    "server.database.ground_truth_rows": (
        "query", "JoinViewDefinition.logical_join_rows"),
    "core.transform.rows_in": ("upload", "truncated_sort_merge_join"),
    "storage.secure_cache.rows_sorted": ("upload", "SecureCache.sorted_read"),
    "oblivious.sort.rows": ("upload", "oblivious_sort"),
    "oblivious.filter.rows_scanned": ("query", "oblivious_multi_aggregate"),
}

CLIENT_SPANS = ("IncShrinkClient.query", "IncShrinkClient.upload")


def layer_metrics(requests: list[tuple], index: SpanIndex) -> dict:
    """Per-layer times and counts of the traced steady-phase requests.

    ``requests`` are ``(kind, start_ns, end_ns)`` of the traced requests as
    the load generator observed them.  A time metric is the median, over
    the requests that exercised the layer, of the layer's summed self time
    in that request.
    """
    time_samples = {name: [] for name in SELF_TIME_METRICS}
    count_samples = {name: [] for name in COUNT_METRICS}
    residual = []
    attributed_total = 0
    observed_total = 0
    scans = process_scans = 0
    shrink_releases = dp_releases = 0
    for kind, start, end in requests:
        by_name: dict[str, int] = {}
        counts: dict[str, int] = {}
        attributed = 0
        for _start, name, own, _total, count in index.window(start, end):
            if name in CLIENT_SPANS:
                continue
            by_name[name] = by_name.get(name, 0) + own
            counts[name] = counts.get(name, 0) + count
            attributed += own
            if name == "ParallelScanExecutor.execute_detailed":
                scans += 1
            elif name == "ProcessScanBackend.scan":
                process_scans += 1
            elif name == "SecureCache.sorted_read":
                # every Shrink release and every flush reads the cache once
                shrink_releases += 1
            elif name == "PrivacyAccountant.spend":
                dp_releases += 1
        for metric, (wanted, names) in SELF_TIME_METRICS.items():
            if wanted not in (None, kind):
                continue
            hit = [by_name[n] for n in names if n in by_name]
            if hit:
                time_samples[metric].append(sum(hit))
        for metric, (wanted, name) in COUNT_METRICS.items():
            if wanted == kind and name in counts:
                count_samples[metric].append(counts[name])
        if kind == "query":
            residual.append(end - start - attributed)
            attributed_total += attributed
            observed_total += end - start
    out = {name: _ms(_p50(values)) for name, values in time_samples.items()}
    out.update({name: _p50(values) for name, values in count_samples.items()})
    out["net.server.residual_ms"] = _ms(_p50(residual))
    out["trace.coverage_ratio"] = (
        attributed_total / observed_total if observed_total else 0.0
    )
    out["query.parallel.process_share"] = process_scans / scans if scans else 0.0
    out["core.shrink.releases"] = shrink_releases
    out["dp.releases"] = dp_releases
    return out


def ingest_queue_wait_ms(requests: list[tuple], index: SpanIndex) -> float:
    """Median time from a submit returning to the ingest loop picking it up.

    Measured to the ingest thread's ``acquire_write`` (the first thing it
    does for a batch), not to ``run_step``: the write-lock wait and
    ``IncShrinkDatabase.upload`` that lie between have metrics of their own.
    """
    waits = []
    for kind, start, end in requests:
        if kind != "upload":
            continue
        submitted = picked_up = None
        for span_start, name, _own, total, _count in index.window(start, end):
            if name in ("DatabaseServer.try_submit", "DatabaseServer.try_submit_many"):
                submitted = span_start + total
            elif name == "ReadWriteLock.acquire_write" and picked_up is None:
                picked_up = span_start
        if submitted is not None and picked_up is not None:
            waits.append(max(0, picked_up - submitted))
    return _ms(_p50(waits))


def overhead_ratio(blocks: list[tuple[bool, list]]) -> float:
    """Traced over untraced latency, from alternating blocks of requests.

    ``blocks`` are ``(traced, latencies)`` in issue order.  Latency drifts
    along the stream (the database grows), so a traced block is compared
    with the mean of the untraced blocks on either side of it, which
    cancels a linear drift; the result is the median of those ratios.
    """
    medians = [(traced, stats.median(lat)) for traced, lat in blocks if lat]
    ratios = []
    for i in range(1, len(medians) - 1):
        (before_t, before), (traced, here), (after_t, after) = medians[i - 1:i + 2]
        if traced and not before_t and not after_t:
            ratios.append(here / ((before + after) / 2.0))
    return stats.median(ratios) if ratios else 0.0
