#!/usr/bin/env python
"""Profile the oblivious hot kernels — the data behind BENCH_profile.json.

Runs the kernels queries and uploads actually spend time in — the padded
multi-aggregate view scan (:func:`repro.oblivious.filter.
oblivious_multi_aggregate` over one column-major shard, bare and behind
a range predicate; and ``cold_scan``, the ``bigview-adhoc`` query: four
shards through the in-process executor, plus a sweep of its inline and
split times over view sizes and scan block sizes), the
join's oblivious sort on ``(key, side, position)`` keys
(:func:`repro.oblivious.sort.oblivious_sort`), Transform's ω-truncated
sort-merge join (:func:`repro.oblivious.sort_merge_join.
truncated_sort_merge_join`), ``nm_join``, the NM baseline's join
aggregate (:func:`repro.oblivious.sort_merge_join.
oblivious_join_multi_aggregate`) over 2,000 × 2,000 rows at about 5, 2k,
20k and 200k candidate pairs, reporting each shape's host time and
gates, and ``transform_step``, Transform invocations
(:meth:`repro.core.transform.TransformProtocol.run`) as the ``tpcds-small``
and ``bigview-*`` deployments run them step after step, timed whole and
by section (reveal, caps, join, settle, counters, re-share, cache
append), and the two fixed-shape stages of every
``cpdb-heavy`` upload — ``cache_read``, one Figure 3 read of a
5,700 × 4-row cache (:meth:`repro.storage.secure_cache.SecureCache.
sorted_read`), and ``ring_words``, one step's mix of ring-word draws
from both servers' streams (:class:`repro.common.rng.RingWordStream`),
and the two halves of a checkpoint, ``snapshot`` and ``restore`` of the
state a ``tpcds-small`` run holds at the end of its steady phase
(:func:`repro.server.persistence.snapshot_database` /
:func:`~repro.server.persistence.restore_database`; their ``rows`` are
the stream's steps, each step's four queries served and one of them
ε-released, and they also report the bases' head bytes and array
count), and ``restore_segments``, the restore of the checkpoint the
benchmark's phase D leaves behind — a base and nine segments, each
written after a query round — reporting the query observations and
accountant events it restored — under both
:mod:`cProfile` (attribution: which functions burn the time) and plain
``perf_counter`` repeats (magnitude: how long one pass takes without
profiler overhead), then:

* prints the top-N functions by cumulative time per kernel, and
* writes ``BENCH_profile.json`` at the repo root with the timed numbers
  plus the top functions, so a PR that regresses a kernel shows up as a
  baseline diff rather than an anecdote.

A last workload, ``long_stream``, measures a slope rather than a point:
the canonical three-view tpcds deployment replayed in-process for
:data:`LONG_STREAM_STEPS` steps (one tenant ε-released query per step),
reporting the median step per eighth of the stream and one
``DatabaseServer.observability()`` timing at the end of each eighth.  The
contribution budget bounds a step's work by a fixed window of batches, so
the last eighth should read like the first; a ledger that walks the whole
stream shows up here as a ramp.

This harness is how the PR-6 vectorizations were found and verified:
before them, ``batcher_network``'s Python double loop and the join
kernels' per-pair loops dominated every profile; after, the scan and
sort are numpy-bound.

Usage::

    PYTHONPATH=src python tools/profile_hot_paths.py [--rows N] [--top K]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import itertools
import json
import pstats
import statistics
import struct
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_profile.json"

DEFAULT_ROWS = 200_000
DEFAULT_TOP = 10
TIMED_REPEATS = 5
LONG_STREAM_STEPS = 3_000


def _random_view(rows: int, n_shards: int, high: int):
    """A view of ``rows`` random rows (half dummies) in ``n_shards`` shards."""
    from repro.common.types import Schema
    from repro.sharing.shared_value import SharedTable
    from repro.storage.materialized_view import MaterializedView

    gen = np.random.default_rng(13)
    schema = Schema(("a", "b", "c", "d"))
    data = gen.integers(0, high, size=(rows, 4), dtype=np.uint32)
    flags = gen.integers(0, 2, size=rows, dtype=np.uint32)
    view = MaterializedView(schema, n_shards=n_shards)
    view.append(SharedTable.from_plain(schema, data, flags, gen))
    return view


def _scan_workload(rows: int, clause_specs=()):
    """One padded multi-aggregate GROUP BY scan over one ``rows``-row
    column-major shard, behind the range predicate ``clause_specs`` when
    there is one."""
    from repro.mpc.runtime import MPCRuntime
    from repro.oblivious.filter import oblivious_multi_aggregate

    [shard] = _random_view(rows, 1, 8).shards
    runtime = MPCRuntime(seed=0)

    def run() -> None:
        with runtime.protocol("profile-scan", 0) as ctx:
            oblivious_multi_aggregate(
                ctx,
                shard,
                sum_columns=(3, 3),
                need_count=True,
                group_column=0,
                group_domain=(0, 1, 2, 3),
                clause_specs=clause_specs,
            )

    return run


def _range_scan_workload(rows: int):
    """The same scan behind ``2 <= column 1 <= 5`` (half the rows): one
    more column revealed per block, two compares on it."""
    return _scan_workload(rows, clause_specs=((1, 2, 5),))


#: View sizes and scan block sizes the ``cold_scan`` sweep crosses; a
#: block of ``None`` is one block per shard.
COLD_SCAN_SWEEP_ROWS = (131_072, 262_144, 400_000, 1_200_000, 1_600_000)
COLD_SCAN_SWEEP_BLOCKS = (1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, None)
COLD_SCAN_SWEEP_SHARDS = (4, 1)
COLD_SCAN_SWEEP_REPEATS = 15


def _cold_scan_query(rows: int, n_shards: int = 4):
    """A ``bigview-adhoc`` query over ``rows`` rows in ``n_shards``
    shards: the view, the plan and a runner that scans it cold through
    the executor (no accumulator cache, so every call scans everything)."""
    from repro.mpc.runtime import MPCRuntime
    from repro.query.ast import ScanAggregate, ScanClause, ViewScanPlan
    from repro.query.parallel import ParallelScanExecutor

    view = _random_view(rows, n_shards, 1 << 24)
    plan = ViewScanPlan(
        view_name="profile",
        aggregates=(
            ScanAggregate("count", "count"),
            ScanAggregate("sum", "sum_d", "d"),
            ScanAggregate("avg", "avg_d", "d"),
        ),
        clauses=(ScanClause("a", 1 << 22, 3 << 22),),
    )
    executor = ParallelScanExecutor()
    runtime = MPCRuntime(seed=0)

    def run() -> None:
        executor.execute_detailed(runtime, 0, view, plan)

    return view, run


def _cold_scan_sweep() -> list[dict]:
    """Median ms of the cold query, inline and split, per view size,
    shard count (four, and the one shard a database has by default,
    which splits into two halves of its rows) and block size
    (``SCAN_BLOCK_ROWS`` for the inline scan, ``SPLIT_BLOCK_ROWS`` for
    the split one).  Inline and split alternate call by call, so a noisy
    neighbour lands on both columns alike."""
    import repro.oblivious.filter as filter_mod
    import repro.query.parallel as parallel_mod

    saved = (
        filter_mod.SCAN_BLOCK_ROWS,
        filter_mod._SCRATCH,
        parallel_mod.SPLIT_BLOCK_ROWS,
        parallel_mod.SPLIT_MIN_DELTA_ROWS,
    )
    placements = {"inline": 1 << 62, "split": 0}
    cells = []
    try:
        for rows, n_shards in itertools.product(
            COLD_SCAN_SWEEP_ROWS, COLD_SCAN_SWEEP_SHARDS
        ):
            view, run = _cold_scan_query(rows, n_shards)
            for block in COLD_SCAN_SWEEP_BLOCKS:
                block_rows = block or max(view.shard_lengths())
                filter_mod.SCAN_BLOCK_ROWS = block_rows
                parallel_mod.SPLIT_BLOCK_ROWS = block_rows
                # every thread's block scratch is sized by the block
                filter_mod._SCRATCH = threading.local()
                timed = {name: [] for name in placements}
                for _ in range(COLD_SCAN_SWEEP_REPEATS + 1):
                    for name, bound in placements.items():
                        parallel_mod.SPLIT_MIN_DELTA_ROWS = bound
                        t0 = time.perf_counter()
                        run()
                        timed[name].append(time.perf_counter() - t0)
                cells.append(
                    {
                        "rows": rows,
                        "shards": n_shards,
                        "block_rows": block or "shard",
                        # the first call of each placement sizes its scratch
                        **{
                            f"{name}_ms": round(statistics.median(t[1:]) * 1e3, 3)
                            for name, t in timed.items()
                        },
                    }
                )
    finally:
        parallel_mod.shutdown_scan_helper()
        (
            filter_mod.SCAN_BLOCK_ROWS,
            filter_mod._SCRATCH,
            parallel_mod.SPLIT_BLOCK_ROWS,
            parallel_mod.SPLIT_MIN_DELTA_ROWS,
        ) = saved
    return cells


def _cold_scan_workload(rows: int):
    """A ``bigview-adhoc`` query: COUNT + SUM + AVG behind a key range,
    cold, over ``rows`` rows in four shards, through the executor as it
    is configured.  Watch for anything whose cost follows the shard
    length outside the kernel's block loop — a copy, a concatenation, a
    whole-shard reveal.  Its report is the placement sweep: inline and
    split times for every size of :data:`COLD_SCAN_SWEEP_ROWS`, shard
    count of :data:`COLD_SCAN_SWEEP_SHARDS` and block size of
    :data:`COLD_SCAN_SWEEP_BLOCKS`, the table
    ``docs/SHARDING.md`` picks ``SCAN_BLOCK_ROWS``, ``SPLIT_BLOCK_ROWS``
    and ``SPLIT_MIN_DELTA_ROWS`` from."""
    _view, run = _cold_scan_query(rows)
    run.report = {"sweep": _cold_scan_sweep()}
    return run


def _join_sort_workload(rows: int):
    """The join's oblivious sort of ``rows`` rows: the union of both
    sides keyed ``(key, side, position)`` as
    :func:`~repro.oblivious.sort_merge_join.truncated_sort_merge_join`
    keys it — distinct, so this is argsort + charge, not the tied-key
    network execution."""
    from repro.mpc.runtime import MPCRuntime
    from repro.oblivious.sort import composite_key, oblivious_sort

    gen = np.random.default_rng(29)
    n_probe = rows // 2
    side = np.repeat(np.asarray([0, 1], dtype=np.uint32), [n_probe, rows - n_probe])
    position = np.concatenate(
        [np.arange(n_probe, dtype=np.uint32), np.arange(rows - n_probe, dtype=np.uint32)]
    )
    join_key = gen.integers(1, max(2, rows // 4), size=rows, dtype=np.uint32)
    keys = composite_key(join_key, (side << np.uint32(24)) | position)
    runtime = MPCRuntime(seed=0)

    def run() -> None:
        with runtime.protocol("profile-sort", 0) as ctx:
            oblivious_sort(ctx, keys, [side, position], payload_words=4)

    return run


def _cache_read_workload(rows: int):
    """One Figure 3 cache read as ``cpdb-heavy`` serves it: ``rows``
    cached rows of four words, about 1 % real, a DP-sized read of 40.
    The partition is cheap; what is left is revealing the cache and
    re-sharing the head and the kept tail from both servers' draws."""
    from repro.common.types import Schema
    from repro.mpc.runtime import MPCRuntime
    from repro.sharing.shared_value import SharedTable
    from repro.storage.secure_cache import SecureCache

    gen = np.random.default_rng(37)
    schema = Schema(("a", "b", "c", "d"))
    data = gen.integers(0, 1 << 32, size=(rows, 4), dtype=np.uint32)
    flags = gen.random(rows) < 0.01
    content = SharedTable.from_plain(schema, data, flags, gen)
    runtime = MPCRuntime(seed=0)

    def run() -> None:
        cache = SecureCache(schema)
        cache.append(content)
        with runtime.protocol("profile-cache-read", 0) as ctx:
            cache.sorted_read(ctx, 40)

    return run


#: One ``cpdb-heavy`` step's ring-word draws per server, as
#: ``(words per draw, draws)``: joint-noise single words, counter and
#: threshold re-shares, Transform deltas, and the cache read's tail.
RING_WORD_MIX = ((1, 9), (165, 1), (3_000, 3), (60_000, 1))
RING_WORDS_PER_STEP = 2 * sum(size * count for size, count in RING_WORD_MIX)


def _ring_words_workload(rows: int):
    """One step's ring-word draws from both servers' streams
    (:data:`RING_WORD_MIX`; ``rows`` is its word total, set by
    :data:`FIXED_ROWS`)."""
    from repro.mpc.runtime import MPCRuntime

    runtime = MPCRuntime(seed=0)
    sizes = [size for size, count in RING_WORD_MIX for _ in range(count)]

    def run() -> None:
        for size in sizes:
            runtime.server0.contribute_u32(size)
            runtime.server1.contribute_u32(size)

    return run


def _transform_join_workload(rows: int):
    """One ω-truncated sort-merge join as Transform runs it: a probe
    window of ``rows`` rows against a driver batch a twentieth that
    size, cpdb's ω and window predicate, half of each side dummies, four
    rows per key on average.  Watch for anything called once per driver
    (the kernel is one array pass; the matcher loops once per *round*)."""
    from repro.mpc.runtime import MPCRuntime
    from repro.oblivious.sort_merge_join import truncated_sort_merge_join
    from repro.workload.cpdb import cpdb_view_def

    vd = cpdb_view_def()
    gen = np.random.default_rng(31)
    n_driver = max(1, rows // 20)
    pool = max(2, rows // 4)

    def side(n: int, ts_lo: int, ts_hi: int):
        table = np.column_stack(
            [gen.integers(1, pool, size=n), gen.integers(ts_lo, ts_hi, size=n)]
        ).astype(np.uint32)
        return table, gen.integers(0, 2, size=n).astype(bool), np.full(n, vd.budget)

    probe, probe_flags, probe_caps = side(rows, 1, 3)
    driver, driver_flags, driver_caps = side(n_driver, 2, 4)
    runtime = MPCRuntime(seed=0)

    def run() -> None:
        with runtime.protocol("profile-join", 0) as ctx:
            truncated_sort_merge_join(
                ctx,
                probe, probe_flags, vd.probe_key_col, probe_caps,
                driver, driver_flags, vd.driver_key_col, driver_caps,
                vd.omega, vd.pair_predicate,
            )

    return run


#: Key-pool sizes of the ``nm_join`` shapes: two 2,000-row all-real sides
#: drawing keys from a pool of ``k`` make about 4 M / ``k`` same-key
#: candidate pairs — about 5, 2k, 20k and 200k.
NM_JOIN_KEY_POOLS = (800_000, 2_000, 200, 20)


def _nm_join_workload(rows: int):
    """The NM join a query runs when no view answers it: two sides of
    ``rows / 2`` rows ``(key, ts, value)``, COUNT plus a SUM from each
    side inside a ``[0, 10]`` timestamp band, at each key pool of
    :data:`NM_JOIN_KEY_POOLS`.  ``run`` joins all four shapes; the report
    gives each shape's candidate pairs, gates and best host time.  The
    host time should not grow with the pairs; the gates still do (the
    probe charge counts the same-key candidate pairs)."""
    from repro.mpc.runtime import MPCRuntime
    from repro.oblivious.sort_merge_join import oblivious_join_multi_aggregate

    gen = np.random.default_rng(41)
    n = rows // 2
    flags = np.ones(n, dtype=bool)
    runtime = MPCRuntime(seed=0)

    def side(pool: int) -> np.ndarray:
        return np.column_stack(
            [gen.integers(0, pool, n), gen.integers(0, 100, n), gen.integers(0, 1000, n)]
        ).astype(np.uint32)

    shapes = [(side(pool), side(pool)) for pool in NM_JOIN_KEY_POOLS]

    def join(left: np.ndarray, right: np.ndarray) -> int:
        with runtime.protocol("profile-nm-join", 0) as ctx:
            oblivious_join_multi_aggregate(
                ctx, left, flags, 0, right, flags, 0,
                sum_specs=(("left", 2), ("right", 2)), band=(1, 1, 0, 10),
            )
            return ctx.gates

    def run() -> None:
        for left, right in shapes:
            join(left, right)

    report = []
    for left, right in shapes:
        left_keys, left_counts = np.unique(left[:, 0], return_counts=True)
        right_keys, right_counts = np.unique(right[:, 0], return_counts=True)
        _, li, ri = np.intersect1d(left_keys, right_keys, return_indices=True)
        timed = []
        for _ in range(TIMED_REPEATS):
            t0 = time.perf_counter()
            gates = join(left, right)
            timed.append(time.perf_counter() - t0)
        report.append(
            {
                "pairs": int(np.dot(left_counts[li], right_counts[ri])),
                "gates": gates,
                "host_ms": round(min(timed) * 1e3, 4),
            }
        )
    run.report = {"shapes": report}
    return run


#: Steps replayed before a Transform shape is timed: the probe window
#: (b / ω = 10 batches) is full and its oldest batch retires each step.
TRANSFORM_WARM_STEPS = 12
#: Steps each shape advances per timed pass.
TRANSFORM_STEPS_PER_RUN = 40
#: What one Transform invocation spends its host time on, by the callables
#: each section is: ``(module, qualified name, section)``.
TRANSFORM_SECTIONS = (
    ("repro.mpc.runtime", "ProtocolContext.reveal_table", "reveal"),
    ("repro.core.budget", "ContributionLedger.span", "caps"),
    ("repro.core.budget", "Span.caps", "caps"),
    ("repro.core.transform", "truncated_sort_merge_join", "join"),
    ("repro.core.budget", "Span.settle", "settle"),
    ("repro.core.counter", "SharedCounter.next_value", "counters"),
    ("repro.core.counter", "SharedCounter.reshared", "counters"),
    ("repro.mpc.runtime", "ProtocolContext.share_table", "re-share"),
    ("repro.storage.secure_cache", "SecureCache.append", "cache append"),
)


class _SectionClock:
    """Timing wrappers around :data:`TRANSFORM_SECTIONS`, installed only
    while a timed invocation runs; names that do not resolve are listed
    in ``missing``."""

    def __init__(self) -> None:
        import importlib

        self.spent: dict[str, int] = {}
        self.missing: list[str] = []
        self._patches = []
        for module_name, qualname, section in TRANSFORM_SECTIONS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            try:
                for name in path:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}:{qualname}")
                continue
            self._patches.append((owner, attr, original, self._wrap(original, section)))

    def _wrap(self, original, section: str):
        spent = self.spent

        def timed(fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent[section] = spent.get(section, 0) + time.perf_counter_ns() - t0

            return call

        if isinstance(original, property):
            return property(timed(original.fget))
        return timed(original)

    def __enter__(self) -> "_SectionClock":
        self.spent.clear()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _transform_step_workload(rows: int):
    """Transform invocations as the ``tpcds-small`` and ``bigview-*``
    deployments run them, one step after another.

    * ``tpcds``: the three tpcds views of ``tpcds-small`` — two Transform
      groups over one table pair (the full window's group feeds two
      counters and two caches, the recent window's one of each), 1 shard;
    * ``bigview``: the one dp-timer view of ``bigview-*``, 4 shards.

    Both see a 200-row probe window (10 batches of 20 sales) against a
    14-row returns batch once :data:`TRANSFORM_WARM_STEPS` steps are in.
    Each pass uploads :data:`TRANSFORM_STEPS_PER_RUN` further steps per
    shape and runs their Transforms only (no Shrink), on odd steps bare —
    the invocation's host time — and on even ones under a
    :class:`_SectionClock` — its host time per section; ``rows`` counts
    the probe rows per invocation.  The report holds, per shape, the
    median µs of an invocation and of each section over every pass so
    far, ``other`` being the rest (scope, reveal inputs, publish,
    report)."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )
    from repro.server.database import IncShrinkDatabase
    from repro.server.scheduler import _FanoutSink

    def deploy(shape: str):
        deployment = build_multiview_deployment(
            MultiViewRunConfig(dataset="tpcds", n_steps=steps_needed, seed=3)
        )
        database = deployment.database
        if shape == "bigview":
            database = IncShrinkDatabase(
                total_epsilon=database.total_epsilon, seed=3, n_shards=4
            )
            database.register_view(deployment.database.registrations[0])
        database.finalize()
        groups = [
            (g.transform, _FanoutSink(g.sinks)) for g in database.groups.values()
        ]
        stream = iter(deployment.workload.steps)
        return deployment, database, groups, stream

    steps_needed = TRANSFORM_WARM_STEPS + 8 * TRANSFORM_STEPS_PER_RUN
    clock = _SectionClock()
    state = {}
    samples = {shape: {"invocation": [], "sections": []} for shape in ("tpcds", "bigview")}

    def advance(shape: str, timed: bool) -> None:
        deployment, database, groups, stream = state[shape]
        step = next(stream, None)
        if step is None:  # replayed to the end: start the stream again
            warm(shape)
            return advance(shape, timed)
        database.upload(step.time, deployment.upload_items(step))
        got = samples[shape]
        bare = step.time % 2
        for transform, sink in groups:
            if not timed:
                transform.run(step.time, sink)
            elif bare:
                t0 = time.perf_counter_ns()
                transform.run(step.time, sink)
                got["invocation"].append(time.perf_counter_ns() - t0)
            else:
                with clock:
                    transform.run(step.time, sink)
                got["sections"].append(dict(clock.spent))

    def warm(shape: str) -> None:
        state[shape] = deploy(shape)
        for _ in range(TRANSFORM_WARM_STEPS):
            advance(shape, timed=False)

    for shape in samples:
        warm(shape)

    def us(values) -> float:
        return round(statistics.median(values) / 1e3, 1)

    def run() -> None:
        for _ in range(TRANSFORM_STEPS_PER_RUN):
            for shape in samples:
                advance(shape, timed=True)
        report = {}
        for shape, got in samples.items():
            sections = {
                name: us([s.get(name, 0) for s in got["sections"]])
                for name in dict.fromkeys(name for *_, name in TRANSFORM_SECTIONS)
            }
            invocation = us(got["invocation"])
            sections["other"] = round(invocation - sum(sections.values()), 1)
            report[shape] = {
                "invocations": len(got["invocation"]) + len(got["sections"]),
                "invocation_median_us": invocation,
                "section_median_us": sections,
            }
        run.report = {"transform_shapes": report, "missing_sections": clock.missing}

    return run


def _incremental_workload(rows: int):
    """One warm (suffix-only) rescan after a 2% append.

    The cold scan and the append happen once, at build time; the
    profiled/timed body is the steady-state operation a dashboard pays
    per repeat query — cache lookup, suffix scan, ring merge.  Watch
    for per-repeat overheads that scale with the *prefix* (they would
    erase the O(delta) claim).
    """
    from repro.common.rng import spawn
    from repro.common.types import Schema
    from repro.core.view_def import JoinViewDefinition
    from repro.mpc.runtime import MPCRuntime
    from repro.query.ast import AggregateSpec, GroupBySpec, LogicalQuery
    from repro.query.incremental import AccumulatorCache
    from repro.query.parallel import ParallelScanExecutor
    from repro.query.rewrite import lower_to_view_scan
    from repro.sharing.shared_value import SharedTable
    from repro.storage.materialized_view import MaterializedView

    vd = JoinViewDefinition(
        name="profile",
        probe_table="orders",
        probe_schema=Schema(("key", "ots")),
        probe_key="key",
        probe_ts="ots",
        driver_table="shipments",
        driver_schema=Schema(("key", "sts")),
        driver_key="key",
        driver_ts="sts",
        window_lo=0,
        window_hi=2,
        omega=2,
        budget=6,
    )
    query = LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (0, 1, 2, 3)),
    )
    plan = lower_to_view_scan(query, vd)

    gen = np.random.default_rng(17)

    def table(n: int) -> SharedTable:
        data = gen.integers(0, 8, size=(n, vd.view_schema.width)).astype(
            np.uint32
        )
        flags = gen.integers(0, 2, size=n).astype(np.uint32)
        return SharedTable.from_plain(
            vd.view_schema, data, flags, spawn(5, "profile", n)
        )

    view = MaterializedView(vd.view_schema, n_shards=4)
    view.append(table(rows), count_as_update=False)
    executor = ParallelScanExecutor(backend="thread")
    cache = AccumulatorCache()
    runtime = MPCRuntime(seed=0)
    executor.execute_detailed(runtime, 0, view, plan, cache)  # cold
    view.append(table(max(1, rows // 50)), count_as_update=False)
    executor.execute_detailed(runtime, 0, view, plan, cache)  # absorb delta

    def run() -> None:
        with_delta = max(1, rows // 50)
        view.append(table(with_delta), count_as_update=False)
        executor.execute_detailed(runtime, 0, view, plan, cache)

    return run


#: Steps in the steady phase of ``tpcds-small`` (12 steps/s for 20 s):
#: the state the benchmark of record checkpoints and restores.
PERSISTENCE_STEPS = 240
#: Queries served after the steady phase, cycling the step's four, as
#: the benchmark's query bursts serve them before each checkpoint.
PERSISTENCE_BURST = 600
#: Checkpoints the benchmark takes after the steady phase, one after each
#: query round of its burst: a base, then a segment each.
PERSISTENCE_ROUNDS = 10


def _tpcds_state(steps: int, checkpoint=None):
    """The canonical three-view tpcds deployment (returned whole: its
    ``database`` and ``step_queries``) in the shape the
    ``tpcds-small`` benchmark checkpoints: ``steps`` steps of one upload
    and the four step queries, the fourth a tenant's ε-release, then a
    burst of :data:`PERSISTENCE_BURST` more of them — in
    :data:`PERSISTENCE_ROUNDS` rounds, each followed by ``checkpoint(db)``,
    when one is given."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )

    deployment = build_multiview_deployment(
        MultiViewRunConfig(dataset="tpcds", n_steps=steps, seed=3)
    )
    db = deployment.database
    db.set_tenant_budgets({"analyst": 1.0e6})
    queries = deployment.step_queries

    def serve(query, time: int) -> None:
        if query is queries[-1]:
            db.query(query, time, epsilon=0.01, tenant="analyst")
        else:
            db.query(query, time)

    for step in deployment.workload.steps:
        db.upload(step.time, deployment.upload_items(step))
        db.step(step.time)
        for query in queries:
            serve(query, step.time)
    per_round = PERSISTENCE_BURST // PERSISTENCE_ROUNDS
    for k in range(PERSISTENCE_BURST):
        serve(queries[k % len(queries)], steps)
        if checkpoint is not None and (k + 1) % per_round == 0:
            checkpoint(db)
    return deployment


def _container_shape(path: Path) -> dict:
    """Head bytes and array count of one checkpoint's bases, read by the
    documented layout: magic (18 B), version (u16), head length (u64),
    array length (u64), head — in each of its four files."""
    head_bytes = arrays = 0
    for name in ("party0", "party1", "trusted", "public"):
        raw = (path / name).read_bytes()
        _, _, head_len, _ = struct.unpack_from(">18sHQQ", raw)
        # Metadata is one JSON string in a head: its quotes are escaped.
        arrays += raw[38 : 38 + head_len].count(b'"offset":')
        head_bytes += head_len
    return {"head_bytes": head_bytes, "arrays": arrays}


def _snapshot_workload(steps: int):
    """One full checkpoint — a base, as the first checkpoint to a path and
    every compaction write one — of the :data:`PERSISTENCE_STEPS`-step
    tpcds state (``rows`` counts steps).  Watch for anything called once
    per uploaded batch, release or served query."""
    from repro.server.persistence import snapshot_database

    db = _tpcds_state(steps).database
    scratch = tempfile.TemporaryDirectory()  # removed with the closure
    paths = (Path(scratch.name) / f"profile-{i}.snap" for i in itertools.count())

    def run() -> None:
        snapshot_database(db, next(paths))

    run()
    run.report = _container_shape(Path(scratch.name) / "profile-0.snap")
    return run


def _restore_workload(steps: int):
    """One restore of that checkpoint."""
    from repro.server.persistence import restore_database, snapshot_database

    scratch = tempfile.TemporaryDirectory()
    snapshot_database(_tpcds_state(steps).database, Path(scratch.name) / "profile.snap")

    def run() -> None:
        restore_database(Path(scratch.name) / "profile.snap")

    run.report = _container_shape(Path(scratch.name) / "profile.snap")
    return run


def _restore_segments_workload(steps: int):
    """One restore of the checkpoint phase D leaves behind: a base and
    :data:`PERSISTENCE_ROUNDS` - 1 segments, each written after a query
    round.  Watch for anything called once per served query or release:
    the reader adopts each metric and event column as it joins it, and
    builds each accountant event once."""
    from repro.server.persistence import restore_database, snapshot_database

    scratch = tempfile.TemporaryDirectory()
    path = Path(scratch.name) / "profile.snap"
    _tpcds_state(steps, checkpoint=lambda db: snapshot_database(db, path))

    def run() -> None:
        restore_database(Path(scratch.name) / "profile.snap")

    restored = restore_database(path)
    db = restored.database
    run.report = {
        "segments": restored.info.segments,
        "observations": sum(
            len(log.queries) for log in (db.metrics, *(vr.metrics for vr in db.views.values()))
        ),
        "events": len(db.accountant.events),
    }
    return run


#: Requests one ``served_request`` pass serves, cycling the step's four.
SERVED_REQUESTS = 2_000
#: Requests behind the ``served_request`` per-stage medians.
SERVED_SAMPLES = 6_000


def _blob_count(frame: bytes) -> int:
    """The blob count a frame declares, read by the documented layout:
    10-byte header, head length (u32), head, blob count (u16)."""
    (head_len,) = struct.unpack_from(">I", frame, 10)
    (n_blobs,) = struct.unpack_from(">H", frame, 14 + head_len)
    return n_blobs


def _served_request_workload(requests: int):
    """One served warm query without the socket: encode query → frame
    decode → ``decode_query`` → ``DatabaseServer.query`` →
    ``encode_result`` → frame encode → client decode, on the
    :data:`PERSISTENCE_STEPS`-step tpcds state, cycling the step's four
    queries (the fourth an analyst's ε-release) and decoding a fresh
    AST each time, as the server does.  The report is each stage's
    median µs over :data:`SERVED_SAMPLES` requests and the blob count
    each frame declares; ``rows`` counts requests."""
    from repro.net import protocol as wire
    from repro.server.runtime import DatabaseServer

    deployment = _tpcds_state(PERSISTENCE_STEPS)
    server = DatabaseServer(deployment.database)
    *plain, release = deployment.step_queries
    mix = [(query, None) for query in plain] + [(release, 0.01)]
    server_side, client_side = wire.FrameDecoder(), wire.FrameDecoder()
    clock = time.perf_counter

    def serve(k: int, stamps: list | None) -> tuple[bytes, bytes]:
        query, epsilon = mix[k % len(mix)]
        t0 = clock()
        request = wire.encode_frame(
            "query",
            {"query": wire.encode_query(query), "time": PERSISTENCE_STEPS,
             "epsilon": epsilon},
        )
        t1 = clock()
        [(_, payload)] = server_side.feed(request)
        t2 = clock()
        decoded = wire.decode_query(payload["query"])
        t3 = clock()
        result = server.query(
            decoded, time=payload["time"], epsilon=payload["epsilon"],
            tenant=None if epsilon is None else "analyst",
        )
        t4 = clock()
        body = wire.encode_result(result)
        t5 = clock()
        response = wire.encode_frame("result", body)
        t6 = clock()
        [(_, answer)] = client_side.feed(response)
        wire.decode_result(answer)
        t7 = clock()
        if stamps is not None:
            stamps.append((t0, t1, t2, t3, t4, t5, t6, t7))
        return request, response

    stamps: list = []
    for k in range(SERVED_SAMPLES):
        request, response = serve(k, stamps)
    stages = ("encode_query", "frame_decode", "decode_query", "server_query",
              "encode_result", "frame_encode", "client_decode")
    median_us = {
        stage: round(statistics.median(s[i + 1] - s[i] for s in stamps) * 1e6, 1)
        for i, stage in enumerate(stages)
    }
    median_us["whole"] = round(statistics.median(s[-1] - s[0] for s in stamps) * 1e6, 1)

    def run() -> None:
        for k in range(requests):
            serve(k, None)

    run.report = {
        "stage_median_us": median_us,
        "blobs": {"query": _blob_count(request), "result": _blob_count(response)},
        "result_frame_bytes": len(response),
    }
    return run


WORKLOADS = {
    "padded_scan": _scan_workload,
    "padded_scan_range": _range_scan_workload,
    "cold_scan": _cold_scan_workload,
    "join_sort": _join_sort_workload,
    "transform_join": _transform_join_workload,
    "transform_step": _transform_step_workload,
    "incremental_scan": _incremental_workload,
    "nm_join": _nm_join_workload,
    "cache_read": _cache_read_workload,
    "ring_words": _ring_words_workload,
    "snapshot": _snapshot_workload,
    "restore": _restore_workload,
    "restore_segments": _restore_segments_workload,
    "served_request": _served_request_workload,
}

#: Stages whose shape is the served one whatever ``--rows`` says.
FIXED_ROWS = {
    "transform_step": 200,
    "nm_join": 4_000,
    "cache_read": 5_700,
    "ring_words": RING_WORDS_PER_STEP,
    "snapshot": PERSISTENCE_STEPS,
    "restore": PERSISTENCE_STEPS,
    "restore_segments": PERSISTENCE_STEPS,
    "served_request": SERVED_REQUESTS,
}


def profile_long_stream(steps: int = LONG_STREAM_STEPS) -> dict:
    """Per-eighth step medians and ``observability()`` timings over one
    in-process replay of the tpcds stream."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )
    from repro.server.runtime import DatabaseServer

    deployment = build_multiview_deployment(
        MultiViewRunConfig(dataset="tpcds", n_steps=steps, seed=1)
    )
    db = deployment.database
    db.set_tenant_budgets({"analyst": 1.0e6})
    server = DatabaseServer(db)
    release = deployment.step_queries[3]
    eighth = max(1, steps // 8)
    step_seconds: list[float] = []
    observability_ms: list[float] = []
    for step in deployment.workload.steps:
        uploads = deployment.upload_items(step)
        t0 = time.perf_counter()
        db.upload(step.time, uploads)
        db.step(step.time)
        step_seconds.append(time.perf_counter() - t0)
        db.query(release, step.time, epsilon=0.01, tenant="analyst")
        if len(step_seconds) % eighth == 0 and len(observability_ms) < 8:
            timed = []
            for _ in range(TIMED_REPEATS):
                t0 = time.perf_counter()
                server.observability()
                timed.append(time.perf_counter() - t0)
            observability_ms.append(round(min(timed) * 1e3, 4))
    return {
        "steps": steps,
        "step_median_ms_per_eighth": [
            round(statistics.median(step_seconds[k * eighth:(k + 1) * eighth]) * 1e3, 4)
            for k in range(8)
        ],
        "observability_ms_per_eighth": observability_ms,
    }


def _top_functions(profile: cProfile.Profile, top: int) -> list[dict]:
    stats = pstats.Stats(profile, stream=io.StringIO())
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, lineno, name = func
        if "cProfile" in filename or filename.startswith("<"):
            continue
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}:{name}",
                "calls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:top]


def profile_workloads(rows: int, top: int) -> dict:
    results = {}
    for name, factory in WORKLOADS.items():
        size = FIXED_ROWS.get(name, rows)
        run = factory(size)
        run()  # warm caches (numpy buffers, accumulator cache) once

        timed = []
        for _ in range(TIMED_REPEATS):
            t0 = time.perf_counter()
            run()
            timed.append(time.perf_counter() - t0)

        profile = cProfile.Profile()
        profile.enable()
        run()
        profile.disable()

        results[name] = {
            "rows": size,
            "best_seconds": min(timed),
            "mean_seconds": sum(timed) / len(timed),
            "rows_per_second": size / min(timed),
            **getattr(run, "report", {}),
            "top_functions": _top_functions(profile, top),
        }
    return {
        "benchmark": "hot_path_profile",
        "timed_repeats": TIMED_REPEATS,
        "workloads": results,
        "long_stream": profile_long_stream(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--top", type=int, default=DEFAULT_TOP)
    parser.add_argument(
        "--out", type=Path, default=BENCH_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    result = profile_workloads(args.rows, args.top)
    for name, data in result["workloads"].items():
        if "head_bytes" in data:
            shape = f", {data['head_bytes']} B head, {data['arrays']} arrays"
        elif "stage_median_us" in data:
            shape = (
                f", median µs per stage {data['stage_median_us']}, blobs "
                f"{data['blobs']}, {data['result_frame_bytes']} B result frame"
            )
        elif "shapes" in data:
            shape = ", per shape " + "; ".join(
                f"{x['pairs']} pairs: {x['host_ms']} ms, {x['gates']:,} gates"
                for x in data["shapes"]
            )
        elif "transform_shapes" in data:
            shape = "; ".join(
                f"{name}: {x['invocation_median_us']} µs per invocation, "
                f"median µs per section {x['section_median_us']}"
                for name, x in data["transform_shapes"].items()
            )
            shape = f", {shape}"
        elif "sweep" in data:
            shape = ", inline/split ms per (rows, shards, block): " + "; ".join(
                f"({x['rows']}, {x['shards']}, {x['block_rows']}) "
                f"{x['inline_ms']}/{x['split_ms']}"
                for x in data["sweep"]
            )
        elif "segments" in data:
            shape = (
                f", a base and {data['segments']} segments: {data['observations']} "
                f"observations, {data['events']} events"
            )
        else:
            shape = ""
        print(
            f"{name}: {data['best_seconds']*1e3:.1f} ms best of "
            f"{TIMED_REPEATS} over {data['rows']} rows "
            f"({data['rows_per_second']/1e6:.2f} Mrows/s){shape}"
        )
        for row in data["top_functions"]:
            print(
                f"  {row['cumtime_s']*1e3:8.1f} ms cum  "
                f"{row['tottime_s']*1e3:8.1f} ms self  "
                f"{row['calls']:>8} calls  {row['function']}"
            )
    stream = result["long_stream"]
    print(
        f"long_stream: {stream['steps']} tpcds steps, median step per eighth "
        f"{stream['step_median_ms_per_eighth']} ms, observability() per eighth "
        f"{stream['observability_ms_per_eighth']} ms"
    )
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf8")
    print(f"-> recorded to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
