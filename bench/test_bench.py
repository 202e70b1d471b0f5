"""Self-test of the benchmark harness.

Run explicitly — ``bench/`` is not in pytest's ``testpaths``, so the
tier-1 suite is unaffected::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import compare, estimate, metrics, stats  # noqa: E402
from bench.trace import (  # noqa: E402
    END,
    PARENT,
    START,
    SpanIndex,
    Tracer,
    layer_metrics,
    overhead_ratio,
    self_times,
)


# -- statistics ----------------------------------------------------------------
def test_percentile_interpolates():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 95) == pytest.approx(95.05)
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    # p95 leaves 5% of the samples beyond it: ten of them need n >= 200.
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_beyond(200, 95) == 10
    assert stats.highest_supported_percentile(199) == 90.0
    assert stats.highest_supported_percentile(200) == 95.0
    assert stats.highest_supported_percentile(680) == 95.0  # 34 beyond
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(15) == 50.0


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)


# -- estimators ----------------------------------------------------------------
def test_repeated_reading_is_scaled_and_sheds_the_outliers():
    # a 2 s operation on a host running 1.5x slow: eight clean readings,
    # one stalled, one lucky
    probed = [[3.0, 1.4, 1.6]] * 8 + [[30.0, 1.5, 1.5], [0.3, 1.5, 1.5]]
    raw, scaled = estimate.repeated(probed)
    assert raw == pytest.approx(3.0) and scaled == pytest.approx(2.0)
    # three set-ups: the middle one
    assert estimate.middle([[1.0, 1, 1], [9.0, 1, 1], [2.0, 2, 2]]) == (2.0, 1.0)


def test_latencies_are_scaled_by_their_own_steps_factor():
    series = {
        "step_factor": [1.0, 2.0],
        "requests": [["q", 4.0, 0], ["q", 12.0, 1], ["u", 5.0, 1]],
    }
    assert estimate.latency(series, "q", 50) == (8.0, 5.0)
    assert estimate.latency(series, "u", 50) == (5.0, 2.5)


def test_upload_rate_is_total_steps_over_total_scaled_time():
    series = {"bursts": [[10, 1.0, 1.0, 1.0], [30, 6.0, 2.0, 2.0]]}
    assert estimate.upload_rate(series) == (40 / 7.0, 40 / 4.0)


# -- self-time arithmetic ------------------------------------------------------
def _span(name, start, end, parent=-1, thread=1, count=0):
    return [name, start, end, parent, thread, count]


def test_self_time_is_parent_minus_direct_children():
    spans = [
        _span("outer", 0, 100),
        _span("mid", 10, 60, parent=0),
        _span("leaf", 20, 30, parent=1),
        _span("mid", 70, 90, parent=0),
    ]
    # outer loses both mids (50 + 20) but not the leaf, which mid loses.
    assert self_times(spans) == [30, 40, 10, 20]
    assert sum(self_times(spans)) == 100  # the tree partitions the root


def test_self_time_never_subtracts_another_threads_span():
    spans = [
        _span("waiter", 0, 100, thread=1),
        # Runs inside waiter's interval but on another thread: a root there.
        _span("worker", 10, 90, thread=2),
    ]
    assert self_times(spans) == [100, 80]


def test_layer_metrics_attribute_by_request_window():
    server = [
        _span("DatabaseServer.query", 1_000, 9_000),
        _span("IncShrinkDatabase.query", 2_000, 8_000, parent=0),
        _span("JoinViewDefinition.logical_join_rows", 3_000, 7_000, parent=1, count=50),
        # a second request, outside the first window
        _span("DatabaseServer.query", 21_000, 22_000),
    ]
    index = SpanIndex(server)
    out = layer_metrics([("query", 0, 10_000), ("query", 20_000, 23_000)], index)
    # medians over the requests that exercised the layer
    assert out["server.database.ground_truth_ms"] == pytest.approx(4_000 / 1e6)
    assert out["server.database.ground_truth_rows"] == 50
    assert out["server.runtime.query_self_ms"] == pytest.approx(1_500 / 1e6)
    # coverage: (8000 + 1000) attributed of (10000 + 3000) observed
    assert out["trace.coverage_ratio"] == pytest.approx(9_000 / 13_000)


def test_overhead_ratio_cancels_linear_drift():
    # latency grows by 1 per block; tracing adds 10%
    blocks = []
    for i in range(9):
        traced = i % 2 == 1
        base = 100.0 + i
        blocks.append((traced, [base * (1.1 if traced else 1.0)] * 5))
    assert overhead_ratio(blocks) == pytest.approx(1.1)


# -- wrappers --------------------------------------------------------------------
def test_wrappers_record_spans_and_restore_originals():
    from repro.dp import laplace
    from repro.server import database
    from repro.storage.growing_db import GrowingDatabase

    original_function = laplace.laplace_noise
    original_method = GrowingDatabase.__dict__["instance_at"]
    assert database.laplace_noise is original_function

    tracer = Tracer()
    tracer.install()
    try:
        # the function is rebound where ``from ..dp.laplace import`` copied it
        assert database.laplace_noise is not original_function
        assert laplace.laplace_noise is database.laplace_noise
        assert GrowingDatabase.__dict__["instance_at"] is not original_method
        import numpy as np

        database.laplace_noise(np.random.default_rng(0), 1.0)
    finally:
        tracer.restore()
    assert database.laplace_noise is original_function
    assert laplace.laplace_noise is original_function
    assert GrowingDatabase.__dict__["instance_at"] is original_method
    assert tracer.missing == []
    (span,) = tracer.export()
    assert span[0] == "laplace_noise" and span[END] >= span[START]
    assert span[PARENT] == -1
    tracer.restore()  # idempotent


def test_wrapper_stacks_are_per_thread():
    def inner():
        time.sleep(0.001)

    tracer = Tracer(targets=[])
    traced_inner = tracer._wrap("inner", inner, None)

    def outer():
        worker = threading.Thread(target=traced_inner)
        worker.start()
        worker.join()
        traced_inner()

    tracer._wrap("outer", outer, None)()
    spans = tracer.export()
    names = [s[0] for s in spans]
    assert names == ["outer", "inner", "inner"]
    by_thread = {s[4] for s in spans}
    assert len(by_thread) == 2
    # the inner span on the worker thread has no parent; the other does
    parents = sorted(s[PARENT] for s in spans if s[0] == "inner")
    assert parents == [-1, 0]


def test_unresolvable_target_is_skipped_not_fatal():
    tracer = Tracer(targets=[("repro.net.client", "IncShrinkClient.no_such", None),
                             ("repro.no_such_module", "f", None)])
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["repro.net.client:IncShrinkClient.no_such",
                              "repro.no_such_module:f"]


# -- the metric lists --------------------------------------------------------------
def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_metrics_module():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        metrics.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in metrics.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_moves_name_real_metrics_and_workloads():
    e2e = {name for name, *_ in metrics.END_TO_END}
    for name, _unit, _better, moves in metrics.PER_LAYER:
        for target in moves.split():
            metric, workload = target.split("@")
            assert metric in e2e, (name, target)
            assert workload in metrics.WORKLOADS, (name, target)


# -- compare ---------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10) == "within-bound"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10) == "worse"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # every run of B better than every run of A resolves a wide spread
    assert compare.verdict(noisy, [x / 4 for x in noisy], "lower", 0.10) == "within-bound"


# -- the command, end to end -----------------------------------------------------------
def test_smoke_emits_exactly_the_named_metrics(tmp_path):
    spec = _benchmark_json()
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}

    with open(out, encoding="utf8") as fh:
        document = json.load(fh)
    assert set(document["fingerprint"]) >= {"nproc", "python", "numpy"}
    runs = document["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    ]
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        got = {name: entry["unit"] for name, entry in run["metrics"].items()}
        assert got == wanted[run["trace"]], (run["workload"], run["trace"])
        assert len(run["answers_sha256"]) == 64
        if run["trace"]:
            assert run["untraceable"] == []
    # the two bigview workloads are each other's control
    rates = {
        r["workload"]: r["metrics"]["query.incremental.hit_rate"]["value"]
        for r in runs if r["trace"]
    }
    assert rates["bigview-repeat"] > 0.5 and rates["bigview-adhoc"] == 0.0
