"""The benchmark command: one workload run, outside-in.

    python3 bench/run.py --workload cpdb-heavy --seed 7 --seconds 12 --trace 0

runs one workload against the system in its default configuration — the
server in a child process, the load generated here over localhost sockets —
prints every metric by name with its unit, checks the outputs against a
serial cold reference, writes a results JSON, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` measures the end-to-end metrics with no wrapper installed
anywhere.  ``--trace 1`` reruns the steady phase with the timing wrappers of
``bench/trace.py`` switched on and off in alternating blocks of steps and
reports the per-layer metrics.  Without ``--workload`` all four run in turn;
``--smoke`` runs all four, both passes, at 1/20 size.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no system under test at {ROOT / 'src' / 'repro'}")
# The script directory must not stay on sys.path: bench/trace.py would
# shadow the standard library's ``trace`` for everything imported later.
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from repro import DatabaseServer  # noqa: E402

from bench import check, estimate, loadgen, stats, workloads  # noqa: E402
from bench.metrics import (  # noqa: E402
    E2E_UNITS,
    LAYER_UNITS,
    WORKLOADS,
)
from bench.trace import (  # noqa: E402
    SpanIndex,
    Tracer,
    ingest_queue_wait_ms,
    layer_metrics,
    overhead_ratio,
)

SCRATCH = ROOT / ".bench_run"
#: Steps per tracing block in the traced pass: wrappers are on for every
#: other block, so traced and untraced requests see the same database sizes.
TRACE_BLOCK_STEPS = 4
SMOKE_SHRINK = 1 / 20
SETUP_REPEATS = 3
#: Query rounds, snapshots and restores per run (phases B and D).
REPEATS = 10


def _default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        return float(json.load(fh)["run_seconds"])


class Run:
    """One workload run: directories, the live child, and the tally."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.shrink = SMOKE_SHRINK if smoke else 1.0
        #: repeated timings (set-up, query round, snapshot, restore) only when not smoking
        self.repeat = not smoke
        self.tally = loadgen.Tally()
        self.dir = SCRATCH / f"{os.getpid()}-{name}"
        self._dirs = itertools.count()
        self.child: loadgen.ServerChild | None = None

    def __enter__(self) -> "Run":
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.child is not None:
            self.child.kill()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- set-up -------------------------------------------------------------
    def set_up(self):
        """Generate inputs, start a child, get the owner's ``welcome``."""
        inputs = workloads.generate(self.name, self.seed, self.seconds, self.shrink)
        run_dir = self.dir / f"child-{next(self._dirs)}"
        run_dir.mkdir()
        self.child = loadgen.ServerChild(run_dir, inputs.spec)
        owner = loadgen.connect(inputs, self.child.port, "owner")
        return inputs, owner

    def tear_down(self, owner) -> dict:
        owner.close()
        child, self.child = self.child, None
        return child.stop()

    def per_round(self) -> int:
        return workloads.burst_queries_per_round(
            self.name, self.seconds * self.shrink
        )


def verify(run: Run, inputs, pairs, served, state, restored) -> None:
    """Phase D's correctness gate: served answers against the reference."""
    wanted, wanted_epsilon = check.reference(
        restored, pairs, served,
        inputs.credentials.get("analyst", {}).get("tenant"),
    )
    run.tally.attempted += len(pairs)
    for problem in check.mismatches(served, state, wanted, wanted_epsilon):
        run.tally.fail(problem)


def run_end_to_end(run: Run) -> dict:
    """``--trace 0``: every end-to-end metric, no wrapper installed."""
    tally = run.tally
    speed = loadgen.HostSpeed()
    repeats = REPEATS if run.repeat else 1
    wall = {"start": perf_counter()}

    # Set-up is timed several times (a fresh child each time); the last
    # one is the deployment the phases then run against.
    setups = []
    for i in range(SETUP_REPEATS if run.repeat else 1):
        if i:
            run.tear_down(owner)
        (inputs, owner), timing = speed.timed(run.set_up)
        setups.append(timing)
    port = run.child.port
    analyst = loadgen.connect(inputs, port, "analyst")
    admin = loadgen.connect(inputs, port, "admin")
    snap = run.dir / "deploy.snap"
    wall["set-up"] = perf_counter()

    observed = loadgen.steady(inputs, owner, analyst, tally, speed)
    wall["A"] = perf_counter()
    # The serving peak, read before the first snapshot: the encoder's
    # transient (three copies of the document) would otherwise be the
    # peak, it varies by a fifth from run to run, and it stays resident.
    rss_mb = run.child.peak_rss_mb()

    # Phases B and D, interleaved at the steady phase's watermark: a query
    # round, a snapshot, a restore, ``repeats`` times over.
    burst = loadgen.QueryBurst(inputs, port, run.per_round())
    rounds, snapshots, restores = [], [], []
    for _ in range(repeats):
        rounds.append(speed.timed(burst.round)[1])
        snapshots.append(speed.timed(lambda: admin.snapshot(str(snap)))[1])
        restores.append(speed.timed(lambda: DatabaseServer.resume(str(snap)))[1])
    burst.close(tally)
    wall["B+D"] = perf_counter()

    bursts = loadgen.upload_burst(inputs, owner, tally, speed)
    wall["C"] = perf_counter()

    admin.snapshot(str(snap))
    pairs = check.distinct_queries(inputs)
    served = check.served(analyst, pairs)
    state = admin.stats()
    analyst.close()
    admin.close()
    report = run.tear_down(owner)
    verify(run, inputs, pairs, served, state, DatabaseServer.resume(str(snap)))
    wall["check"] = perf_counter()

    series = {
        "setup": [t.series() for t in setups],
        "requests": [
            [kind[0], (end - start) / 1e6, step]
            for kind, start, end, _traced, step in observed.requests
        ],
        "step_factor": observed.step_factor,
        "queries_per_round": burst.queries_per_round,
        "rounds": [t.series() for t in rounds],
        "snapshot": [t.series() for t in snapshots],
        "restore": [t.series() for t in restores],
        "bursts": [[n, *t.series()] for n, t in bursts],
        "peak_rss_mb": rss_mb,
    }
    timings = estimate.end_to_end(series)
    n_queries = sum(1 for r in series["requests"] if r[0] == "q")
    return {
        "metrics": _with_units({k: t[1] for k, t in timings.items()}, E2E_UNITS),
        "raw": {k: t[0] for k, t in timings.items()},
        "series": series,
        "phase_seconds": {
            phase: wall[phase] - wall[previous]
            for previous, phase in zip(wall, list(wall)[1:])
        },
        "samples": {
            "query": n_queries,
            "upload": len(series["requests"]) - n_queries,
            "highest_supported_query_percentile":
                stats.highest_supported_percentile(n_queries),
            "checked_queries": len(pairs),
        },
        **_determinism(observed, report, state),
    }


def run_traced(run: Run) -> dict:
    """``--trace 1``: the steady phase under alternating tracing blocks."""
    tally = run.tally
    tracer = Tracer()
    tracer.install()
    try:
        inputs, owner = run.set_up()
    finally:
        tracer.restore()
    child = run.child
    port = child.port
    analyst = loadgen.connect(inputs, port, "analyst")
    admin = loadgen.connect(inputs, port, "admin")

    tracing = False

    def switch(on: bool) -> None:
        nonlocal tracing
        if on != tracing:
            child.command("trace on" if on else "trace off")
            tracer.install() if on else tracer.restore()
            tracing = on

    def toggle(step_index: int) -> bool:
        switch((step_index // TRACE_BLOCK_STEPS) % 2 == 1)
        return tracing

    try:
        observed = loadgen.steady(
            inputs, owner, analyst, tally, loadgen.HostSpeed(), toggle
        )
        switch(True)
        sent, received = (
            sum(c.bytes_sent for c in (owner, analyst)),
            sum(c.bytes_received for c in (owner, analyst)),
        )
        state = admin.stats()
        snap = run.dir / "deploy.snap"
        receipt = admin.snapshot(str(snap))
        switch(False)
        pairs = check.distinct_queries(inputs)
        served = check.served(analyst, pairs)
        final_state = admin.stats()
        analyst.close()
        admin.close()
        report = run.tear_down(owner)
        tracer.install()
        restored = DatabaseServer.resume(str(snap))
    finally:
        tracer.restore()
    verify(run, inputs, pairs, served, final_state, restored)

    parent_spans = tracer.export()
    index = SpanIndex(parent_spans, child.spans())
    traced_requests = [(k, s, e) for k, s, e, t, _step in observed.requests if t]
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values.update(layer_metrics(traced_requests, index))
    values["server.runtime.ingest_queue_wait_ms"] = ingest_queue_wait_ms(
        traced_requests, index
    )

    def total_ms(name: str) -> float:
        return sum(t for _s, n, _own, t, _c in index.all() if n == name) / 1e6

    traced_q = observed.latencies_ms("query", traced=True)
    untraced_q = observed.latencies_ms("query", traced=False)
    traced_u = observed.latencies_ms("upload", traced=True)
    n_requests = len(observed.requests)
    cache = state["incremental_cache"]
    values.update({
        "net.client.query_ms": stats.median(traced_q) if traced_q else 0.0,
        "net.client.upload_ms": stats.median(traced_u) if traced_u else 0.0,
        "loadgen.upload_p95_ms": stats.percentile(
            observed.latencies_ms("upload", None), 95
        ),
        "net.protocol.bytes_in_per_op": sent / n_requests if n_requests else 0.0,
        "net.protocol.bytes_out_per_op": received / n_requests if n_requests else 0.0,
        "tenancy.rejections": observed.refused,
        "server.planner.hit_rate": state["plan_cache_hit_rate"],
        "oblivious.sort.network_builds": report["network_builds"],
        "query.incremental.hit_rate": cache.get("hit_rate", 0.0),
        "query.incremental.evictions": cache.get("evictions", 0),
        "query.incremental.delta_row_ratio": (
            observed.delta_rows / observed.total_rows if observed.total_rows else 0.0
        ),
        "dp.realized_epsilon": state["realized_epsilon"],
        "mpc.runtime.query_gates": report["query_gates"],
        "mpc.runtime.ingest_gates": report["ingest_gates"],
        "mpc.runtime.sim_qet_s": (
            stats.median(observed.qet_seconds) if observed.qet_seconds else 0.0
        ),
        "server.persistence.snapshot_bytes": receipt["bytes_written"],
        "server.persistence.encode_ms": total_ms("snapshot_database"),
        "server.persistence.decode_ms": total_ms("restore_database"),
        "workload.generate_s": total_ms("make_workload") / 1e3,
        "trace.overhead_ratio": overhead_ratio(observed.blocks("query")),
    })
    return {
        "metrics": _with_units(values, LAYER_UNITS),
        "samples": {"traced_queries": len(traced_q),
                    "untraced_queries": len(untraced_q),
                    "checked_queries": len(pairs)},
        "untraceable": sorted(set(report["untraceable"]) | set(tracer.missing)),
        **_determinism(observed, report, final_state),
    }


def _with_units(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def _determinism(observed, report: dict, state: dict) -> dict:
    """What must repeat exactly for one seed and differ for another."""
    return {
        "answers_sha256": observed.answers.hexdigest(),
        "mpc.runtime.query_gates": report["query_gates"],
        "mpc.runtime.ingest_gates": report["ingest_gates"],
        "dp.realized_epsilon": state["realized_epsilon"],
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    with Run(name, seed, seconds, smoke) as run:
        result = run_traced(run) if trace else run_end_to_end(run)
        tally = run.tally
    result.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_failed_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
    })
    return result


def report_line(result: dict) -> str:
    """The contract's last line of standard output."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def print_result(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for key in ("samples", "answers_sha256", "mpc.runtime.query_gates",
                "mpc.runtime.ingest_gates", "dp.realized_epsilon",
                "ops_failed_ratio"):
        print(f"{key:40s} {result[key]}")
    for error in result["errors"]:
        print(f"FAILED: {error}")
    print(report_line(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, both passes, at 1/20 size")
    parser.add_argument("--out", type=Path, default=SCRATCH / "results.json",
                        help="results JSON (default: .bench_run/results.json)")
    parser.add_argument("--append", action="store_true",
                        help="add this run to --out instead of replacing it")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = (False, True) if args.smoke else (bool(args.trace),)

    document = {
        "fingerprint": stats.fingerprint(),
        "load_1min_at_start": os.getloadavg()[0],
        "runs": [],
    }
    if args.append and args.out.exists():
        with open(args.out, encoding="utf8") as fh:
            document["runs"] = json.load(fh)["runs"]
    ok = True
    for name in names:
        for trace in passes:
            result = run_one(name, args.seed, seconds, trace, args.smoke)
            print_result(result)
            document["runs"].append(result)
            ok = ok and result["correct"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf8") as fh:
        json.dump(document, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
