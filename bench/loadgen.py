"""The closed-loop load generator: server child handle and the four phases.

Owners and analysts of this system each wait for their reply, so the load
is a closed loop.  The host has 2 cores: the generator never uses more than
2 connections and 2 threads at a time.

* **A steady** — one thread; per step the owner uploads with ``wait=True``
  and the analyst then issues the step's queries, so exactly one request is
  in flight and a latency is a service time.
* **B query burst** — 2 analyst connections on 2 threads at the steady
  phase's watermark, no uploads, one round at a time (:class:`QueryBurst`).
* **D** — a ``snapshot`` round trip and a ``DatabaseServer.resume`` after
  every round of B (``run.py`` interleaves them).
* **C upload burst** — the rest of the stream through ``upload_many``, then
  ``stats`` polled until the watermark is reached and the queue is empty.

Nothing here turns a reading into a metric: every timed call is returned as
a :class:`Timing` and ``estimate.py`` reduces them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from repro import IncShrinkClient
from repro.net.protocol import RemoteError

from . import stats

HOST = "127.0.0.1"
#: Steps per ``upload_many`` call in the upload burst: one server-side
#: admission batch (``DatabaseServer.ingest_batch`` is 32).  A call that
#: spans several batches makes the reactor complete them microseconds
#: apart, and at this commit that races a lost wake-up in
#: ``net/server.py`` (``_EventLoop.run`` runs queued tasks before it drains
#: the wake pipe): about one such call in three then stalls for the loop's
#: 0.5 s poll timeout, which makes the rate bimodal.  See README.md.
PIPELINE_STEPS = 32
#: Host-speed kernel runs per placement before and after each timed call.
ROUND_SAMPLES = 4
#: Bursts the upload burst is cut into.
UPLOAD_BURSTS = 8
#: A child that says nothing for this long is considered hung.
CHILD_TIMEOUT_S = 120.0


class ServerChild:
    """One ``server_main.py`` process and its stdin/stdout line protocol."""

    def __init__(self, run_dir: Path, spec: dict) -> None:
        self.run_dir = run_dir
        with open(run_dir / "spec.pkl", "wb") as fh:
            pickle.dump(spec, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server_main.py")),
             str(run_dir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # Its own process group: on failure the scan workers it
            # spawned are killed with it.
            start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.port = int(self._expect("READY"))

    def _pump(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, head: str) -> str:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            line = None
        if line is None or not line.startswith(head):
            self.kill()
            raise RuntimeError(
                f"server child: expected {head!r}, got {line!r} "
                f"(exit code {self._proc.poll()})"
            )
        return line[len(head):].strip()

    def command(self, text: str) -> str:
        self._proc.stdin.write(text + "\n")
        self._proc.stdin.flush()
        return self._expect("OK")

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` so far."""
        return int(self.command("rss")) / 1024.0

    def stop(self) -> dict:
        """Graceful stop; returns the child's report (gate totals, ...)."""
        self._proc.stdin.write("stop\n")
        self._proc.stdin.flush()
        report = json.loads(self._expect("REPORT"))
        self._proc.stdin.close()
        if self._proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"server child exited with {self._proc.returncode}")
        return report

    def spans(self) -> list:
        with open(self.run_dir / "spans.json", encoding="ascii") as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self._proc.poll() is None:
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._proc.wait()


def connect(inputs, port: int, role: str) -> IncShrinkClient:
    return IncShrinkClient(
        HOST, port, name=role, **inputs.credentials.get(role, {})
    ).connect()


@dataclass
class Tally:
    """Operations attempted and failed over all phases."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)


@dataclass(frozen=True)
class Timing:
    """One timed call: as the clock read it, between two host-speed probes."""

    raw: float
    #: host slowdown factors just before and just after the call
    before: float
    after: float

    def series(self) -> list:
        """What the results JSON keeps (``estimate.py`` reads it back)."""
        return [self.raw, self.before, self.after]


class HostSpeed:
    """How fast this host runs a fixed CPU-bound kernel, right now.

    The reference host flips between a fast and a slow state (about 1.5×
    apart) every few hundred milliseconds to minutes: an idle machine runs
    the same pure-Python loop in 17 ms, then in 25 ms, and a steady-phase
    latency series shows whole stretches of steps 1.6× slower at different
    places in every run.  Ten raw runs of one commit spread 15–45 %.

    So the kernel below — small numpy calls, interpreter work and array
    passes, the system's own mix, about 2 ms — is run between steps, rounds
    and repeats, while the server is idle.  :meth:`now` is its time over
    :data:`REFERENCE_KERNEL_S`; ``estimate.py`` divides a reading by the
    mean of the factors just before and just after it, so a metric reads
    in seconds *at reference speed*.
    """

    #: the kernel's usual time on the reference host
    REFERENCE_KERNEL_S = 0.0020

    def __init__(self) -> None:
        self._array = np.arange(200_000, dtype=np.uint32)
        self._rows = np.arange(1_000, dtype=np.uint32).reshape(-1, 2)

    def now(self, samples: int = 1) -> float:
        """The slowdown factor (> 1 = slower than reference), median of
        ``samples`` kernel runs."""
        times = []
        for _ in range(samples):
            start = perf_counter()
            # Many small numpy calls (what the system's Python layers do
            # most, and what the slow state slows most), then an
            # interpreter loop and a few array passes.
            rows = self._rows
            np.vstack([np.concatenate([rows[j], rows[j + 1]]) for j in range(400)])
            total = 0
            for i in range(6_000):
                total += i * i
            for _ in range(3):
                (self._array ^ self._array).sum()
            times.append((perf_counter() - start) / self.REFERENCE_KERNEL_S)
        return stats.median(times)

    def both_cores(self) -> float:
        """The factor before or after a timed call: the mean of one reading
        where the scheduler has put this thread and one pinned on each core.

        The host's cores change speed independently, and a timed call's
        work — server threads, scan workers, this thread — runs on either.
        """
        allowed = os.sched_getaffinity(0)
        factors = [self.now(ROUND_SAMPLES)]
        try:
            for core in sorted(allowed):
                os.sched_setaffinity(0, {core})
                factors.append(self.now(ROUND_SAMPLES // 2))
            os.sched_setaffinity(0, allowed)
        except OSError:  # pinning not permitted here: the unpinned reading
            pass
        return sum(factors) / len(factors)

    def timed(self, fn):
        """Run ``fn()``; return ``(its result, Timing of the call)``."""
        before = self.both_cores()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        return result, Timing(raw, before, self.both_cores())


# -- phase A -------------------------------------------------------------------
@dataclass
class Steady:
    """What the steady phase observed."""

    #: ``(kind, start_ns, end_ns, traced, step)`` per request, in issue order
    requests: list = field(default_factory=list)
    #: host slowdown factor around each step (mean of before and after)
    step_factor: list = field(default_factory=list)
    answers: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    qet_seconds: list = field(default_factory=list)
    #: requests the server refused with an error frame
    refused: int = 0
    delta_rows: int = 0
    total_rows: int = 0

    def latencies_ms(self, kind: str, traced: bool | None = False) -> list:
        """Latencies of ``kind``; ``traced=None`` takes both tracing states."""
        return [
            (end - start) / 1e6
            for k, start, end, t, _step in self.requests
            if k == kind and traced in (None, t)
        ]

    def blocks(self, kind: str) -> list[tuple[bool, list]]:
        """Latencies of ``kind`` grouped into runs of equal tracing state."""
        out: list[tuple[bool, list]] = []
        previous = None
        for k, start, end, traced, _step in self.requests:
            if traced != previous:
                out.append((traced, []))
                previous = traced
            if k == kind:
                out[-1][1].append((end - start) / 1e6)
        return out


def steady(
    inputs, owner, analyst, tally: Tally, speed: HostSpeed, toggle=None
) -> Steady:
    """Phase A.  ``toggle(step_index)`` (traced pass only) switches the
    wrappers on or off between requests and returns whether they are on."""
    out = Steady()

    def one_step(i: int, traced: bool) -> None:
        step_time, items = inputs.steps[i]
        tally.attempted += 1
        start = perf_counter_ns()
        try:
            reply = owner.upload(step_time, items, wait=True)
        except (RemoteError, ConnectionError) as exc:
            out.refused += isinstance(exc, RemoteError)
            tally.fail(f"upload {step_time}: {exc}")
            return
        out.requests.append(("upload", start, perf_counter_ns(), traced, i))
        if not reply["drained"] or reply["applied_through"] != step_time:
            tally.fail(f"upload {step_time} not applied: {reply}")
        for query, epsilon in inputs.queries[i]:
            tally.attempted += 1
            start = perf_counter_ns()
            try:
                result = analyst.query(query, epsilon=epsilon)
            except (RemoteError, ConnectionError) as exc:
                out.refused += isinstance(exc, RemoteError)
                tally.fail(f"query at {step_time}: {exc}")
                continue
            out.requests.append(("query", start, perf_counter_ns(), traced, i))
            answers = result.answers
            out.answers.update(
                repr((answers.columns, answers.group_keys, answers.rows)).encode()
            )
            out.qet_seconds.append(result.qet_seconds)
            if result.scan_report is not None:
                out.delta_rows += result.scan_report["delta_rows"]
                out.total_rows += result.scan_report["total_rows"]

    before = speed.now()
    for i in range(inputs.steady_steps):
        one_step(i, toggle(i) if toggle is not None else False)
        after = speed.now()
        out.step_factor.append((before + after) / 2.0)
        before = after
    return out


# -- phase C -------------------------------------------------------------------
def _chunks(items: list, n: int) -> list[list]:
    n = max(1, min(n, len(items)))
    size, extra = divmod(len(items), n)
    out, at = [], 0
    for i in range(n):
        width = size + (1 if i < extra else 0)
        out.append(items[at:at + width])
        at += width
    return out


def _burst(owner, burst: list) -> None:
    """Pipeline one burst and wait until the server has applied it."""
    for at in range(0, len(burst), PIPELINE_STEPS):
        owner.upload_many(burst[at:at + PIPELINE_STEPS])
    last = burst[-1][0]
    while True:
        state = owner.stats()
        if state["ingest_error"]:
            raise RuntimeError(state["ingest_error"])
        if state["last_time"] >= last and state["queue_depth"] == 0:
            return
        # Every poll takes the server's GIL from the ingest thread; 5 ms
        # is 1-2 % of a burst.
        time.sleep(0.005)


def upload_burst(
    inputs, owner, tally: Tally, speed: HostSpeed, rounds: int = UPLOAD_BURSTS
) -> list[tuple[int, Timing]]:
    """Phase C: ``(steps, Timing)`` of each of ``rounds`` bursts.

    A burst is pipelined through ``upload_many`` in calls of at most
    :data:`PIPELINE_STEPS` steps, issued back to back while the ingest loop
    applies what is queued; it ends when ``stats`` shows the watermark
    reached and the queue empty.
    """
    remaining = inputs.steps[inputs.steady_steps:]
    tally.attempted += len(remaining)
    out = []
    for burst in _chunks(remaining, rounds):
        try:
            out.append((len(burst), speed.timed(lambda: _burst(owner, burst))[1]))
        except (RemoteError, ConnectionError, RuntimeError) as exc:
            tally.fail(f"upload burst ending at {burst[-1][0]}: {exc}")
            break
    return out


# -- phase B -------------------------------------------------------------------
class QueryBurst:
    """Phase B: ``n_clients`` analyst connections on as many threads, driven
    one round at a time.  A round is ``per_round`` queries per client at a
    fixed watermark, so every round is identical work."""

    def __init__(self, inputs, port: int, per_round: int, n_clients: int = 2) -> None:
        self.per_round = per_round
        self.rounds = 0
        self.failures: list = []
        self._clients = [connect(inputs, port, "analyst") for _ in range(n_clients)]
        self._barrier = threading.Barrier(n_clients + 1)
        self._closing = False
        self._threads = [
            threading.Thread(
                target=self._work,
                # Client k takes every n-th query, so ad-hoc clients never share one.
                args=(client, inputs.burst_queries[k::n_clients]),
                daemon=True,
            )
            for k, client in enumerate(self._clients)
        ]
        for thread in self._threads:
            thread.start()

    def _work(self, client, mine: list) -> None:
        at = 0
        while True:
            self._barrier.wait()
            if self._closing:
                return
            for _ in range(self.per_round):
                query, epsilon = mine[at % len(mine)]
                at += 1
                try:
                    client.query(query, epsilon=epsilon)
                except (RemoteError, ConnectionError) as exc:
                    self.failures.append(f"burst query: {exc}")
            self._barrier.wait()

    @property
    def queries_per_round(self) -> int:
        return len(self._clients) * self.per_round

    def round(self) -> None:
        self._barrier.wait()  # releases the clients
        self._barrier.wait()  # all of them are done
        self.rounds += 1

    def close(self, tally: Tally) -> None:
        self._closing = True
        self._barrier.wait()
        for thread in self._threads:
            thread.join()
        for client in self._clients:
            client.close()
        tally.attempted += self.queries_per_round * self.rounds
        for failure in self.failures:
            tally.fail(failure)
