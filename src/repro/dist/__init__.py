"""The distributed scan fabric: shard-worker daemons + scan coordinator.

PR 6's process pool scales view scans to one host's cores; this package
scales them to a fleet.  A :class:`~repro.dist.worker.ShardWorker`
daemon (``python -m repro shard-worker --listen HOST:PORT``) hosts a
subset of every view's round-robin shards — share halves shipped over
the wire in the negotiated codec's array encoding — and answers ``scan``
frames with partial accumulators.  A
:class:`~repro.dist.coordinator.RemoteScanBackend` (the ``"remote"``
backend of :class:`~repro.query.parallel.ParallelScanExecutor`) keeps
persistent binary-codec connections to the fleet, streams appended
deltas using the same per-shard watermark discipline as
:mod:`repro.query.incremental`, scatters per-shard suffix-scan tasks,
and merges the partials by exact ring addition — answers, gate totals,
noise streams, and realized ε byte-identical to the in-process path.

Replication (factor ≥ 2) assigns every shard to several workers;
heartbeat-driven membership (:mod:`repro.dist.membership`) marks dead
workers and the coordinator re-scatters their in-flight scan tasks to
replicas mid-query, so a SIGKILLed worker costs latency, never
correctness.

Leakage: shard placement — which worker holds which rows — is a pure
function of the public append positions and the configured fleet, and
what crosses the wire is each server's XOR share half (ciphertext) plus
public lengths.  Distribution therefore leaks nothing beyond what the
single-host transcript already reveals; see ``docs/SHARDING.md``.
"""

from .coordinator import RemoteScanBackend
from .membership import WorkerEndpoint, parse_worker_endpoints
from .worker import ShardWorker

__all__ = [
    "RemoteScanBackend",
    "ShardWorker",
    "WorkerEndpoint",
    "parse_worker_endpoints",
]
