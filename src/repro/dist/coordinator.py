"""The scan coordinator: replicated shard sync, scatter, and failover.

:class:`RemoteScanBackend` is the ``backend="remote"`` implementation
behind :class:`~repro.query.parallel.ParallelScanExecutor`.  Per query
it does three things, in order:

1. **Sync.**  Every shard of the scanned view is brought current on
   every replica that hosts it.  The discipline is exactly the per-shard
   watermark machinery of :mod:`repro.query.incremental`, lifted onto
   the wire: within one ``append_epoch`` a shard's row sequence is a
   strict prefix of its later self, so the coordinator streams only the
   suffix past each worker's watermark (``shard_append``); an epoch
   change (reshard, restore) or a worker reconnect voids the watermark
   and re-bootstraps with ``shard_assign`` (share halves in the
   negotiated codec's array encoding).  Replicas are synced *before* the scatter,
   so failover always lands on a warm replica.
2. **Scatter.**  Each delta-bearing shard's suffix-scan task goes to the
   first live, synced replica in its placement ring; tasks sharing a
   worker batch into one ``scan`` frame carrying the plan scalars and
   the coordinator's exact :class:`~repro.mpc.cost_model.CostModel`.
   Workers run :func:`repro.query.shard_workers.scan_share_suffix` —
   the same kernel as the in-process backends — so every partial
   accumulator and gate total is byte-identical by construction.
3. **Failover.**  A worker that dies mid-query (connection drop,
   timeout, SIGKILL) fails its whole batch; those tasks re-scatter to
   the next live synced replica and the per-worker re-scatter gauge
   increments.  Only when a shard has no live synced replica left does
   the query error.

Placement is the public ring ``shard i → workers (i + r) mod W`` for
``r < replication`` — a pure function of the public shard count and the
configured fleet, independent of any secret, so distribution leaks
nothing beyond the single-host transcript (``docs/SHARDING.md``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError
from ..net import protocol as wire
from ..storage.materialized_view import MaterializedView
from .membership import MembershipTracker, WorkerEndpoint, WorkerLink
from .worker import SHARD_CHUNK_ROWS


def view_wire_key(view: MaterializedView) -> str:
    """The stable wire name of a view's shard container."""
    return f"v{view.container_uid}"


class RemoteScanBackend:
    """Scatter/merge client over a fleet of shard-worker daemons."""

    def __init__(
        self,
        endpoints: list[WorkerEndpoint],
        replication: int = 2,
        timeout: float = 30.0,
        heartbeat_interval: float = 1.0,
        token: str | None = None,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("remote backend needs >= 1 worker")
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, got {replication}"
            )
        self.links = [
            WorkerLink(ep, timeout=timeout, token=token) for ep in endpoints
        ]
        #: effective factor — never more copies than workers
        self.replication = min(int(replication), len(self.links))
        self.total_rescatters = 0
        self._sync_lock = threading.Lock()
        #: per link: ``(view_key, shard) -> (generation, epoch, rows_sent)``
        self._sync: dict[WorkerLink, dict[tuple[str, int], tuple[int, int, int]]] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.links)),
            thread_name_prefix="dist-scatter",
        )
        self._tracker = MembershipTracker(
            self.links,
            heartbeat_interval=heartbeat_interval,
            on_revive=self._on_revive,
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "RemoteScanBackend":
        """Dial the fleet; requires at least one live worker."""
        if self._started:
            return self
        for link in self.links:
            try:
                link.connect()
            except (OSError, ConnectionError, ProtocolError, wire.WireError):
                pass  # the tracker keeps redialing
        if not any(link.alive for link in self.links):
            self.close()
            raise ProtocolError(
                "no shard worker reachable at "
                + ", ".join(l.endpoint.name for l in self.links)
            )
        self._tracker.start()
        self._started = True
        return self

    def close(self) -> None:
        self._tracker.stop()
        for link in self.links:
            if link.alive:
                try:
                    link.exchange("bye", {}, expect="bye")
                except (ConnectionError, wire.RemoteError):
                    pass
            link.disconnect()
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "RemoteScanBackend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _on_revive(self, link: WorkerLink) -> None:
        # A reconnected daemon may have restarted and lost its shards;
        # dropping its watermarks forces a fresh v2-snapshot bootstrap.
        with self._sync_lock:
            self._sync.pop(link, None)
        link.assigned_shards = 0

    # -- observability -----------------------------------------------------
    def worker_stats(self) -> dict:
        """Per-worker gauges (the ``ServingStats.workers`` surface)."""
        return {link.endpoint.name: link.gauge_dict() for link in self.links}

    # -- placement ---------------------------------------------------------
    def replica_links(self, shard: int) -> list[WorkerLink]:
        """The placement ring of ``shard``: public, secret-independent."""
        n = len(self.links)
        return [self.links[(shard + r) % n] for r in range(self.replication)]

    # -- sync --------------------------------------------------------------
    def _sync_shard(
        self,
        link: WorkerLink,
        view_key: str,
        epoch: int,
        shard: int,
        table,
    ) -> None:
        """Bring one replica of one shard current (assign or append)."""
        n = len(table)
        key = (view_key, shard)
        with self._sync_lock:
            state = self._sync.get(link, {}).get(key)
        sent: int | None = None
        if (
            state is not None
            and state[0] == link.generation
            and state[1] == epoch
        ):
            sent = state[2]
        binary = link.codec == wire.CODEC_BINARY
        rows0, rows1 = table.rows.share0, table.rows.share1
        flags0, flags1 = table.flags.share0, table.flags.share1

        def chunk(frame: str, lo: int, hi: int) -> None:
            payload = {"view": view_key, "shard": shard, "epoch": epoch}
            if frame == "shard_append":
                payload["start"] = lo
            payload.update(
                wire.encode_shard_content(
                    rows0[lo:hi],
                    rows1[lo:hi],
                    flags0[lo:hi],
                    flags1[lo:hi],
                    binary=binary,
                )
            )
            link.exchange(frame, payload, expect="shard_ok")

        try:
            if sent is None:
                end = min(n, SHARD_CHUNK_ROWS)
                chunk("shard_assign", 0, end)
                sent = end
            while sent < n:
                end = min(n, sent + SHARD_CHUNK_ROWS)
                chunk("shard_append", sent, end)
                sent = end
        except wire.RemoteError:
            # The worker refused (e.g. an append gap after a half-lost
            # sync): void the watermark and re-bootstrap once.
            with self._sync_lock:
                self._sync.get(link, {}).pop(key, None)
            end = min(n, SHARD_CHUNK_ROWS)
            chunk("shard_assign", 0, end)
            sent = end
            while sent < n:
                end = min(n, sent + SHARD_CHUNK_ROWS)
                chunk("shard_append", sent, end)
                sent = end
        with self._sync_lock:
            per_link = self._sync.setdefault(link, {})
            per_link[key] = (link.generation, epoch, n)
            link.assigned_shards = len(per_link)

    def _sync_view(
        self, view: MaterializedView
    ) -> tuple[str, int, dict[WorkerLink, set[int]]]:
        """Sync every replica of every shard; returns who is warm."""
        view_key = view_wire_key(view)
        epoch = view.append_epoch
        shards = view.shards
        plan: dict[WorkerLink, list[int]] = {}
        for i in range(len(shards)):
            for link in self.replica_links(i):
                if link.alive:
                    plan.setdefault(link, []).append(i)

        def sync_worker(link: WorkerLink, shard_ids: list[int]) -> set[int]:
            warm: set[int] = set()
            for s in shard_ids:
                try:
                    self._sync_shard(link, view_key, epoch, s, shards[s])
                except (ConnectionError, wire.RemoteError, wire.WireError):
                    # Dead or refusing worker: the shards it missed
                    # simply are not warm on it this query.
                    break
                warm.add(s)
            return warm

        futures = {
            link: self._pool.submit(sync_worker, link, shard_ids)
            for link, shard_ids in plan.items()
        }
        synced = {link: fut.result() for link, fut in futures.items()}
        if not any(synced.values()) and len(shards):
            raise ProtocolError(
                f"no live worker accepted shards of view {view_key!r}"
            )
        return view_key, epoch, synced

    # -- scatter / gather --------------------------------------------------
    def scan(
        self,
        view: MaterializedView,
        spec: dict,
        cost_model,
        tasks: list[tuple[int, int, int]],
    ) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
        """Run ``tasks`` (``(shard, rows, start)`` triples) on the fleet.

        Returns ``shard -> (counts, sums, gates)`` — the same partials
        the shared-memory process backend produces, because the workers
        run the same kernel under the same cost model.  Survives any
        worker death that leaves each shard one live synced replica.
        """
        if not self._started:
            self.start()
        view_key, epoch, synced = self._sync_view(view)
        cost_payload = wire.encode_cost_model(cost_model)
        results: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        pending = list(tasks)
        attempted: dict[int, set[WorkerLink]] = {}
        while pending:
            batches: dict[WorkerLink, list[tuple[int, int, int]]] = {}
            for task in pending:
                shard = task[0]
                target = None
                for link in self.replica_links(shard):
                    if (
                        link.alive
                        and shard in synced.get(link, ())
                        and link not in attempted.get(shard, ())
                    ):
                        target = link
                        break
                if target is None:
                    raise ProtocolError(
                        f"shard {shard} of view {view_key!r} has no live "
                        "synced replica left to scan"
                    )
                attempted.setdefault(shard, set()).add(target)
                batches.setdefault(target, []).append(task)

            def dispatch(
                link: WorkerLink, batch: list[tuple[int, int, int]]
            ) -> list[tuple[int, np.ndarray, np.ndarray, int]]:
                payload = {
                    "view": view_key,
                    "epoch": epoch,
                    "spec": spec,
                    "cost_model": cost_payload,
                    "tasks": [
                        {"shard": s, "rows": r, "start": st}
                        for s, r, st in batch
                    ],
                }
                response = link.exchange("scan", payload, expect="scan_partial")
                parts = response.get("parts")
                if not isinstance(parts, list) or len(parts) != len(batch):
                    raise ProtocolError(
                        f"worker {link.endpoint.name} answered "
                        f"{0 if not isinstance(parts, list) else len(parts)} "
                        f"partials for {len(batch)} tasks"
                    )
                return [wire.decode_scan_partial(p) for p in parts]

            futures = [
                (link, batch, self._pool.submit(dispatch, link, batch))
                for link, batch in batches.items()
            ]
            pending = []
            for link, batch, fut in futures:
                try:
                    parts = fut.result()
                except (ConnectionError, wire.RemoteError, wire.WireError):
                    # Mid-query failover: the whole batch re-scatters to
                    # the next replica in each shard's ring.
                    link.mark_dead()
                    link.rescatters += len(batch)
                    self.total_rescatters += len(batch)
                    pending.extend(batch)
                    continue
                # Eager gauge bump; the next heartbeat overwrites it
                # with the worker's own (identical) count.
                link.scans_served += len(batch)
                for shard, counts, sums, gates in parts:
                    results[shard] = (counts, sums, gates)
        return results
