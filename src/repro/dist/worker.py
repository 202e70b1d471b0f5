"""The shard-worker daemon: hosts shard share halves, answers scans.

One :class:`ShardWorker` is one member of the distributed scan fleet.
It speaks the same framed wire protocol as the analyst front door —
``hello``/``welcome`` handshake with codec negotiation, then the
distributed frames (:data:`repro.net.protocol.DIST_FRAMES`):

* ``shard_assign`` — (re)bootstrap one shard of one view: the four
  share arrays (rows/flags × share half) in the negotiated codec's
  array encoding, plus the container's append epoch.  Assign replaces;
  replica bootstrap and post-reshard hand-off both ride this frame.
* ``shard_append`` — the delta rows appended to one shard since the
  coordinator's per-worker watermark.  Appends carry the expected
  current length, so a gap (lost frame, stale worker) is detected and
  rejected rather than silently mis-merged.
* ``scan`` — a batch of per-shard suffix-scan tasks for one view (plan
  scalars + the coordinator's cost model), answered by one
  ``scan_partial`` carrying each shard's ``(counts, sums, gates)``.
  The kernel is :func:`repro.query.shard_workers.scan_share_suffix` —
  the *same function* the shared-memory process backend runs, so
  partial accumulators are byte-identical by construction.
* ``heartbeat`` — liveness probe, answered with the worker's gauges
  (hosted shard replicas, scans served, uptime).

The daemon is deliberately simple: a blocking accept loop plus one
thread per connection (a coordinator holds one persistent connection;
fleets are small).  All hosted state is ciphertext — XOR share halves —
plus public lengths; a worker never holds both halves' *secrets* in the
sense of the simulation either way, exactly like the in-process
backends (see ``docs/SHARDING.md`` on why distribution adds no
leakage).

Test hook: ``REPRO_DIST_SCAN_STALL_MS`` in the daemon's environment
makes every scan sleep before answering — the failover suite uses it to
SIGKILL a worker while its scan is provably in flight.
"""

from __future__ import annotations

import hmac
import os
import socket
import threading
import time as _time

import numpy as np

from ..net import protocol as wire

#: Rows per assign/append frame: bounds one frame's body well under the
#: 64 MiB ceiling for any plausible row width (chunk of 2^18 rows at
#: width 32 is ~2·32·4·2^18 = 64 MiB of shares only at width >= 32;
#: realistic view widths are < 10, i.e. ~17 MiB).
SHARD_CHUNK_ROWS = 262_144


def _token_matches(expected: str, offered: object) -> bool:
    """Constant-time fleet-token check (wrong type/size never matches)."""
    if not isinstance(offered, str) or len(offered.encode("utf8")) > 1024:
        return False
    return hmac.compare_digest(
        expected.encode("utf8"), offered.encode("utf8")
    )


class _HostedShard:
    """One shard replica's share halves plus its append epoch."""

    __slots__ = ("epoch", "rows0", "rows1", "flags0", "flags1")

    def __init__(
        self,
        epoch: int,
        rows0: np.ndarray,
        rows1: np.ndarray,
        flags0: np.ndarray,
        flags1: np.ndarray,
    ) -> None:
        self.epoch = epoch
        self.rows0 = rows0
        self.rows1 = rows1
        self.flags0 = flags0
        self.flags1 = flags1

    def __len__(self) -> int:
        return len(self.rows0)

    def append(
        self,
        rows0: np.ndarray,
        rows1: np.ndarray,
        flags0: np.ndarray,
        flags1: np.ndarray,
    ) -> None:
        self.rows0 = np.concatenate([self.rows0, rows0])
        self.rows1 = np.concatenate([self.rows1, rows1])
        self.flags0 = np.concatenate([self.flags0, flags0])
        self.flags1 = np.concatenate([self.flags1, flags1])


class ShardWorker:
    """One shard-serving daemon: accept loop + per-connection threads."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        token: str | None = None,
    ) -> None:
        self.name = name or f"shard-worker-{os.getpid()}"
        #: pre-shared fleet token; when set, every connection must open
        #: with a hello carrying it (the coordinator reuses the tenant
        #: handshake) before any shard frame is served
        self.token = token
        self._listen_addr = (host, port)
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = False
        #: hosted shard replicas, keyed ``(view_key, shard_index)``
        self._shards: dict[tuple[str, int], _HostedShard] = {}
        self._scans_served = 0
        self._started_at = _time.monotonic()

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._sock is None:
            raise RuntimeError("worker is not started")
        return self._sock.getsockname()[:2]

    def start(self) -> "ShardWorker":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self._listen_addr)
        sock.listen(32)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every live connection (abrupt)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            conns = list(self._conns)
        # shutdown() first, the listener included: close() from this
        # thread does not wake an accept()/recv() parked in another on
        # Linux, shutdown() does.
        socks = conns if self._sock is None else [self._sock, *conns]
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for t in list(self._conn_threads):
            t.join(timeout=5.0)

    def serve_forever(self) -> None:  # pragma: no cover - CLI path
        """Block until interrupted (the daemon entry point)."""
        try:
            while not self._closing:
                _time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ShardWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- gauges ------------------------------------------------------------
    def gauges(self) -> dict:
        with self._lock:
            return {
                "worker": self.name,
                "hosted_shards": len(self._shards),
                "hosted_rows": sum(len(s) for s in self._shards.values()),
                "scans_served": self._scans_served,
                "uptime_seconds": _time.monotonic() - self._started_at,
            }

    # -- the accept / connection loops -------------------------------------
    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self.name}-conn",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        codec = wire.CODEC_JSON
        authed = self.token is None
        try:
            while True:
                try:
                    frame_type, payload = wire.read_frame(stream)
                except (wire.ConnectionClosed, OSError, ValueError):
                    return
                except wire.WireError:
                    return  # framing is unrecoverable; drop the stream
                try:
                    if not authed and frame_type != "hello":
                        # Token-protected fleet: one structured error,
                        # then hang up (never serve shard state to an
                        # unauthenticated peer).
                        wire.write_frame(
                            stream,
                            "error",
                            wire.error_payload(
                                wire.ERR_AUTH_FAILED,
                                "this worker requires a credentialed hello",
                            ),
                            codec=codec,
                        )
                        return
                    if frame_type == "hello":
                        if self.token is not None and not _token_matches(
                            self.token, payload.get("token")
                        ):
                            wire.write_frame(
                                stream,
                                "error",
                                wire.error_payload(
                                    wire.ERR_AUTH_FAILED,
                                    f"authentication failed for worker "
                                    f"{self.name!r}",
                                ),
                                codec=wire.CODEC_JSON,
                            )
                            return
                        authed = True
                        codec = wire.negotiate_codec(payload.get("codecs"))
                        wire.write_frame(
                            stream,
                            "welcome",
                            {
                                "role": "shard-worker",
                                "worker": self.name,
                                "codec": codec,
                                "protocol": list(wire.SUPPORTED_VERSIONS),
                            },
                            codec=wire.CODEC_JSON,
                        )
                    elif frame_type == "shard_assign":
                        wire.write_frame(
                            stream, "shard_ok", self._assign(payload), codec=codec
                        )
                    elif frame_type == "shard_append":
                        wire.write_frame(
                            stream, "shard_ok", self._append(payload), codec=codec
                        )
                    elif frame_type == "scan":
                        wire.write_frame(
                            stream,
                            "scan_partial",
                            self._scan(payload, codec),
                            codec=codec,
                        )
                    elif frame_type == "heartbeat":
                        wire.write_frame(
                            stream, "heartbeat_ok", self.gauges(), codec=codec
                        )
                    elif frame_type == "bye":
                        wire.write_frame(stream, "bye", {}, codec=codec)
                        return
                    else:
                        wire.write_frame(
                            stream,
                            "error",
                            wire.error_payload(
                                wire.ERR_UNSUPPORTED,
                                f"shard workers do not serve {frame_type!r} "
                                "frames",
                            ),
                            codec=codec,
                        )
                except wire.WireError as exc:
                    # A malformed *payload* is answered, not fatal.
                    try:
                        wire.write_frame(
                            stream,
                            "error",
                            wire.error_payload(
                                wire.ERR_INVALID_REQUEST, str(exc)
                            ),
                            codec=codec,
                        )
                    except (OSError, ValueError):
                        return
                except (OSError, ValueError):
                    # Peer (or our own stop()) closed the socket while a
                    # response was being written — just drop the stream.
                    return
        finally:
            try:
                stream.close()
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)

    # -- frame handlers ----------------------------------------------------
    @staticmethod
    def _shard_key(payload: dict) -> tuple[str, int]:
        try:
            return str(payload["view"]), int(payload["shard"])
        except (KeyError, TypeError, ValueError) as exc:
            raise wire.WireError(
                f"malformed shard reference: {exc!r}"
            ) from exc

    def _assign(self, payload: dict) -> dict:
        key = self._shard_key(payload)
        try:
            epoch = int(payload["epoch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise wire.WireError(f"malformed assign epoch: {exc!r}") from exc
        rows0, rows1, flags0, flags1 = wire.decode_shard_content(payload)
        with self._lock:
            self._shards[key] = _HostedShard(epoch, rows0, rows1, flags0, flags1)
            rows = len(self._shards[key])
        return {"view": key[0], "shard": key[1], "rows": rows, "epoch": epoch}

    def _append(self, payload: dict) -> dict:
        key = self._shard_key(payload)
        try:
            epoch = int(payload["epoch"])
            expected_start = int(payload["start"])
        except (KeyError, TypeError, ValueError) as exc:
            raise wire.WireError(f"malformed append header: {exc!r}") from exc
        rows0, rows1, flags0, flags1 = wire.decode_shard_content(payload)
        with self._lock:
            hosted = self._shards.get(key)
            if hosted is None or hosted.epoch != epoch:
                raise wire.WireError(
                    f"append to unassigned/stale shard {key} (epoch "
                    f"{epoch}, hosted "
                    f"{None if hosted is None else hosted.epoch}); "
                    "re-assign first"
                )
            if len(hosted) != expected_start:
                # A gap would silently corrupt the merge — refuse it.
                raise wire.WireError(
                    f"append gap on shard {key}: worker holds "
                    f"{len(hosted)} rows, append starts at {expected_start}"
                )
            hosted.append(rows0, rows1, flags0, flags1)
            rows = len(hosted)
        return {"view": key[0], "shard": key[1], "rows": rows, "epoch": epoch}

    def _scan(self, payload: dict, codec: str) -> dict:
        from ..query.shard_workers import scan_share_suffix

        try:
            view = str(payload["view"])
            epoch = int(payload["epoch"])
            tasks = payload["tasks"]
            if not isinstance(tasks, list):
                raise TypeError("tasks must be a list")
        except (KeyError, TypeError, ValueError) as exc:
            raise wire.WireError(f"malformed scan header: {exc!r}") from exc
        spec = wire.decode_scan_spec(payload.get("spec", {}))
        cost_model = wire.decode_cost_model(payload.get("cost_model", {}))
        stall_ms = int(os.environ.get("REPRO_DIST_SCAN_STALL_MS", "0"))
        if stall_ms:  # failover-test hook: keep the scan in flight
            _time.sleep(stall_ms / 1000.0)
        parts = []
        for task in tasks:
            try:
                shard = int(task["shard"])
                expected_rows = int(task["rows"])
                start = int(task["start"])
            except (KeyError, TypeError, ValueError) as exc:
                raise wire.WireError(f"malformed scan task: {exc!r}") from exc
            with self._lock:
                hosted = self._shards.get((view, shard))
            if hosted is None or hosted.epoch != epoch:
                raise wire.WireError(
                    f"scan of unassigned/stale shard ({view!r}, {shard}) "
                    f"(epoch {epoch}, hosted "
                    f"{None if hosted is None else hosted.epoch})"
                )
            if len(hosted) != expected_rows or not 0 <= start <= expected_rows:
                raise wire.WireError(
                    f"scan row mismatch on shard ({view!r}, {shard}): worker "
                    f"holds {len(hosted)} rows, coordinator expects "
                    f"{expected_rows} (start {start})"
                )
            counts, sums, gates = scan_share_suffix(
                hosted.rows0[start:],
                hosted.rows1[start:],
                hosted.flags0[start:],
                hosted.flags1[start:],
                spec["sum_indices"],
                spec["need_count"],
                spec["group_column"],
                spec["group_domain"],
                spec["clause_specs"],
                spec["payload_words"],
                spec["predicate_words"],
                cost_model,
            )
            parts.append(
                wire.encode_scan_partial(
                    shard, counts, sums, gates,
                    binary=codec == wire.CODEC_BINARY,
                )
            )
        with self._lock:
            self._scans_served += len(parts)
        return {"view": view, "epoch": epoch, "parts": parts}
