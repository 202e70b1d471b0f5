"""The read-only operations listener: Prometheus metrics over HTTP.

A production deployment watches the serving fabric from *outside* the
wire protocol — a scraper must never compete with analysts for request
permits, speak the frame codec, or hold a tenant credential.  So the
metrics surface is its own tiny HTTP listener (:class:`MetricsServer`,
``--metrics-port``) exposing two GET endpoints:

* ``/metrics`` — the `Prometheus text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
  (version 0.0.4): the runtime's :class:`~repro.server.runtime.
  ServingStats` gauges, the global and per-tenant privacy-ledger state,
  per-tenant quota gauges and rejection counters, and the incremental
  accumulator-cache counters;
* ``/healthz`` — ``ok`` (200) while ingestion is healthy, a
  one-line description of the deferred failure (503) once it poisons.

Rendering is split out as :func:`render_metrics` over plain dicts so
tests exercise the exposition format without sockets.  The listener is
**read-only by construction**: it answers GET (anything else is 405),
mutates nothing, and authenticates nobody — bind it to a loopback or
otherwise-trusted interface; per-tenant ε *totals* are operational data
but still name your tenants.
"""

from __future__ import annotations

import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Content-Type of the text exposition format, version 0.0.4.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a connection may sit without delivering its request before the
#: listener hangs up.  The peers are unauthenticated, so without it one
#: that sends half a request line holds a handler thread and an fd until
#: *it* chooses to leave.
REQUEST_READ_TIMEOUT = 5.0

#: ``ServingStats.to_dict()`` scalars exported 1:1 (name, help).
_STAT_SCALARS = (
    ("uploads", "Upload steps applied by the ingestion loop"),
    ("steps", "Engine steps executed"),
    ("queries", "Queries served"),
    ("ingest_seconds", "Total seconds spent applying uploads"),
    ("query_seconds", "Total seconds spent executing queries"),
    ("snapshots", "Snapshots written"),
    ("last_snapshot_seconds", "Duration of the most recent snapshot"),
    ("last_snapshot_bytes", "Bytes the most recent snapshot wrote"),
    ("snapshot_segments", "Segments on top of the checkpoint's base"),
    ("queue_depth", "Submitted-but-unapplied steps in the ingest queue"),
    ("queue_capacity", "Bound of the ingest queue"),
    ("query_epsilon", "Total epsilon spent by noisy query releases"),
    ("plan_cache_hit_rate", "Fraction of planner calls served from cache"),
)


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _number(value: object) -> str:
    """One sample value in exposition syntax (bools are 0/1, and an
    uncapped ε budget is ``+Inf``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    try:
        f = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "0"
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class _Lines:
    """Accumulates samples, emitting each # HELP/# TYPE header once."""

    def __init__(self) -> None:
        self._out: list[str] = []
        self._declared: set[str] = set()

    def sample(
        self,
        name: str,
        value: object,
        help_text: str,
        labels: dict | None = None,
        kind: str = "gauge",
    ) -> None:
        if name not in self._declared:
            self._declared.add(name)
            self._out.append(f"# HELP {name} {help_text}")
            self._out.append(f"# TYPE {name} {kind}")
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
            )
            self._out.append(f"{name}{{{rendered}}} {_number(value)}")
        else:
            self._out.append(f"{name} {_number(value)}")

    def text(self) -> str:
        return "\n".join(self._out) + "\n"


def render_metrics(observability: dict, tenants: dict | None = None) -> str:
    """Render one scrape from the runtime's observability payload.

    ``observability`` is :meth:`~repro.server.runtime.DatabaseServer.
    observability`'s dict; ``tenants`` is :meth:`~repro.net.server.
    NetworkServer.tenancy_stats`'s (per-tenant gauges merged with the
    ledger summary).  Pure function of its inputs.
    """
    lines = _Lines()
    prefix = "incshrink_"
    for key, help_text in _STAT_SCALARS:
        if key in observability:
            lines.sample(prefix + key, observability[key], help_text)
    for key, help_text in (
        ("last_time", "Applied stream watermark (step number)"),
        ("n_shards", "Shards per materialized view"),
        ("realized_epsilon", "Composed end-to-end epsilon (Theorem 3)"),
    ):
        if key in observability:
            lines.sample(prefix + key, observability[key], help_text)
    lines.sample(
        prefix + "ingest_healthy",
        observability.get("ingest_error") is None,
        "1 while the background ingestion loop is healthy",
    )
    for name, rows in (observability.get("shard_rows") or {}).items():
        for shard, n_rows in enumerate(rows):
            lines.sample(
                prefix + "view_shard_rows",
                n_rows,
                "Rows per view shard",
                labels={"view": name, "shard": shard},
            )
    for family, stem, help_text in (
        ("incremental_cache", "accumulator_cache_",
         "Incremental accumulator-cache counter"),
        ("logical_mirror", "logical_mirror_",
         "Ground-truth join mirror gauge (upload/query counts only)"),
    ):
        for key, value in (observability.get(family) or {}).items():
            if isinstance(value, (int, float, bool)):
                lines.sample(prefix + stem + str(key), value, help_text)
    for reason, count in (observability.get("query_handoffs") or {}).items():
        lines.sample(
            prefix + "query_handoffs_total",
            count,
            "Query frames an event loop handed to the executor lane",
            labels={"reason": reason},
            kind="counter",
        )
    for tid, entry in (tenants or {}).items():
        labels = {"tenant": tid}
        role = entry.get("role")
        if role is not None:
            labels["role"] = role
        for key, help_text in (
            ("epsilon_spent", "Epsilon spent from this tenant's ledger"),
            ("epsilon_budget", "This tenant's ledger cap"),
            ("epsilon_remaining", "Headroom left in this tenant's ledger"),
        ):
            value = entry.get(key)
            if value is not None:
                lines.sample(
                    prefix + "tenant_" + key, value, help_text, labels=labels
                )
        for key, help_text in (
            ("connections", "Open connections held by this tenant"),
            ("inflight", "Requests of this tenant executing right now"),
        ):
            if key in entry:
                lines.sample(
                    prefix + "tenant_" + key,
                    entry[key],
                    help_text,
                    labels=labels,
                )
        for reason, count in (entry.get("rejections") or {}).items():
            lines.sample(
                prefix + "tenant_rejections_total",
                count,
                "Structured quota/role rejections answered to this tenant",
                labels={**labels, "reason": reason},
                kind="counter",
            )
    return lines.text()


class MetricsServer:
    """Serve ``/metrics`` and ``/healthz`` for one network front door.

    Wraps a :class:`http.server.ThreadingHTTPServer` on its own daemon
    thread; scrapes read the runtime's observability surface under its
    read lock, so a scrape is as cheap as a ``stats`` frame and never
    holds an in-flight permit.  Both are O(views + tenants): realized ε
    and every tenant's ledger are answered from running totals, not
    from a walk over the records uploaded or the releases made, so the
    read lock is held for microseconds however long the stream has run.
    """

    def __init__(
        self, net, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.net = net
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            timeout = REQUEST_READ_TIMEOUT

            # Scrapers poll; the default stderr access log is noise.
            def log_message(self, fmt: str, *args: object) -> None:
                pass

            def _respond(
                self, status: int, body: str, content_type: str
            ) -> None:
                payload = body.encode("utf8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    if self.path.split("?", 1)[0] == "/metrics":
                        body = render_metrics(
                            outer.net.server.observability(),
                            outer.net.tenancy_stats(),
                        )
                        self._respond(200, body, METRICS_CONTENT_TYPE)
                    elif self.path.split("?", 1)[0] == "/healthz":
                        error = outer.net.server.ingest_error
                        if error is None:
                            self._respond(200, "ok\n", "text/plain")
                        else:
                            self._respond(
                                503, f"ingest halted: {error}\n", "text/plain"
                            )
                    else:
                        self._respond(404, "not found\n", "text/plain")
                except BrokenPipeError:
                    pass  # scraper hung up mid-response
                except Exception as exc:
                    # A scrape must never crash the listener thread.
                    try:
                        self._respond(500, f"{exc}\n", "text/plain")
                    except OSError:
                        pass

            def do_POST(self) -> None:  # noqa: N802
                self._respond(405, "read-only listener\n", "text/plain")

            do_PUT = do_DELETE = do_PATCH = do_POST  # noqa: N815

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemera)."""
        addr = self._httpd.server_address
        return addr[0], addr[1]

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="incshrink-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
