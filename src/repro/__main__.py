"""Command-line entry point: reproduce any experiment from a terminal.

Usage::

    python -m repro table2
    python -m repro figure5 --dataset cpdb --steps 160
    python -m repro figure8 --steps 120
    python -m repro run --dataset tpcds --mode dp-ant --epsilon 0.5
    python -m repro multiview --dataset tpcds --steps 96 --epsilon 3.0 --shards 4
    python -m repro serve --steps 48 --snapshot deploy.snap --clients 2 --shards 4
    python -m repro serve --steps 24 --listen 127.0.0.1:9731
    python -m repro client --connect 127.0.0.1:9731 --stats
    python -m repro client --connect 127.0.0.1:9731 --count --epsilon 0.5
    python -m repro resume --snapshot deploy.snap
    python -m repro query --steps 24 --count --sum Returns:return_date \
        --group-by Sales:product_id:0,1,2,3
    python -m repro query --snapshot deploy.snap --json '{"aggregates": \
        [{"kind": "count"}, {"kind": "avg", "table": "Returns", \
        "column": "return_date"}]}'

``run`` executes a single deployment and prints its summary;
``multiview`` runs one multi-view database (three views over the shared
base-table pair, planner-routed COUNT/SUM queries, composed privacy);
``serve`` runs the same deployment through the concurrent serving
runtime (one ordered ingest backlog, parallel read sessions, periodic
snapshots) — with ``--listen`` it exposes the database over TCP (the
wire protocol of :mod:`repro.net`) instead of running local client
threads, and ``client`` connects to such a server to query it, fetch
its observability surface, checkpoint, or reshard it remotely;
``resume`` restores a snapshotted deployment and
continues its stream from where it stopped; ``query`` compiles one
logical query (flag- or JSON-specified aggregates, GROUP BY, residual
predicate) and runs it against a freshly built deployment or a restored
snapshot; the named experiments print the corresponding paper
table/figure.

A value the library rejects (a ``ConfigurationError``) ends the command
with its one-line message and exit status 1, never a traceback.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import threading
import time as _time
from dataclasses import asdict
from pathlib import Path

# Each subcommand imports its own machinery when it runs: parsing the
# arguments (and ``--help``) loads nothing of ``repro`` but the errors.
from .common.errors import (
    ConfigurationError,
    PersistenceError,
    SchemaError,
)

#: The experiments that take ``--dataset``: their module names.
_BOTH_DATASET_EXPERIMENTS = ("figure5", "figure6", "figure7", "figure9")


# -- user-input validation (clear one-line errors, nonzero exit) --------------
def _parse_listen(value: str, flag: str = "--listen") -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; port 0 = OS-assigned."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise SystemExit(
            f"malformed {flag} {value!r}; expected HOST:PORT "
            "(e.g. 127.0.0.1:9731)"
        )
    port = int(port_text)
    if port > 65535:
        raise SystemExit(f"{flag} port {port} is out of range 0-65535")
    return host, port


def _add_scan_backend_flag(parser) -> None:
    parser.add_argument(
        "--scan-backend", choices=["auto", "thread", "process"],
        default="auto", dest="scan_backend",
        help="where view scans run: auto and thread scan in-process, "
        "large scans over the calling thread and a helper thread; "
        "process forces the shared-memory worker pool, which auto never "
        "selects (answers and gate totals are identical either way)",
    )


def _add_incremental_flag(parser) -> None:
    parser.add_argument(
        "--no-incremental", action="store_false", dest="incremental",
        help="disable the per-shard accumulator cache: every view scan "
        "pays the full O(n) gate bill instead of rescanning only the "
        "suffix appended since the last identical query (answers and "
        "epsilon are identical either way)",
    )


#: The ``MultiViewRunConfig`` fields the deployment flags set, each under
#: its own name as the flag's ``dest``.
_DEPLOYMENT_FIELDS = (
    "dataset", "n_steps", "seed", "total_epsilon", "query_every", "n_shards",
    "scan_backend", "incremental",
)


def _add_deployment_flags(parser, steps: int) -> None:
    """The flags of the deployment `multiview` and `serve` build."""
    parser.add_argument("--dataset", choices=["tpcds", "cpdb"], default="tpcds")
    parser.add_argument(
        "--epsilon", type=float, default=3.0, dest="total_epsilon",
        metavar="EPSILON", help="total DB budget",
    )
    parser.add_argument("--steps", type=int, default=steps, dest="n_steps", metavar="STEPS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--query-every", type=int, default=4)
    parser.add_argument(
        "--shards", type=int, default=1, dest="n_shards", metavar="SHARDS",
        help="round-robin shard count for every view (parallel scans)",
    )
    _add_scan_backend_flag(parser)
    _add_incremental_flag(parser)


def _deployment_config(args):
    """The deployment the command's flags describe.

    A field whose flag the command does not declare, or leaves unset
    (``query --shards`` is ``None`` unless given), keeps the config's
    default.
    """
    from .experiments.harness import MultiViewRunConfig

    given = {f: getattr(args, f, None) for f in _DEPLOYMENT_FIELDS}
    return MultiViewRunConfig(**{f: v for f, v in given.items() if v is not None})


def _check_snapshot_target(path: str) -> None:
    """The snapshot's directory must exist *before* hours of serving."""
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise SystemExit(
            f"snapshot path {path!r}: directory {str(parent)!r} does not exist"
        )


def _restore_or_exit(path: str):
    from .server.persistence import restore_database

    try:
        return restore_database(path)
    except PersistenceError as exc:
        raise SystemExit(f"cannot restore snapshot: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IncShrink (SIGMOD 2022) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t2 = sub.add_parser("table2", help="end-to-end comparison table")
    t2.add_argument("--steps", type=int, default=240)
    t2.add_argument("--seed", type=int, default=0)

    f4 = sub.add_parser("figure4", help="L1 x QET scatter of all systems")
    f4.add_argument("--steps", type=int, default=240)
    f4.add_argument("--seed", type=int, default=0)

    for name, help_text in (
        ("figure5", "epsilon sweep (3-way trade-off)"),
        ("figure6", "sparse/standard/burst workloads"),
        ("figure7", "T/theta sweep at three privacy levels"),
        ("figure9", "data-scale sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", choices=["tpcds", "cpdb"], default="tpcds")
        p.add_argument("--steps", type=int, default=160)

    f8 = sub.add_parser("figure8", help="truncation bound sweep (CPDB)")
    f8.add_argument("--steps", type=int, default=160)

    run = sub.add_parser("run", help="run one deployment and print its summary")
    run.add_argument("--dataset", choices=["tpcds", "cpdb"], default="tpcds")
    run.add_argument(
        "--mode",
        choices=["dp-timer", "dp-ant", "ep", "otm", "nm"],
        default="dp-timer",
    )
    run.add_argument("--epsilon", type=float, default=1.5)
    run.add_argument("--steps", type=int, default=120)
    run.add_argument("--seed", type=int, default=0)

    mv = sub.add_parser(
        "multiview",
        help="run one multi-view database with planner-routed queries",
    )
    _add_deployment_flags(mv, steps=96)

    serve = sub.add_parser(
        "serve",
        help="run the concurrent serving runtime and snapshot its state",
    )
    _add_deployment_flags(serve, steps=48)
    serve.add_argument("--clients", type=int, default=2, help="read sessions")
    serve.add_argument(
        "--snapshot", default=None,
        help="checkpoint directory (four files: party0, party1, trusted, public)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=None,
        help="checkpoint every N ingested steps (requires --snapshot)",
    )
    serve.add_argument(
        "--stop-after", type=int, default=None,
        help="stop serving after this step (default: the full stream); "
        "combined with --snapshot this leaves a mid-stream checkpoint "
        "that `resume` continues from",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the database over TCP instead of running local client "
        "threads (port 0 lets the OS pick; the bound address is printed)",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="with --listen: serve remote clients for this long after the "
        "local stream is ingested (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--loop-threads", type=int, default=2, metavar="N",
        help="with --listen: event-loop threads multiplexing the "
        "connections (default: 2)",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="PATH",
        help="with --listen: require authenticated sessions, loading the "
        'tenant registry from this JSON config file ({"tenants": [...]})',
    )
    serve.add_argument(
        "--tenant", action="append", default=None, metavar="SPEC",
        help="with --listen: add one tenant inline as "
        "ID:TOKEN:ROLE[:EPSILON_BUDGET] (repeatable; an alternative to "
        "--tenants for scripted deployments)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="with --listen: expose a read-only Prometheus /metrics and "
        "/healthz HTTP listener on this port (0 lets the OS pick; the "
        "bound address is printed)",
    )
    serve.add_argument(
        "--audit-log", default=None, metavar="PATH",
        help="with --listen: append structured JSON audit events "
        "(auth failures, quota/budget rejections) to this file",
    )

    res = sub.add_parser(
        "resume",
        help="restore a snapshotted deployment and continue its stream",
    )
    res.add_argument("--snapshot", required=True, help="checkpoint directory")
    res.add_argument("--clients", type=int, default=2, help="read sessions")
    res.add_argument(
        "--snapshot-every", type=int, default=None,
        help="checkpoint every N ingested steps while resumed",
    )
    _add_scan_backend_flag(res)
    _add_incremental_flag(res)

    qp = sub.add_parser(
        "query",
        help="compile and run one logical query (live build or snapshot)",
    )
    qp.add_argument(
        "--snapshot", default=None,
        help="restore this snapshot instead of building a live deployment",
    )
    qp.add_argument("--dataset", choices=["tpcds", "cpdb"], default="tpcds")
    qp.add_argument(
        "--steps", type=int, default=24, dest="n_steps", metavar="STEPS",
        help="live-build stream length",
    )
    qp.add_argument("--seed", type=int, default=0)
    qp.add_argument(
        "--shards", type=int, default=None, dest="n_shards", metavar="SHARDS",
        help="shard count: live builds use it directly; a restored "
        "snapshot is resharded in place when it differs",
    )
    _add_scan_backend_flag(qp)
    _add_incremental_flag(qp)
    _add_query_flags(qp)

    cl = sub.add_parser(
        "client",
        help="talk to a `serve --listen` database over TCP",
    )
    cl.add_argument("--connect", required=True, metavar="HOST:PORT")
    cl.add_argument(
        "--stats", action="store_true",
        help="print the server's observability surface as JSON "
        "(the default action when nothing else is requested)",
    )
    cl.add_argument(
        "--checkpoint", nargs="?", const="", default=None, metavar="PATH",
        help="ask the server to snapshot its state (optionally to PATH "
        "on the server's filesystem)",
    )
    cl.add_argument(
        "--reshard", type=int, default=None, metavar="N",
        help="re-partition every view server-side into N shards",
    )
    cl.add_argument(
        "--time", type=int, default=None,
        help="query at this step (default: the server's watermark)",
    )
    cl.add_argument(
        "--tenant", default=None, metavar="ID",
        help="tenant id offered in the hello handshake (required when "
        "the server runs a tenant registry; pair with --token)",
    )
    cl.add_argument(
        "--token", default=None,
        help="pre-shared tenant token offered in the hello handshake",
    )
    _add_query_flags(cl)
    return parser


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    """The logical-query flag surface shared by `query` and `client`."""
    parser.add_argument(
        "--view", default=None,
        help="registered view naming the join to query (default: first registered)",
    )
    parser.add_argument(
        "--count", action="store_true", help="add a COUNT(*) aggregate"
    )
    parser.add_argument(
        "--sum", action="append", default=[], metavar="TABLE:COLUMN",
        help="add a SUM aggregate (repeatable)",
    )
    parser.add_argument(
        "--avg", action="append", default=[], metavar="TABLE:COLUMN",
        help="add an AVG aggregate (repeatable)",
    )
    parser.add_argument(
        "--group-by", default=None, metavar="TABLE:COLUMN:V1,V2,...",
        help="GROUP BY one column over a small public domain",
    )
    parser.add_argument(
        "--where", action="append", default=[], metavar="TABLE:COLUMN:V|LO-HI",
        help="residual predicate clause, equality or inclusive range (repeatable)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="release with per-aggregate Laplace noise under this budget",
    )
    parser.add_argument(
        "--json", default=None, dest="json_spec",
        help="JSON query spec (inline string or file path); overrides the flags",
    )


def _format_multiview(result) -> str:
    lines = []
    cfg = result.config
    lines.append(
        f"multi-view database: {cfg.dataset}, {cfg.n_steps} steps, "
        f"total epsilon {cfg.total_epsilon}"
    )
    lines.append(
        "base uploads (once per table per step): "
        + ", ".join(f"{t}={n}" for t, n in sorted(result.upload_counts.items()))
    )
    lines.append(
        f"transform invocations: {result.transform_runs} "
        f"({len(result.database.groups)} shared circuits/step, "
        f"{len(result.view_modes)} views)"
    )
    lines.append("")
    header = f"{'view':<22} {'mode':<9} {'eps_i':>6} {'realized':>9} {'rows':>7} {'queries':>8} {'avg L1':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, mode in result.view_modes.items():
        vr = result.database.views[name]
        summary = result.per_view[name]
        eps_i = result.allocation.get(name, 0.0)
        realized = result.database.view_realized_epsilon(name)
        lines.append(
            f"{name:<22} {mode:<9} {eps_i:>6.3f} {realized:>9.4f} "
            f"{len(vr.view):>7} {summary.query_count:>8} {summary.avg_l1_error:>8.2f}"
        )
    lines.append("")
    lines.append(
        "planner routing: "
        + ", ".join(f"{k}×{v}" for k, v in sorted(result.plan_counts.items()))
    )
    lines.append(
        f"composed realized epsilon: {result.realized_epsilon:.4f} "
        f"<= {cfg.total_epsilon} (configured total)"
    )
    return "\n".join(lines)


def _serve_stream(server, deployment, steps, clients: int) -> None:
    """Feed ``steps`` through the server while client sessions query.

    The main thread is the producer (owners); each client thread holds
    one read session and keeps issuing the standard query mix against
    the current watermark until the stream is fully ingested.
    """
    stop = threading.Event()
    client_errors: list[BaseException] = []

    def client_loop(session) -> None:
        try:
            while not stop.is_set():
                if server.last_time == 0:
                    stop.wait(0.001)
                    continue
                for query in deployment.step_queries:
                    # time=None resolves to the watermark *under the read
                    # lock*, pairing the logical ground truth with the
                    # exact view state the scan observes.
                    session.query(query, time=None)
                stop.wait(0.001)
        except BaseException as exc:
            client_errors.append(exc)

    sessions = [server.session(f"client-{i}") for i in range(clients)]
    threads = [
        threading.Thread(target=client_loop, args=(s,), daemon=True)
        for s in sessions
    ]
    for t in threads:
        t.start()
    for step in steps:
        server.submit(step.time, deployment.upload_items(step))
    server.drain()
    stop.set()
    for t in threads:
        t.join()
    if client_errors:
        raise client_errors[0]


def _format_serving(server, deployment, resumed_from: int | None = None) -> str:
    db = server.database
    stats = server.stats
    lines = []
    cfg = deployment.config
    head = (
        f"serving runtime: {cfg.dataset}, ingested through step "
        f"{server.last_time}/{cfg.n_steps}, total epsilon {cfg.total_epsilon}"
    )
    if resumed_from is not None:
        head += f" (resumed from step {resumed_from})"
    lines.append(head)
    lines.append(
        f"ingestion : {stats.steps} steps / {stats.uploads} uploads "
        f"({stats.uploads_per_second():.1f} uploads/s wall)"
    )
    lines.append(
        f"queries   : {stats.queries} answered "
        f"({stats.queries_per_second():.1f} queries/s wall)"
    )
    if stats.snapshots:
        lines.append(
            f"snapshots : {stats.snapshots} written, last a "
            f"{stats.last_snapshot_kind} of {stats.last_snapshot_bytes} bytes "
            f"in {stats.last_snapshot_seconds*1000:.1f} ms "
            f"({stats.snapshot_segments} segments on the base)"
        )
    lines.append("")
    header = f"{'view':<22} {'mode':<9} {'rows':>7} {'realized eps':>13}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, mode in deployment.view_modes.items():
        vr = db.views[name]
        lines.append(
            f"{name:<22} {mode:<9} {len(vr.view):>7} "
            f"{db.view_realized_epsilon(name):>13.4f}"
        )
    lines.append("")
    lines.append(
        f"composed realized epsilon: {db.realized_epsilon():.4f} "
        f"<= {cfg.total_epsilon} (configured total)"
    )
    return "\n".join(lines)


def _cmd_serve(args) -> None:
    listen = None if args.listen is None else _parse_listen(args.listen)
    if args.serve_seconds is not None and args.serve_seconds < 0:
        raise SystemExit(
            f"--serve-seconds must be >= 0, got {args.serve_seconds}"
        )
    if args.snapshot is not None:
        _check_snapshot_target(args.snapshot)
    registry = _build_registry(args, listen)
    if args.metrics_port is not None and not 0 <= args.metrics_port <= 65535:
        raise SystemExit(
            f"--metrics-port must be in 0-65535, got {args.metrics_port}"
        )
    if listen is None:
        for flag, value in (
            ("--metrics-port", args.metrics_port),
            ("--audit-log", args.audit_log),
        ):
            if value is not None:
                raise SystemExit(f"{flag} requires --listen")
    from .experiments.harness import build_multiview_deployment
    from .server.runtime import DatabaseServer

    config = _deployment_config(args)
    deployment = build_multiview_deployment(config)
    server = DatabaseServer(
        deployment.database,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
    )
    # The snapshot must be self-describing: resume rebuilds the workload
    # stream and query mix from these parameters alone.
    server.metadata["serving_config"] = {
        k: v for k, v in asdict(config).items() if k != "cost_model"
    }
    server.start()
    steps = deployment.workload.steps
    if args.stop_after is not None:
        steps = [s for s in steps if s.time <= args.stop_after]
    if listen is not None:
        _serve_network(
            server, deployment, steps, listen, args.serve_seconds,
            loop_threads=args.loop_threads,
            registry=registry,
            metrics_port=args.metrics_port,
            audit_log=args.audit_log,
        )
    else:
        _serve_stream(server, deployment, steps, clients=args.clients)
    server.stop(final_snapshot=args.snapshot is not None)
    print(_format_serving(server, deployment))
    if args.snapshot is not None:
        print(f"snapshot written to {args.snapshot}")


def _build_registry(args, listen):
    """The serve command's tenant registry (or None: open access)."""
    if args.tenants is not None and args.tenant:
        raise SystemExit("--tenants and --tenant are mutually exclusive")
    if args.tenants is None and not args.tenant:
        return None
    if listen is None:
        raise SystemExit("--tenants/--tenant require --listen")
    from .tenancy.registry import TenantRegistry

    if args.tenants is not None:
        return TenantRegistry.from_file(args.tenants)
    return TenantRegistry.from_specs(args.tenant)


def _serve_network(
    server, deployment, steps, listen, serve_seconds, loop_threads=2,
    registry=None, metrics_port=None, audit_log=None,
) -> None:
    """Ingest the local stream, then serve remote clients over TCP.

    The listener opens only after the local stream is fully applied:
    local ``submit`` calls bypass the network upload-admission gate, so
    interleaving remote uploads with them could poison the ingest loop
    with an out-of-order step.  Once serving, every upload goes through
    the gate.
    """
    from .net.protocol import PROTOCOL_VERSION
    from .net.server import NetworkServer

    for step in steps:
        server.submit(step.time, deployment.upload_items(step))
    server.drain()
    net = NetworkServer(
        server, host=listen[0], port=listen[1], loop_threads=loop_threads,
        registry=registry, audit_log=audit_log,
    )
    net.start()
    host, port = net.address
    print(
        f"listening on {host}:{port} (incshrink wire protocol "
        f"v{PROTOCOL_VERSION}, {loop_threads} event loops)"
    )
    if registry is not None:
        print(
            f"tenant registry active: {len(registry)} tenant(s), "
            "credentialed hello required"
        )
    metrics = None
    if metrics_port is not None:
        from .net.metrics import MetricsServer

        metrics = MetricsServer(net, host=listen[0], port=metrics_port)
        try:
            metrics.start()
        except OSError as exc:
            net.close()
            raise SystemExit(
                f"cannot bind metrics port {listen[0]}:{metrics_port}: {exc}"
            )
        mhost, mport = metrics.address
        # Scripted scrapes (the CI tenant-smoke job) parse this line.
        print(f"metrics listening on http://{mhost}:{mport}/metrics", flush=True)
    print(
        f"local stream ingested through step {server.last_time}; serving "
        + (
            f"remote clients for {serve_seconds:.0f}s"
            if serve_seconds is not None
            else "remote clients until Ctrl-C"
        ),
        flush=True,
    )
    try:
        if serve_seconds is not None:
            _time.sleep(serve_seconds)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        print("interrupt received; draining connections")
    if metrics is not None:
        metrics.close()
    net.close()


def _cmd_resume(args) -> None:
    from .experiments.harness import MultiViewRunConfig, build_multiview_deployment
    from .server.runtime import DatabaseServer

    try:
        server = DatabaseServer.resume(
            args.snapshot, snapshot_every=args.snapshot_every
        )
    except PersistenceError as exc:
        raise SystemExit(f"cannot restore snapshot: {exc}")
    serving_config = server.resume_metadata.get("serving_config")
    if serving_config is None:
        raise SystemExit(
            "snapshot has no serving_config metadata; it was not written "
            "by `python -m repro serve`"
        )
    config = MultiViewRunConfig(**serving_config)
    deployment = build_multiview_deployment(config)
    deployment.database = server.database  # the restored one, not a fresh build
    if args.scan_backend != "auto":
        # Operational override: backends change host wall clock only.
        server.database.set_scan_backend(args.scan_backend)
    if not args.incremental:
        # Caches are never persisted, so resume always starts cold; this
        # additionally stops the restored database from re-warming.
        server.database.set_incremental(False)
    resumed_from = server.last_time
    server.start()
    remaining = [
        s for s in deployment.workload.steps if s.time > resumed_from
    ]
    _serve_stream(server, deployment, remaining, clients=args.clients)
    server.stop(final_snapshot=True)
    print(_format_serving(server, deployment, resumed_from=resumed_from))
    print(f"snapshot updated at {server.snapshot_path}")


def _split_spec(value: str, parts: int, what: str) -> list[str]:
    pieces = value.split(":", parts - 1)
    if len(pieces) != parts or not all(pieces):
        raise SystemExit(
            f"malformed {what} {value!r}; expected {parts} colon-separated parts"
        )
    return pieces


def _query_from_flags(args) -> tuple[list, object, object]:
    """(aggregates, group_by, predicate) from the flag surface."""
    from .query.ast import AggregateSpec, And, ColumnEquals, ColumnRange, GroupBySpec

    aggregates = []
    if args.count:
        aggregates.append(AggregateSpec.count())
    for spec in args.sum:
        table, column = _split_spec(spec, 2, "--sum")
        aggregates.append(AggregateSpec.sum_of(table, column))
    for spec in args.avg:
        table, column = _split_spec(spec, 2, "--avg")
        aggregates.append(AggregateSpec.avg_of(table, column))
    group_by = None
    if args.group_by:
        table, column, domain = _split_spec(args.group_by, 3, "--group-by")
        values = domain.split(",")
        if not all(v.isdigit() for v in values):
            raise SystemExit(
                f"malformed --group-by domain {domain!r}; expected "
                "comma-separated non-negative integers"
            )
        group_by = GroupBySpec(table, column, tuple(int(v) for v in values))
    clauses = []
    for spec in args.where:
        table, column, value = _split_spec(spec, 3, "--where")
        if value.isdigit():
            clauses.append(ColumnEquals(table, column, int(value)))
        elif value.count("-") == 1 and all(p.isdigit() for p in value.split("-")):
            lo, hi = value.split("-")
            clauses.append(ColumnRange(table, column, int(lo), int(hi)))
        else:
            raise SystemExit(
                f"malformed --where value {value!r}; expected a non-negative "
                "integer or an inclusive LO-HI range"
            )
    predicate = None
    if len(clauses) == 1:
        predicate = clauses[0]
    elif clauses:
        predicate = And(tuple(clauses))
    return aggregates, group_by, predicate


def _query_from_json(spec_text: str) -> tuple[list, object, object, str | None]:
    """(aggregates, group_by, predicate, view) from a JSON query spec."""
    from .query.ast import AggregateSpec, And, ColumnEquals, ColumnRange, GroupBySpec

    path = Path(spec_text)
    if path.exists():
        spec_text = path.read_text(encoding="utf8")
    try:
        spec = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--json is neither a readable file nor valid JSON: {exc}")
    try:
        aggregates = []
        for entry in spec.get("aggregates", []):
            kwargs = {
                k: entry[k]
                for k in ("table", "column", "alias", "sensitivity")
                if k in entry
            }
            aggregates.append(AggregateSpec(entry.get("kind", "count"), **kwargs))
        group_by = None
        if "group_by" in spec:
            g = spec["group_by"]
            group_by = GroupBySpec(g["table"], g["column"], tuple(g["domain"]))
        clauses = []
        for c in spec.get("predicate", []):
            if "equals" in c:
                clauses.append(
                    ColumnEquals(c["table"], c["column"], int(c["equals"]))
                )
            else:
                clauses.append(
                    ColumnRange(c["table"], c["column"], int(c["lo"]), int(c["hi"]))
                )
    except (KeyError, TypeError, ValueError, AttributeError, SchemaError) as exc:
        raise SystemExit(f"malformed --json query spec: {exc!r}")
    predicate = None
    if len(clauses) == 1:
        predicate = clauses[0]
    elif clauses:
        predicate = And(tuple(clauses))
    return aggregates, group_by, predicate, spec.get("view")


def _query_parts(args) -> tuple[list, object, object, str | None]:
    """(aggregates, group_by, predicate, view) from ``--json`` if given,
    else from the query flags; ``--view`` overrides the spec's view."""
    if args.json_spec is not None:
        aggregates, group_by, predicate, json_view = _query_from_json(args.json_spec)
        return aggregates, group_by, predicate, args.view or json_view
    return (*_query_from_flags(args), args.view)


def _print_plan_line(
    kind: str,
    view_name: str | None,
    n_shards: int,
    estimated_gates: int,
    qet_seconds: float,
    scan_backend: str | None = None,
    scan_report: dict | None = None,
) -> None:
    """The one-line plan summary shared by `query` and `client`."""
    target = view_name or "NM join over base stores"
    lanes = f" x {n_shards} shards" if n_shards > 1 else ""
    if scan_backend is not None and n_shards > 1:
        lanes += f" [{scan_backend} backend]"
    if scan_report is not None and scan_report.get("mode") == "warm":
        lanes += (
            f" [warm: {scan_report['delta_rows']} delta rows of "
            f"{scan_report['total_rows']}]"
        )
    elif scan_report is not None and scan_report.get("mode") == "cold":
        lanes += f" [cold scan: {scan_report['total_rows']} rows]"
    print(
        f"plan: {kind} -> {target}{lanes} "
        f"({estimated_gates} est. gates); "
        f"QET {qet_seconds:.6f} s (simulated)"
    )


def _format_answer_table(result) -> str:
    answers = result.answers
    logical = result.logical_answers
    lines = []
    group_header = ["group"] if answers.group_keys is not None else []
    header_cells = group_header + [f"{c:>18}" for c in answers.columns]
    header = "  ".join(f"{c:>8}" if c == "group" else c for c in header_cells)
    lines.append(header)
    lines.append("-" * len(header))
    keys = answers.group_keys or (None,)
    for g, key in enumerate(keys):
        cells = [] if key is None else [f"{key:>8}"]
        for value in answers.rows[g]:
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            cells.append(f"{text:>18}")
        lines.append("  ".join(cells))
    lines.append("")
    lines.append(
        "ground truth (plaintext mirror): "
        + "; ".join(
            ", ".join(
                f"{col}={val}" for col, val in zip(logical.columns, row)
            )
            for row in logical.rows
        )
    )
    return "\n".join(lines)


def _cmd_query(args) -> None:
    from .experiments.harness import build_multiview_deployment
    from .query.ast import AggregateSpec, LogicalQuery

    aggregates, group_by, predicate, view_name = _query_parts(args)
    if not aggregates:
        aggregates = [AggregateSpec.count()]
    if args.epsilon is not None and args.epsilon <= 0:
        raise SystemExit(
            f"--epsilon must be positive, got {args.epsilon}"
        )

    if args.snapshot is not None:
        restored = _restore_or_exit(args.snapshot)
        db = restored.database
        if args.n_shards is not None and args.n_shards != db.n_shards:
            # Share-local re-partition: answers, gates, and ε unchanged.
            db.reshard(args.n_shards)
        if args.scan_backend != "auto":
            db.set_scan_backend(args.scan_backend)
        if not args.incremental:
            db.set_incremental(False)
        time_at = int(restored.metadata.get("last_time", 0))
        info = restored.info
        source = (
            f"snapshot {args.snapshot} (step {time_at}), {db.n_shards} shard(s), "
            f"a base and {info.segments} segment(s)"
        )
        if info.discarded_bytes:
            source += f", {info.discarded_bytes} torn bytes past the last commit left"
    else:
        deployment = build_multiview_deployment(_deployment_config(args))
        db = deployment.database
        for step in deployment.workload.steps:
            db.upload(step.time, deployment.upload_items(step))
            db.step(step.time)
        time_at = deployment.workload.steps[-1].time
        source = f"live build: {args.dataset}, {args.n_steps} steps"

    registrations = {r.view_def.name: r.view_def for r in db.registrations}
    if view_name is None:
        view_def = db.registrations[0].view_def
    elif view_name in registrations:
        view_def = registrations[view_name]
    else:
        raise SystemExit(
            f"no registered view {view_name!r}; known views: "
            f"{sorted(registrations)}"
        )

    try:
        query = LogicalQuery.for_view(
            view_def, *aggregates, group_by=group_by, predicate=predicate
        )
    except SchemaError as exc:
        raise SystemExit(f"invalid query: {exc}")
    result = db.query(query, time_at, epsilon=args.epsilon)

    print(f"queried {source}")
    print(
        f"join: {view_def.probe_table} ⋈ {view_def.driver_table} "
        f"(window [{view_def.window_lo}, {view_def.window_hi}], "
        f"via view class {view_def.name!r})"
    )
    plan = result.plan
    _print_plan_line(
        plan.kind,
        plan.view_name,
        plan.n_shards,
        plan.estimated_gates,
        result.observation.qet_seconds,
        scan_backend=None
        if plan.view_name is None
        else db.scan_executor.backend_for(db.views[plan.view_name].view),
        scan_report=None
        if result.scan_report is None
        else asdict(result.scan_report),
    )
    if args.epsilon is not None:
        print(
            f"released with epsilon={args.epsilon} "
            f"(database total query spend now {db.query_epsilon():.4f})"
        )
    print()
    print(_format_answer_table(result))


def _cmd_client(args) -> None:
    from .net.client import IncShrinkClient
    from .net.protocol import RemoteError, WireError

    host, port = _parse_listen(args.connect, flag="--connect")
    if args.reshard is not None and args.reshard < 1:
        raise SystemExit(f"--reshard must be >= 1, got {args.reshard}")
    if args.epsilon is not None and args.epsilon <= 0:
        raise SystemExit(f"--epsilon must be positive, got {args.epsilon}")
    aggregates, group_by, predicate, view_name = _query_parts(args)
    wants_query = bool(aggregates or group_by or predicate)

    if (args.tenant is None) != (args.token is None):
        raise SystemExit("--tenant and --token must be given together")
    client = IncShrinkClient(
        host, port, name="repro-cli", connect_retries=3,
        tenant=args.tenant, token=args.token,
    )
    try:
        client.connect()
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot connect to {host}:{port}: {exc}")
    except (WireError, RemoteError) as exc:
        # Not an IncShrink endpoint / wrong protocol version / full.
        raise SystemExit(f"{host}:{port} did not complete the handshake: {exc}")
    with client:
        try:
            did_something = False
            if args.reshard is not None:
                out = client.reshard(args.reshard)
                print(f"resharded every view to {out['n_shards']} shard(s)")
                did_something = True
            if args.checkpoint is not None:
                info = client.snapshot(args.checkpoint or None)
                print(
                    f"server checkpointed a {info['kind']} of "
                    f"{info['bytes_written']} bytes to {info['path']} "
                    f"(sha256 {info['sha256'][:12]}…)"
                )
                did_something = True
            if wants_query:
                _client_query(
                    client, view_name, aggregates, group_by, predicate, args
                )
                did_something = True
            if args.stats or not did_something:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
        except RemoteError as exc:
            raise SystemExit(f"server rejected the request: {exc}")
        except (WireError, ConnectionError) as exc:
            raise SystemExit(f"connection to {host}:{port} failed: {exc}")


def _client_query(client, view_name, aggregates, group_by, predicate, args) -> None:
    """Build a LogicalQuery from the server's public join specs and run it."""
    from .net.protocol import JOIN_FIELDS
    from .query.ast import AggregateSpec, LogicalJoinQuery, LogicalQuery

    views = {v["name"]: v for v in client.views()}
    if not views:
        raise SystemExit("server exposes no registered views")
    if view_name is None:
        view_entry = next(iter(views.values()))
    elif view_name in views:
        view_entry = views[view_name]
    else:
        raise SystemExit(
            f"no registered view {view_name!r} on the server; known views: "
            f"{sorted(views)}"
        )
    try:
        query = LogicalQuery(
            join=LogicalJoinQuery(**{f: view_entry[f] for f in JOIN_FIELDS}),
            aggregates=tuple(aggregates) or (AggregateSpec.count(),),
            group_by=group_by,
            predicate=predicate,
        )
    except SchemaError as exc:
        raise SystemExit(f"invalid query: {exc}")
    result = client.query(query, time=args.time, epsilon=args.epsilon)
    _print_plan_line(
        result.plan_kind,
        result.view_name,
        result.n_shards,
        result.estimated_gates,
        result.qet_seconds,
        scan_report=result.scan_report,
    )
    if args.epsilon is not None:
        print(f"released with epsilon={args.epsilon}")
    print()
    print(_format_answer_table(result))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
    except ConfigurationError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None
    return 0


def _run(args) -> None:
    if args.command == "table2":
        from .experiments import table2

        print(table2.format_table2(table2.run_table2(n_steps=args.steps, seed=args.seed)))
    elif args.command == "figure4":
        from .experiments import figure4

        print(
            figure4.format_figure4(
                figure4.run_figure4(n_steps=args.steps, seed=args.seed)
            )
        )
    elif args.command == "figure8":
        from .experiments import figure8

        print(figure8.format_figure8("cpdb", figure8.run_figure8(n_steps=args.steps)))
    elif args.command in _BOTH_DATASET_EXPERIMENTS:
        figure = importlib.import_module(f".experiments.{args.command}", __package__)
        run_fn = getattr(figure, f"run_{args.command}")
        format_fn = getattr(figure, f"format_{args.command}")
        print(format_fn(args.dataset, run_fn(args.dataset, n_steps=args.steps)))
    elif args.command == "multiview":
        from .experiments.harness import run_multiview_experiment

        print(_format_multiview(run_multiview_experiment(_deployment_config(args))))
    elif args.command == "serve":
        _cmd_serve(args)
    elif args.command == "resume":
        _cmd_resume(args)
    elif args.command == "query":
        _cmd_query(args)
    elif args.command == "client":
        _cmd_client(args)
    elif args.command == "run":
        from .experiments.harness import RunConfig, run_experiment

        result = run_experiment(
            RunConfig(
                dataset=args.dataset,
                mode=args.mode,
                epsilon=args.epsilon,
                n_steps=args.steps,
                seed=args.seed,
            )
        )
        s = result.summary
        print(f"dataset            : {args.dataset} ({result.view_rate:.2f} entries/step)")
        print(f"mode               : {args.mode}")
        print(f"avg L1 error       : {s.avg_l1_error:.3f}")
        print(f"avg relative error : {s.avg_relative_error:.4f}")
        print(f"avg QET            : {s.avg_qet_seconds:.6f} s (simulated)")
        print(f"avg Transform      : {s.avg_transform_seconds:.4f} s")
        print(f"avg Shrink         : {s.avg_shrink_seconds:.4f} s")
        print(f"avg view size      : {s.avg_view_size_rows:.0f} rows / "
              f"{s.avg_view_size_mb*1000:.1f} KB per server")
        print(f"realized epsilon   : {result.realized_epsilon:.4f}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
