"""The server child: builds the deployment from generated inputs and serves it.

Started by ``bench/run.py`` as ``python3 bench/server_main.py RUN_DIR``.  It
reads ``RUN_DIR/spec.pkl`` (written by the parent: database constructor
arguments, view registrations, preload rows, tenant specs — never a
workload name or the seed), builds an :class:`IncShrinkDatabase` in its
default configuration, and serves it over a localhost socket.

Line protocol on stdin/stdout::

    child:  READY <port>
    parent: trace on | trace off        child: OK
    parent: rss                         child: OK <VmHWM in kB>
    parent: stop                        child: REPORT <json>

Everything runs under the ``__main__`` guard: the process scan backend
spawns its workers, spawn re-imports ``__main__``, and an unguarded server
start there kills the pool ("a worker process died mid-query").
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def vm_hwm_kb() -> int:
    """Peak resident set size of this process, from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def network_builds() -> int:
    """Sorting networks constructed so far (the lru_cache's misses)."""
    try:
        from repro.oblivious.sort import batcher_network

        return batcher_network.cache_info().misses
    except (ImportError, AttributeError):  # the cache was refactored away
        return 0


def build_server(spec: dict):
    """The deployment, wired exactly as README's quick start wires one."""
    from repro import DatabaseServer, IncShrinkDatabase, NetworkServer
    from repro.tenancy.registry import TenantRegistry

    db = IncShrinkDatabase(**spec["database"])
    for registration in spec["views"]:
        db.register_view(registration)
    preload = spec["preload"]
    if preload is not None:
        db.finalize()
        view = db.views[preload["view"]].view
        view.append(
            db.runtime.owner_share_table(
                view.schema, preload["rows"], preload["flags"]
            ),
            count_as_update=False,
        )
    registry = (
        TenantRegistry.from_specs(spec["tenants"]) if spec["tenants"] else None
    )
    return NetworkServer(DatabaseServer(db), registry=registry).start()


def main(run_dir: Path) -> None:
    # The script directory must not stay on sys.path: bench/trace.py would
    # shadow the standard library's ``trace`` for everything imported later.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from bench.trace import Tracer

    with open(run_dir / "spec.pkl", "rb") as fh:
        spec = pickle.load(fh)
    net = build_server(spec)
    tracer = Tracer()
    print(f"READY {net.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            reply = ""
            if command == "trace on":
                tracer.install()
            elif command == "trace off":
                tracer.restore()
            elif command == "rss":
                reply = f" {vm_hwm_kb()}"
            elif command == "stop":
                break
            else:
                raise SystemExit(f"unknown command {command!r}")
            print("OK" + reply, flush=True)
        database = net.server.database
        gates = {"query": 0, "ingest": 0}
        for run in database.runtime.runs:
            gates["query" if run.name == "query" else "ingest"] += run.gates
        report = {
            "query_gates": gates["query"],
            "ingest_gates": gates["ingest"],
            "network_builds": network_builds(),
            "untraceable": tracer.missing,
        }
        net.close(stop_server=True)
    finally:
        tracer.restore()
    with open(run_dir / "spans.json", "w", encoding="ascii") as fh:
        json.dump(tracer.export(), fh)
    print("REPORT " + json.dumps(report), flush=True)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
