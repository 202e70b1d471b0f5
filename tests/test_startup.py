"""Start-up: a serving process imports only what serving runs.

Package ``__init__``\\ s resolve their exports on first access
(``repro/_lazy.py``), and the serving modules load persistence and the
process scan backend only when a checkpoint, a resume or a forced process
backend needs them.  A fresh interpreter shows the import set; these tests
pin it, and that every export still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    "repro" + "".join("." + part for part in path.parent.relative_to(SRC / "repro").parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: What the serving process (``bench/server_main.py``) imports.
SERVING_IMPORTS = (
    "from repro import DatabaseServer, IncShrinkDatabase, NetworkServer\n"
    "import repro.tenancy.registry\n"
)
#: Modules a serving process must not load at start-up.
NOT_SERVING = (
    "repro.experiments",
    "repro.workload",
    "repro.__main__",
    "repro.server.persistence",
    "repro.storage.chain",
    "repro.query.shard_workers",
    "repro.net.client",
    "repro.net.metrics",
    "repro.mpc.multiparty",
    "multiprocessing",
    "statistics",
)


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON line last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def loaded(modules: list[str], name: str) -> list[str]:
    """``name`` and its submodules among ``modules``."""
    return [m for m in modules if m == name or m.startswith(name + ".")]


def test_a_serving_process_loads_none_of_what_serving_does_not_run():
    modules = fresh(SERVING_IMPORTS + "import json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert {name: loaded(modules, name) for name in NOT_SERVING} == {
        name: [] for name in NOT_SERVING
    }
    # What it does load: the database, the runtime, the socket server.
    assert {"repro.server.database", "repro.server.runtime", "repro.net.server"} <= set(modules)


def test_the_cli_parses_without_loading_a_subcommand():
    modules = fresh(
        "import json, sys\n"
        "from repro.__main__ import _build_parser\n"
        "_build_parser()\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert modules == ["repro", "repro.__main__", "repro._lazy", "repro.common",
                       "repro.common.errors"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert set(module.__all__) <= set(dir(module))
    assert len(set(module.__all__)) == len(module.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018


def test_an_export_is_the_defining_modules_object():
    import repro
    import repro.server
    from repro.server import persistence, runtime

    assert repro.DatabaseServer is runtime.DatabaseServer
    assert repro.server.snapshot_database is persistence.snapshot_database
    assert "DatabaseServer" in dir(repro) and "__version__" in dir(repro)


def test_a_snapshot_and_a_resume_after_start_load_persistence_then(tmp_path):
    result = fresh(f"""
        import json, sys
        from repro import DatabaseServer, IncShrinkDatabase, ViewRegistration
        from repro.workload import make_tpcds_workload

        wl = make_tpcds_workload(seed=1, n_steps=6)
        vd = wl.view_def
        db = IncShrinkDatabase(total_epsilon=1.5)
        db.register_view(ViewRegistration(vd, mode="dp-timer"))
        server = DatabaseServer(db).start()
        for step in wl.steps:
            server.submit(step.time, {{vd.probe_table: step.probe,
                                      vd.driver_table: step.driver}})
        server.drain()
        before = "repro.server.persistence" in sys.modules
        info = server.snapshot({str(tmp_path / "d.snap")!r})
        server.stop()
        resumed = DatabaseServer.resume({str(tmp_path / "d.snap")!r}).start()
        out = dict(
            before=before,
            after="repro.server.persistence" in sys.modules,
            kind=info.kind,
            last_time=resumed.last_time,
            rows=len(resumed.database.views[vd.name].view),
            want_rows=len(db.views[vd.name].view),
        )
        resumed.stop()
        print(json.dumps(out))
    """)
    assert result["before"] is False and result["after"] is True
    assert result["kind"] == "base" and result["last_time"] == 6
    assert result["rows"] == result["want_rows"]


def test_start_loads_persistence_when_checkpoints_are_periodic(tmp_path):
    result = fresh(f"""
        import json, sys
        from repro import DatabaseServer, IncShrinkDatabase, ViewRegistration
        from repro.workload import tpcds_view_def

        db = IncShrinkDatabase(total_epsilon=1.5)
        db.register_view(ViewRegistration(tpcds_view_def(), mode="dp-timer"))
        server = DatabaseServer(
            db, snapshot_path={str(tmp_path / "p.snap")!r}, snapshot_every=2
        )
        before = "repro.server.persistence" in sys.modules
        server.start()
        after = "repro.server.persistence" in sys.modules
        server.stop()
        print(json.dumps(dict(before=before, after=after,
                              pool="repro.query.shard_workers" in sys.modules)))
    """)
    assert result == {"before": False, "after": True, "pool": False}
