#!/usr/bin/env python
"""Dead code fails a check: list the public code of ``src/repro`` that no
entry point reaches.

The walk starts at the entry points -- ``src/repro/__main__.py`` (every CLI
subcommand, and through ``serve`` the network server's dispatch),
``src/repro/experiments/``, ``bench/*.py`` except its ``test_*`` files,
``examples/`` and ``tools/`` -- and follows uses into the public
module-level functions, classes and methods of ``src/repro``.  Whatever it
does not reach only ``tests/``, ``benchmarks/`` or the docs can reach; it
is reported with its line count.

A use is a bare name, an attribute access or a name an ``import`` binds in
reached code, or an identifier or dotted path in a string constant (such
as ``bench/trace.py``'s ``("repro.query.shard_workers",
"ProcessScanBackend.scan", None)``).  Uses match by name alone, so a method
is reached when its class is and any reached code accesses an attribute of
its name: the walk errs toward keeping.  Dunder methods are reached with
their class.  Module-level statements run on import and are reached, but a
module-level import, an ``__all__`` entry or an entry of a package's lazy
export table (``__getattr__, __dir__ = lazy_exports(__name__, {".mod":
("name", ...)})``) is only a re-export, not a use.  A table entry must name
a module that exists and a name that module defines at top level.

:data:`ALLOWLIST` names what stays although only tests reach it, and why;
what an entry keeps, it keeps reached.  Exits 1 on a finding outside the
allowlist or on a stale entry (the name is gone, or an entry point now
reaches it), and on a broken lazy export entry.  Standard library only; it
never imports ``repro``.  Usage::

    python tools/reachability.py [REPO]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_FORMULA = "a paper formula tests/test_dp_accounting.py holds the simulator to"
_LAPLACE = "the Laplace distribution tests/test_dp_laplace.py checks the sampler against"
_READ = "an accessor tests read to see what no public surface shows: "

#: ``path::qualname`` (``path`` relative to ``src/repro``) → why it stays.
ALLOWLIST: dict[str, str] = {
    "core/budget.py::ContributionLedger.theorem3_contributions": "Theorem 3's contribution "
    "map: the tests recompute realized ε from it and compare the served ledgers",
    "dp/accountant.py::PrivacyAccountant.sequential_epsilon": _FORMULA + " (composition)",
    "dp/accountant.py::PrivacyAccountant.parallel_epsilon": _FORMULA + " (composition)",
    "dp/accountant.py::stability_composed_epsilon": _FORMULA + " (Lemma 2)",
    "dp/accountant.py::event_to_user_epsilon": _FORMULA + " (§4.2, group privacy)",
    "dp/bounds.py::theorem4_min_updates": _FORMULA + " (Theorem 4)",
    "dp/bounds.py::theorem5_dummy_bound": _FORMULA + " (Theorem 5)",
    "dp/bounds.py::theorem6_dummy_bound": _FORMULA + " (Theorem 6)",
    "dp/laplace.py::laplace_cdf": _LAPLACE,
    "dp/laplace.py::laplace_quantile": _LAPLACE,
    "dp/laplace.py::laplace_sum_tail_bound": _LAPLACE + " (Lemma 10)",
    "dp/laplace.py::laplace_mechanism": "the textbook ε-DP release: tests/test_dp_statistical.py "
    "holds its likelihood ratio to e^ε, the bound it then holds the in-MPC sampler to",
    "mpc/transcript.py::Transcript.of_kind": _READ + "what each protocol revealed",
    "mpc/transcript.py::Transcript.of_protocol": _READ + "what each protocol revealed",
    "net/protocol.py::FrameDecoder.mid_frame": _READ + "a half-read frame",
    "net/server.py::NetworkServer.open_connections": _READ + "that connections closed",
    "query/shard_workers.py::ProcessScanBackend.worker_pids": _READ + "that workers were reaped",
    "tenancy/registry.py::TenantRegistry.ids": _READ + "which tenants a registry file declared",
    "query/ast.py::QueryAnswer.scalar": "the query tests read an ungrouped answer's one cell "
    "through it, and it refuses any other shape",
    "query/parallel.py::ParallelScanExecutor.execute": "the scan tests run a plan through it "
    "when they compare answers and QETs, not scan reports",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Unit:
    """One function, class or method, and the names its body uses."""

    def __init__(self, key: str, name: str, path: Path, node: ast.AST, parent: Unit | None):
        self.key, self.name, self.path, self.parent = key, name, path, parent
        self.lineno = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - self.lineno + 1
        self.public = not name.startswith("_") and (parent is None or parent.public)
        self.uses: set[str] = set()


def _uses(nodes: list[ast.AST], aliases: dict[str, str]) -> set[str]:
    """Every name the subtrees of ``nodes`` use, import aliases resolved."""
    names: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update(node.value.split("."))
    return names | {aliases[n] for n in names if n in aliases}


def _aliases(tree: ast.Module) -> dict[str, str]:
    return {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _lazy_table(stmt: ast.stmt) -> ast.Dict | None:
    """The table of a ``... = lazy_exports(__name__, {...})`` statement."""
    call = getattr(stmt, "value", None)
    if not (isinstance(call, ast.Call) and len(call.args) == 2):
        return None
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    table = call.args[1]
    return table if name == "lazy_exports" and isinstance(table, ast.Dict) else None


def _is_reexport(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _module(path: Path, rel: str, tree: ast.Module) -> tuple[list[Unit], set[str]]:
    """A module's function, class and method units, and its top-level uses."""
    aliases, units, top = _aliases(tree), [], []
    for stmt in tree.body:
        if isinstance(stmt, _FUNCS):
            units.append(Unit(f"{rel}::{stmt.name}", stmt.name, path, stmt, None))
            units[-1].uses = _uses([stmt], aliases)
        elif isinstance(stmt, ast.ClassDef):
            cls = Unit(f"{rel}::{stmt.name}", stmt.name, path, stmt, None)
            body = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            units.append(cls)
            for item in stmt.body:
                if isinstance(item, _FUNCS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    units.append(Unit(f"{cls.key}.{item.name}", item.name, path, item, cls))
                    units[-1].uses = _uses([item], aliases)
                else:
                    body.append(item)
            cls.uses = _uses(body, aliases)
        elif _lazy_table(stmt) is not None:
            top.append(stmt.value.func)  # the helper is used, what it exports is not
        elif not _is_reexport(stmt):
            top.append(stmt)
    return units, _uses(top, aliases)


def _entry_points(root: Path) -> list[Path]:
    pkg = root / "src" / "repro"
    files = [pkg / "__main__.py", *sorted((pkg / "experiments").glob("*.py"))]
    files += [p for p in sorted((root / "bench").glob("*.py")) if not p.name.startswith("test_")]
    files += sorted((root / "examples").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    return [p for p in files if p.is_file()]


def _grow(units: dict[str, Unit], reached: set[str], used: set[str]) -> None:
    """Reach every unit whose name ``used`` holds, to a fixed point."""
    for key in reached:
        used |= units[key].uses
    grew = True
    while grew:
        grew = False
        for key, unit in units.items():
            if key in reached or unit.name not in used:
                continue
            if unit.parent is not None and unit.parent.key not in reached:
                continue
            reached.add(key)
            used |= unit.uses
            grew = True


def check(root: Path, allowlist: dict[str, str] = ALLOWLIST) -> tuple[list[str], list[str]]:
    """The findings outside ``allowlist``, and its stale entries."""
    pkg = root / "src" / "repro"
    entries = _entry_points(root)
    used: set[str] = set()
    for path in entries:
        tree = ast.parse(path.read_text(), str(path))
        used |= _uses([tree], _aliases(tree))
    units: dict[str, Unit] = {}
    for path in sorted(pkg.rglob("*.py")):
        if path in entries:
            continue
        tree = ast.parse(path.read_text(), str(path))
        module_units, top = _module(path, path.relative_to(pkg).as_posix(), tree)
        used |= top
        for unit in module_units:
            if unit.key in units:  # a property's setter: one name, both bodies
                units[unit.key].uses |= unit.uses
                units[unit.key].lines += unit.lines
            else:
                units[unit.key] = unit
    reached: set[str] = set()
    _grow(units, reached, used)
    stale = [
        f"{key}: {'the name is gone' if key not in units else 'an entry point now reaches it'}"
        for key in allowlist
        if key not in units or key in reached
    ]
    kept = reached | (allowlist.keys() & units.keys())
    _grow(units, kept, used)
    findings = [
        f"{unit.path.relative_to(root).as_posix()}:{unit.lineno}: "
        f"{key.split('::')[1]} ({unit.lines} lines)"
        for key, unit in units.items()
        if unit.public
        and key not in kept
        and (unit.parent is None or unit.parent.key in kept)  # not each method of a dead class
    ]
    return findings, stale


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level (inside ``if``/``try`` too)."""
    names: set[str] = set()
    todo = list(tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (*_FUNCS, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
        elif isinstance(stmt, (ast.If, ast.Try)):
            todo += stmt.body + stmt.orelse + getattr(stmt, "finalbody", [])
            todo += [s for h in getattr(stmt, "handlers", []) for s in h.body]
    return names


def _module_file(package: Path, module: str) -> Path | None:
    """The file of ``module`` relative to the package directory ``package``."""
    base = package
    for _ in range(len(module) - len(module.lstrip(".")) - 1):
        base = base.parent
    path = base.joinpath(*module.lstrip(".").split("."))
    for candidate in (path.with_suffix(".py"), path / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def broken_exports(root: Path) -> list[str]:
    """Lazy export entries naming a module or a name that does not exist."""
    pkg = root / "src" / "repro"
    broken = []
    for init in sorted(pkg.rglob("__init__.py")):
        tables = [_lazy_table(stmt) for stmt in ast.parse(init.read_text(), str(init)).body]
        for table in filter(None, tables):
            for key, value in zip(table.keys, table.values):
                where = f"{init.relative_to(root).as_posix()}:{key.lineno}"
                module = key.value if isinstance(key, ast.Constant) else None
                path = _module_file(init.parent, module) if isinstance(module, str) else None
                if path is None:
                    broken.append(f"{where}: no module {module!r}")
                    continue
                defined = _defined(ast.parse(path.read_text(), str(path)))
                for elt in getattr(value, "elts", [value]):
                    name = getattr(elt, "value", None)
                    if name not in defined:
                        broken.append(f"{where}: {module} defines no {name!r}")
    return broken


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    findings, stale = check(root)
    broken = broken_exports(root)
    for line in findings:
        print(f"no entry point reaches {line}")
    for line in stale:
        print(f"stale allowlist entry {line}")
    for line in broken:
        print(f"broken lazy export {line}")
    print(
        f"reachability: {len(findings)} finding(s), {len(stale)} stale, "
        f"{len(broken)} broken export(s), {len(ALLOWLIST)} allowlisted"
    )
    return 1 if findings or stale or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
