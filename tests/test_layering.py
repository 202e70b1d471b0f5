"""Layering guard: the lower layers never import the upper ones.

``core/``, ``storage/``, ``query/`` and the rest are the protocol and
substrate layers; ``server/``, ``net/`` and ``experiments/`` are built on
them.  Only those three packages and the package entry points
(``__init__.py``, ``__main__.py``) may import ``repro.server``,
``repro.net`` or ``repro.experiments`` — at module level, inside a
function, under ``TYPE_CHECKING`` or through a package's lazy export
table alike.

The hash-chained checkpoint file (``storage/chain.py``) knows no
database: it imports the standard library, numpy and, of ``repro``,
only the errors.

The secure cache (``storage/secure_cache.py``) is one table in append
order: it imports no other ``repro.storage`` module, so it cannot take
a shard layout back by the side door.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages that sit on top of the protocol layers.
UPPER = ("server", "net", "experiments")
#: Top-level modules allowed to import them: the package entry points.
ENTRY_POINTS = ("__init__.py", "__main__.py")
#: The chain-file module, and everything it may import beside the stdlib.
CHAIN = Path("storage") / "chain.py"
CHAIN_IMPORTS = ("numpy", "repro.common.errors")
#: The cache and view modules, which may import nothing else of
#: ``repro.storage``.
CACHE = Path("storage") / "secure_cache.py"
VIEW = Path("storage") / "materialized_view.py"


def imported_modules(path: Path, root: Path = SRC) -> list[tuple[int, str]]:
    """``(line, absolute module)`` for every import in ``path``.

    Relative imports are resolved against the file's package under
    ``root``; ``from .. import server`` counts as importing
    ``repro.server``, and a module a ``lazy_exports`` table names
    (``".database"``) counts as imported on that table's line.
    """
    package = ["repro", *path.parent.relative_to(root).parts]
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and isinstance(node.args[1], ast.Dict)
        ):
            for key in node.args[1].keys:
                name = key.value.lstrip(".")
                base = package[: len(package) - (len(key.value) - len(name)) + 1]
                found.append((key.lineno, ".".join(base + [name])))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            if module == "repro":
                found.extend(
                    (node.lineno, f"repro.{alias.name}") for alias in node.names
                )
            else:
                found.append((node.lineno, module))
    return found


def upward_imports(root: Path = SRC) -> list[str]:
    """Every import of an upper package from outside the upper packages."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] in UPPER or str(relative) in ENTRY_POINTS:
            continue
        for line, module in imported_modules(path, root):
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER:
                violations.append(f"src/repro/{relative}:{line} imports {module}")
    return violations


def test_lower_layers_never_import_server_net_or_experiments():
    assert upward_imports() == []


def test_guard_sees_function_level_and_type_checking_imports(tmp_path):
    package = tmp_path / "storage"
    package.mkdir()
    (package / "lazy.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..server.runtime import DatabaseServer\n"
        "def f():\n"
        "    from ..net import client\n"
        "    from .. import experiments\n"
        "    import repro.server.database\n",
        encoding="utf8",
    )
    (package / "__init__.py").write_text(
        "from .._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {\n"
        '    ".lazy": ("f",),\n'
        '    "..server.runtime": ("DatabaseServer",),\n'
        "})\n",
        encoding="utf8",
    )
    (tmp_path / "__main__.py").write_text("from .server import x\n", encoding="utf8")
    assert sorted(upward_imports(tmp_path)) == [
        "src/repro/storage/__init__.py:4 imports repro.server.runtime",
        "src/repro/storage/lazy.py:3 imports repro.server.runtime",
        "src/repro/storage/lazy.py:5 imports repro.net",
        "src/repro/storage/lazy.py:6 imports repro.experiments",
        "src/repro/storage/lazy.py:7 imports repro.server.database",
    ]


def chain_imports(root: Path = SRC) -> list[str]:
    """Every import of the chain-file module beyond the stdlib, numpy and
    ``repro.common.errors``."""
    return [
        f"src/repro/{CHAIN}:{line} imports {module}"
        for line, module in imported_modules(root / CHAIN, root)
        if module.split(".")[0] not in sys.stdlib_module_names
        and module not in CHAIN_IMPORTS
    ]


def test_the_chain_module_knows_no_database():
    assert chain_imports() == []


def test_chain_guard_sees_an_import_of_the_server(tmp_path):
    package = tmp_path / "storage"
    package.mkdir()
    (package / "chain.py").write_text(
        "from __future__ import annotations\n"
        "import hashlib\n"
        "import numpy as np\n"
        "from ..common.errors import PersistenceError\n"
        "from ..server import persistence\n"
        "from ..common import column_log\n",
        encoding="utf8",
    )
    assert chain_imports(tmp_path) == [
        "src/repro/storage/chain.py:5 imports repro.server",
        "src/repro/storage/chain.py:6 imports repro.common",
    ]


def storage_imports(path: Path, root: Path = SRC) -> list[str]:
    """Every import of another ``repro.storage`` module by ``path``."""
    return [
        f"src/repro/{path}:{line} imports {module}"
        for line, module in imported_modules(root / path, root)
        if module == "repro.storage" or module.startswith("repro.storage.")
    ]


def test_the_cache_imports_no_other_storage_module():
    assert storage_imports(CACHE) == []


def test_the_view_imports_no_other_storage_module():
    """The view owns its layout: no storage module places its rows."""
    assert storage_imports(VIEW) == []


def test_cache_guard_sees_a_storage_import(tmp_path):
    package = tmp_path / "storage"
    package.mkdir()
    (package / "secure_cache.py").write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from ..sharing.shared_value import SharedTable\n"
        "from .sharding import ShardLayout\n"
        "from . import materialized_view\n"
        "import repro.storage.chain\n",
        encoding="utf8",
    )
    assert storage_imports(CACHE, tmp_path) == [
        "src/repro/storage/secure_cache.py:4 imports repro.storage.sharding",
        "src/repro/storage/secure_cache.py:5 imports repro.storage",
        "src/repro/storage/secure_cache.py:6 imports repro.storage.chain",
    ]
