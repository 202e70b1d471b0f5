"""``tools/reachability.py``: what only tests reach is reported, what an
entry point reaches is not, a stale allowlist entry fails the check, and a
package's lazy export table re-exports without using."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import reachability  # noqa: E402 (path bootstrap above)
from reachability import broken_exports, check, main  # noqa: E402

TREE = {
    "src/repro/__init__.py": (
        "from .lib import only_reexported, used\n"
        '__all__ = ["only_reexported", "used"]\n'
    ),
    "src/repro/__main__.py": "from .lib import used\n\nused()\n",
    "src/repro/lib.py": (
        "def used():\n"
        "    return _helper()\n"
        "\n\n"
        "def _helper():\n"
        "    return Traced()\n"
        "\n\n"
        "def only_tested():\n"
        "    return 1\n"
        "\n\n"
        "def only_reexported():\n"
        "    return 2\n"
        "\n\n"
        "class Traced:\n"
        "    def scan(self):\n"
        "        return 3\n"
        "\n"
        "    def probe(self):\n"
        "        return 4\n"
    ),
    "tests/test_lib.py": (
        "from repro.lib import Traced, only_tested\n"
        "\n\n"
        "def test_it():\n"
        "    assert only_tested() == 1 and Traced().probe() == 4\n"
    ),
    "bench/trace.py": 'TARGETS = [("repro.lib", "Traced.scan", None)]\n',
}


def make_tree(root: Path) -> Path:
    for rel, text in TREE.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def reported(findings: list[str]) -> set[str]:
    """The qualified names in ``path:line: name (N lines)`` findings."""
    return {line.split(": ", 1)[1].split(" (")[0] for line in findings}


def test_only_tests_and_reexports_reach_are_reported(tmp_path):
    findings, stale = check(make_tree(tmp_path), allowlist={})
    assert stale == []
    # only_tested: a test imports it; only_reexported: the package
    # ``__init__`` and ``__all__`` name it; Traced.probe: only a test calls it.
    assert reported(findings) == {"only_tested", "only_reexported", "Traced.probe"}
    assert "src/repro/lib.py:9: only_tested (2 lines)" in findings


def test_a_string_target_reaches_its_class_and_method(tmp_path):
    root = make_tree(tmp_path)
    assert "Traced.scan" not in reported(check(root, allowlist={})[0])
    (root / "bench" / "trace.py").write_text("TARGETS = []\n")
    assert "Traced.scan" in reported(check(root, allowlist={})[0])


def test_an_allowlist_entry_keeps_its_name_and_must_stay_needed(tmp_path):
    root = make_tree(tmp_path)
    findings, stale = check(root, allowlist={"lib.py::only_tested": "a formula"})
    assert "only_tested" not in reported(findings) and stale == []
    _, stale = check(root, allowlist={"lib.py::gone": "deleted", "lib.py::used": "reached"})
    assert stale == [
        "lib.py::gone: the name is gone",
        "lib.py::used: an entry point now reaches it",
    ]


def test_the_repository_passes(capsys):
    assert main(["reachability.py", str(REPO_ROOT)]) == 0
    assert "0 finding(s), 0 stale" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entry",
    ["src/repro/experiments/sweep.py", "bench/run.py", "examples/demo.py", "tools/report.py"],
)
def test_each_entry_point_kind_reaches(tmp_path, entry):
    root = make_tree(tmp_path)
    path = root / entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("from repro.lib import only_tested\n\nonly_tested()\n")
    assert "only_tested" not in reported(check(root, allowlist={})[0])


@pytest.mark.parametrize(
    "user", ["bench/test_run.py", "benchmarks/test_ablations.py", "tests/test_more.py"]
)
def test_test_and_benchmark_files_do_not_reach(tmp_path, user):
    root = make_tree(tmp_path)
    path = root / user
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("from repro.lib import only_tested\n\nonly_tested()\n")
    assert "only_tested" in reported(check(root, allowlist={})[0])


def write_module(root: Path, text: str) -> Path:
    """Add ``src/repro/extra.py`` to a tree; ``__main__`` imports nothing of it."""
    (root / "src" / "repro" / "extra.py").write_text(text)
    return root


def test_a_dead_class_is_one_finding_and_its_dunders_none(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        "class Dead:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def scan(self):\n"
        "        return 1\n",
    )
    findings = check(root, allowlist={})[0]
    # ``scan`` is an accessed name (the string target), but its class is dead.
    assert reported(findings) - {"only_tested", "only_reexported", "Traced.probe"} == {"Dead"}
    assert "src/repro/extra.py:1: Dead (6 lines)" in findings


def test_what_only_dead_code_calls_is_dead(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        "def dead():\n    return called_by_dead()\n\n\ndef called_by_dead():\n    return 1\n",
    )
    assert {"dead", "called_by_dead"} <= reported(check(root, allowlist={})[0])


def test_a_module_level_statement_is_a_use(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        'def registered():\n    return 1\n\n\nREGISTRY = {"k": registered}\n',
    )
    assert "registered" not in reported(check(root, allowlist={})[0])


def test_private_names_are_never_reported(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        "def _unused():\n    return 1\n\n\nclass _Hidden:\n    def scan_all(self):\n"
        "        return 2\n",
    )
    assert not {"_unused", "_Hidden", "_Hidden.scan_all"} & reported(
        check(root, allowlist={})[0]
    )


def test_a_finding_counts_its_decorators(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        "import functools\n\n\n@functools.cache\ndef cached():\n    return 1\n",
    )
    assert "src/repro/extra.py:4: cached (3 lines)" in check(root, allowlist={})[0]


def test_a_property_and_its_setter_are_one_unit(tmp_path):
    root = write_module(
        make_tree(tmp_path),
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        pass\n",
    )
    (root / "examples").mkdir()
    (root / "examples" / "demo.py").write_text("from repro.extra import Box\n\nBox()\n")
    findings = check(root, allowlist={})[0]
    assert "src/repro/extra.py:2: Box.size (6 lines)" in findings
    (root / "examples" / "demo.py").write_text("from repro.extra import Box\n\nBox().size\n")
    assert "Box.size" not in reported(check(root, allowlist={})[0])


def test_main_exits_1_and_names_each_finding(tmp_path, capsys):
    root = make_tree(tmp_path)
    assert main(["reachability.py", str(root)]) == 1
    out = capsys.readouterr().out
    assert "no entry point reaches src/repro/lib.py:9: only_tested (2 lines)" in out
    # The real allowlist names nothing this tree holds: every entry is stale.
    assert "stale allowlist entry dp/bounds.py::theorem4_min_updates: the name is gone" in out


LAZY_INIT = (
    "from ._lazy import lazy_exports\n"
    '__all__ = ["only_reexported", "used"]\n'
    "__getattr__, __dir__ = lazy_exports(__name__, {\n"
    '    ".lib": ("only_reexported", "used"),\n'
    "})\n"
)


def make_lazy_tree(root: Path, init: str = LAZY_INIT) -> Path:
    """The tree with a lazy ``__init__`` table in place of its imports."""
    make_tree(root)
    (root / "src" / "repro" / "__init__.py").write_text(init)
    (root / "src" / "repro" / "_lazy.py").write_text(
        "def lazy_exports(package, table):\n    return None, None\n"
    )
    return root


def test_a_name_only_a_lazy_table_and_tests_reach_is_reported(tmp_path):
    findings, stale = check(make_lazy_tree(tmp_path), allowlist={})
    # The table's strings re-export only_reexported; they do not use it.
    # The helper itself is reached: the package calls it on import.
    assert reported(findings) == {"only_tested", "only_reexported", "Traced.probe"}
    assert stale == [] and broken_exports(tmp_path) == []


def test_a_lazy_table_entry_that_names_nothing_is_reported(tmp_path, capsys):
    root = make_lazy_tree(
        tmp_path,
        "from ._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {\n"
        '    ".lib": ("used", "renamed_away"),\n'
        '    ".gone": ("anything",),\n'
        '    "..elsewhere": ("x",),\n'
        "})\n",
    )
    assert broken_exports(root) == [
        "src/repro/__init__.py:3: .lib defines no 'renamed_away'",
        "src/repro/__init__.py:4: no module '.gone'",
        "src/repro/__init__.py:5: no module '..elsewhere'",
    ]
    assert main(["reachability.py", str(root)]) == 1
    assert "broken lazy export src/repro/__init__.py:4: no module '.gone'" in (
        capsys.readouterr().out
    )


def test_an_entry_resolves_in_a_subpackage_and_its_parent(tmp_path):
    root = make_lazy_tree(tmp_path)
    sub = root / "src" / "repro" / "sub"
    sub.mkdir()
    (sub / "mod.py").write_text("if True:\n    VALUE = 1\nelse:\n    OTHER = 2\n")
    (sub / "__init__.py").write_text(
        "from .._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {\n"
        '    ".mod": ("VALUE", "OTHER"),\n'
        '    "..lib": ("Traced",),\n'
        "})\n"
    )
    assert broken_exports(root) == []


def test_counting_table_strings_as_uses_fails_the_repository(monkeypatch):
    # The mutant the check guards against: a lazy table read as an
    # ordinary module-level statement, whose dotted strings count as uses.
    monkeypatch.setattr(reachability, "_lazy_table", lambda stmt: None)
    _, stale = check(REPO_ROOT)
    assert "dp/bounds.py::theorem4_min_updates: an entry point now reaches it" in stale
    assert main(["reachability.py", str(REPO_ROOT)]) == 1
