#!/usr/bin/env python
"""Documentation checks: link integrity, executable examples, imports.

Five checks, all run by the CI docs job and by ``tests/test_docs.py``:

1. **Links** — every intra-repo markdown link (``[text](relative/path)``)
   in every tracked ``*.md`` file must resolve to an existing file or
   directory, and a ``#anchor`` on a link to a markdown file must name
   one of that file's headings (GitHub's slug rule; headings inside
   fenced code do not count).  External (``http(s)://``, ``mailto:``)
   and pure-anchor (``#...``) links are skipped.
2. **Doctests** — every ``docs/*.md`` file runs through
   :mod:`doctest`, so the code examples embedded in the documentation
   stay executable as the API evolves (run with ``PYTHONPATH=src``).
3. **Examples** — every ``examples/*.py`` script exits 0 in a
   subprocess with ``src`` on its path, so a renamed or deleted public
   name cannot break the scripts the README points at unnoticed.
4. **Imports** — every ``from repro… import …`` / ``import repro…``
   statement in a fenced ``python`` block of a tracked markdown file
   must resolve (run with ``PYTHONPATH=src``).  Those blocks (the README
   quick start among them) are not doctests, so without this a deleted
   public name in one would go unnoticed.
5. **Subcommands** — every ``python -m repro <command>`` in a fenced
   code block of a tracked markdown file must name a subcommand that
   :mod:`repro.__main__`'s parser defines, so a deleted command cannot
   linger in a copy-paste recipe.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS_DIR = REPO_ROOT / "docs"
EXAMPLES_DIR = REPO_ROOT / "examples"

#: ``[text](target)`` — target captured without closing paren or spaces.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: An ATX heading line; group 1 is its text without closing hashes.
_HEADING_RE = re.compile(r"^ {0,3}#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
#: A code-fence line; group 1 is the fence itself.
_FENCE_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})")
#: ``from repro… import names`` (a parenthesised list may span lines)
#: or ``import repro…``, at the start of a line.
_IMPORT_RE = re.compile(
    r"^[ \t]*(?:from[ \t]+(repro[\w.]*)[ \t]+import[ \t]+(\([^)]*\)|[^\n#]+)"
    r"|import[ \t]+(repro[\w.]*))",
    re.MULTILINE,
)
#: ``python -m repro <command>``; group 1 is the command.
_CLI_RE = re.compile(r"python3? -m repro[ \t]+([a-z][\w-]*)")
#: Directories never scanned for markdown.
_SKIP_DIRS = {".git", ".ruff_cache", "__pycache__", ".pytest_benchmarks"}


def markdown_files(root: Path = REPO_ROOT) -> list[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if any(part in _SKIP_DIRS for part in path.relative_to(root).parts):
            continue
        files.append(path)
    return files


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:")) or (
        "://" in target.split("#", 1)[0]
    )


def heading_slug(heading: str) -> str:
    """GitHub's anchor for a heading: inline links reduced to their
    text, lowercased, punctuation other than ``-``/``_`` dropped, spaces
    turned into hyphens.

    >>> heading_slug("The `process` backend: 0.63–0.79×")
    'the-process-backend-063079'
    """
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def heading_anchors(path: Path) -> set[str]:
    """Every anchor GitHub renders for ``path``'s ATX headings; repeated
    slugs get ``-1``, ``-2``, ... suffixes."""
    anchors: set[str] = set()
    fence = None
    for line in path.read_text(encoding="utf8").splitlines():
        marker = _FENCE_RE.match(line)
        if marker:
            if fence is None:
                fence = marker.group(1)
            elif marker.group(1).startswith(fence):
                fence = None
            continue
        heading = None if fence else _HEADING_RE.match(line)
        if heading:
            slug = base = heading_slug(heading.group(1))
            n = 0
            while slug in anchors:
                n += 1
                slug = f"{base}-{n}"
            anchors.add(slug)
    return anchors


def code_blocks(path: Path) -> list[tuple[int, str, str]]:
    """``(first line number, info string, source)`` of every fenced block."""
    blocks = []
    fence = None
    lines: list[str] = []
    start, info = 0, ""
    for number, line in enumerate(path.read_text(encoding="utf8").splitlines(), 1):
        marker = _FENCE_RE.match(line)
        if fence is None:
            if marker:
                fence = marker.group(1)
                info = line.strip()[len(fence):].strip()
                lines, start = [], number + 1
        elif marker and marker.group(1).startswith(fence) and line.strip() == marker.group(1):
            blocks.append((start, info, "\n".join(lines)))
            fence = None
        else:
            lines.append(line)
    return blocks


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """``(first line number, source)`` of every fenced ``python`` block."""
    return [(start, source) for start, info, source in code_blocks(path) if info == "python"]


def _unresolved(module: str, names: list[str]) -> list[str]:
    """The parts of one import statement that do not resolve."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return [module]
    missing = []
    for name in names:
        if hasattr(imported, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}")
    return missing


def check_imports(files: list[Path] | None = None) -> list[str]:
    """Return one failure message per unresolved ``repro`` import in a
    fenced ``python`` block."""
    failures = []
    for path in files if files is not None else markdown_files():
        for start, source in python_blocks(path):
            for match in _IMPORT_RE.finditer(source):
                module, names, plain = match.groups()
                if plain:
                    module, names = plain, ""
                names = [
                    part.split(" as ")[0].strip()
                    for part in names.strip("()").split(",")
                    if part.strip()
                ]
                line = start + source.count("\n", 0, match.start())
                failures.extend(
                    f"{_shown(path)}:{line}: cannot import {what}"
                    for what in _unresolved(module, names)
                )
    return failures


def cli_subcommands() -> set[str]:
    """The subcommands ``python -m repro`` defines."""
    from repro.__main__ import _build_parser

    (subparsers,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(subparsers.choices)


def check_cli_commands(files: list[Path] | None = None) -> list[str]:
    """Return one failure message per ``python -m repro <command>`` in a
    fenced code block whose command the CLI does not define."""
    commands = cli_subcommands()
    failures = []
    for path in files if files is not None else markdown_files():
        for start, _, source in code_blocks(path):
            for match in _CLI_RE.finditer(source):
                if match.group(1) not in commands:
                    line = start + source.count("\n", 0, match.start())
                    failures.append(
                        f"{_shown(path)}:{line}: no subcommand {match.group(1)!r}"
                    )
    return failures


def _shown(path: Path) -> Path:
    return path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path


def check_links(files: list[Path] | None = None) -> list[str]:
    """Return one failure message per broken intra-repo link or anchor."""
    failures = []
    anchors: dict[Path, set[str]] = {}
    for path in files if files is not None else markdown_files():
        text = path.read_text(encoding="utf8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if _is_external(target) or target.startswith("#"):
                continue
            relative, _, anchor = target.partition("#")
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                failures.append(
                    f"{_shown(path)}: broken link [{target}] -> {resolved}"
                )
            elif anchor and resolved.suffix == ".md":
                if resolved not in anchors:
                    anchors[resolved] = heading_anchors(resolved)
                if anchor not in anchors[resolved]:
                    failures.append(
                        f"{_shown(path)}: broken anchor [{target}] -> no "
                        f"heading #{anchor} in {_shown(resolved)}"
                    )
    return failures


def run_doc_doctests(docs_dir: Path = DOCS_DIR) -> tuple[list[str], int]:
    """Run doctest over every docs/*.md once.

    Returns ``(failure_summaries, examples_attempted)``.
    """
    failures = []
    attempted = 0
    for path in sorted(docs_dir.glob("*.md")):
        results = doctest.testfile(
            str(path), module_relative=False, verbose=False
        )
        attempted += results.attempted
        if results.failed:
            failures.append(
                f"{path.relative_to(REPO_ROOT)}: {results.failed} of "
                f"{results.attempted} doctest examples failed"
            )
    return failures, attempted


def run_example_scripts(examples_dir: Path = EXAMPLES_DIR) -> tuple[list[str], int]:
    """Run every examples/*.py in a subprocess with ``src`` importable.

    Returns ``(failure_summaries, scripts_run)``; a failure carries the
    script's stderr.
    """
    src = str(REPO_ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src,
    }
    failures = []
    scripts = sorted(examples_dir.glob("*.py"))
    for path in scripts:
        done = subprocess.run(
            [sys.executable, str(path)],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if done.returncode != 0:
            failures.append(
                f"{path.relative_to(REPO_ROOT)}: exit {done.returncode}\n"
                f"{done.stderr.rstrip()}"
            )
    return failures, len(scripts)


def main() -> int:
    files = markdown_files()
    link_failures = check_links(files)
    doctest_failures, n_examples = run_doc_doctests()
    script_failures, n_scripts = run_example_scripts()
    import_failures = check_imports(files)
    command_failures = check_cli_commands(files)
    failures = (
        link_failures + doctest_failures + script_failures + import_failures + command_failures
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"docs ok: {len(files)} markdown files linked correctly, "
        f"{n_examples} doc examples pass, {n_scripts} example scripts exit 0, "
        "every python-block import resolves, every documented subcommand exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
