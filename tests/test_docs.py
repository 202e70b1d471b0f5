"""Documentation stays true: links resolve, embedded examples and the
``examples/`` scripts run, and imports in ``python`` blocks resolve.

Mirrors the CI docs job (``tools/check_docs.py``) inside tier-1 so a
broken doc link or a stale code example fails locally before push.
"""

from __future__ import annotations

import re
import shlex
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402 (path bootstrap above)
    DOCS_DIR,
    check_cli_commands,
    check_imports,
    check_links,
    heading_anchors,
    heading_slug,
    markdown_files,
    run_doc_doctests,
    run_example_scripts,
)

from repro.__main__ import _build_parser  # noqa: E402

#: One documented CLI invocation: everything after ``python -m repro``
#: up to the end of the line, an inline-code backtick, a shell comment,
#: or a shell operator.
_CLI_COMMAND = re.compile(r"python -m repro ([^`\n#&|;]*)")


def test_repo_has_documentation_pages():
    names = {p.name for p in markdown_files()}
    assert "README.md" in names
    assert (DOCS_DIR / "ARCHITECTURE.md").exists()
    assert (DOCS_DIR / "PAPER_MAP.md").exists()


def test_intra_repo_markdown_links_resolve():
    assert check_links() == []


def test_python_block_imports_resolve():
    assert check_imports() == []


def test_a_deleted_name_in_a_python_block_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```python\n"
        "from repro import (\n"
        "    IncShrinkDatabase,\n"
        "    Vanished as V,\n"
        ")\n"
        "import repro.query.ast\n"
        "import repro.gone\n"
        "```\n\n"
        "```bash\nfrom repro import Unchecked\n```\n",
        encoding="utf8",
    )
    assert check_imports([page]) == [
        f"{page}:2: cannot import repro.Vanished",
        f"{page}:7: cannot import repro.gone",
    ]


def test_fenced_cli_commands_name_defined_subcommands():
    assert check_cli_commands() == []


def test_a_missing_subcommand_in_a_fenced_block_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Prose may say python -m repro vanish-everything.\n\n"
        "```bash\n"
        "python -m repro serve --steps 4 --snapshot d.snap\n"
        "python -m repro --help\n"
        "PYTHONPATH=src python3 -m repro vanish-everything OLD NEW\n"
        "```\n",
        encoding="utf8",
    )
    assert check_cli_commands([page]) == [f"{page}:6: no subcommand 'vanish-everything'"]


def test_link_anchors_must_name_a_heading(tmp_path):
    (tmp_path / "target.md").write_text(
        "# Target\n\n## Where `ε` is spent: 0.5×\n\n"
        "```\n## Not a heading\n```\n",
        encoding="utf8",
    )
    source = tmp_path / "source.md"
    source.write_text(
        "[good](target.md#where-ε-is-spent-05)\n"
        "[broken](target.md#not-a-heading)\n"
        "[local](#anything)\n",
        encoding="utf8",
    )
    failures = check_links([source])
    assert len(failures) == 1
    assert "#not-a-heading" in failures[0]


@pytest.mark.parametrize(
    "heading, slug",
    [
        ("Leakage", "leakage"),
        ("Why worker processes leak nothing new", "why-worker-processes-leak-nothing-new"),
        ("The `process` backend: 0.63–0.79×", "the-process-backend-063079"),
        ("snake_case and kebab-case", "snake_case-and-kebab-case"),
        ("See [the paper](../PAPER.md) first", "see-the-paper-first"),
        ("Two  spaces", "two--spaces"),
        ("Q&A / FAQ", "qa--faq"),
        ("Ünïcode Wörds", "ünïcode-wörds"),
        ("6. Delete idle backends", "6-delete-idle-backends"),
    ],
)
def test_heading_slug_follows_the_github_rule(heading, slug):
    assert heading_slug(heading) == slug


@pytest.mark.parametrize(
    "markdown, anchors",
    [
        ("# A\n## A\n### A\n", {"a", "a-1", "a-2"}),
        ("# Title ##\n", {"title"}),
        ("   ## Indented three\n    ## Indented four\n", {"indented-three"}),
        ("#NoSpace\n# Real\n", {"real"}),
        ("~~~\n# Fenced\n~~~\n# After\n", {"after"}),
        ("````\n```\n# Still fenced\n```\n````\n# Out\n", {"out"}),
    ],
    ids=["repeats", "closing-hashes", "indent", "no-space", "tilde-fence", "nested-fence"],
)
def test_heading_anchors(tmp_path, markdown, anchors):
    page = tmp_path / "page.md"
    page.write_text(markdown, encoding="utf8")
    assert heading_anchors(page) == anchors


def test_anchor_on_a_non_markdown_target_is_not_checked(tmp_path):
    (tmp_path / "script.py").write_text("pass\n", encoding="utf8")
    (tmp_path / "sub").mkdir()
    source = tmp_path / "source.md"
    source.write_text(
        "[code](script.py#L1)\n[dir](sub#x)\n[web](https://example.org/a.md#nope)\n",
        encoding="utf8",
    )
    assert check_links([source]) == []


def test_missing_target_reported_once_not_as_an_anchor(tmp_path):
    source = tmp_path / "source.md"
    source.write_text("[gone](missing.md#section)\n", encoding="utf8")
    failures = check_links([source])
    assert len(failures) == 1
    assert "broken link" in failures[0]


def test_docs_code_examples_execute():
    failures, attempted = run_doc_doctests()
    assert failures == []
    assert attempted > 0, "docs must contain executable examples"


def test_example_scripts_exit_zero():
    failures, ran = run_example_scripts()
    assert failures == []
    assert ran > 0, "examples/ must contain runnable scripts"


def documented_cli_commands() -> list[tuple[str, str]]:
    """``(page, arguments)`` for every ``python -m repro …`` in README.md
    and docs/*.md, with backslash-continued lines joined."""
    found = []
    for page in [REPO_ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]:
        text = page.read_text(encoding="utf8").replace("\\\n", " ")
        for match in _CLI_COMMAND.finditer(text):
            found.append((page.name, match.group(1).strip()))
    return found


def test_documented_cli_commands_parse():
    """A removed subcommand or flag must not linger in the docs."""
    commands = documented_cli_commands()
    assert len(commands) > 20
    failures = []
    for page, arguments in commands:
        try:
            _build_parser().parse_args(shlex.split(arguments))
        except SystemExit:
            failures.append(f"{page}: python -m repro {arguments}")
    assert failures == []
