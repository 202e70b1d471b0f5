"""Documentation stays true: links resolve, embedded examples and the
``examples/`` scripts run.

Mirrors the CI docs job (``tools/check_docs.py``) inside tier-1 so a
broken doc link or a stale code example fails locally before push.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402 (path bootstrap above)
    DOCS_DIR,
    check_links,
    markdown_files,
    run_doc_doctests,
    run_example_scripts,
)


def test_repo_has_documentation_pages():
    names = {p.name for p in markdown_files()}
    assert "README.md" in names
    assert (DOCS_DIR / "ARCHITECTURE.md").exists()
    assert (DOCS_DIR / "PAPER_MAP.md").exists()


def test_intra_repo_markdown_links_resolve():
    assert check_links() == []


def test_docs_code_examples_execute():
    failures, attempted = run_doc_doctests()
    assert failures == []
    assert attempted > 0, "docs must contain executable examples"


def test_example_scripts_exit_zero():
    failures, ran = run_example_scripts()
    assert failures == []
    assert ran > 0, "examples/ must contain runnable scripts"
