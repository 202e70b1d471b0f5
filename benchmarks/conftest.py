"""Benchmark-suite configuration.

Every benchmark reproduces one table or figure of the paper: it runs the
corresponding experiment driver once (``benchmark.pedantic`` with a
single round — the drivers are full simulations, not micro-kernels),
prints the paper-shaped rows/series to stdout, and asserts the headline
*shape* claims (who wins, monotonicity, orders of magnitude).

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the reproduced tables inline; without it they are captured.

The ``BENCH_*.json`` files at the repo root are the committed perf
record.  Benchmarks hand their result to the :func:`record_bench`
fixture, which writes the file only under ``--benchmark-only`` — the
explicit benchmark run the CI smoke jobs make.  A plain ``pytest`` run
(tier-1 collects this directory) checks every assertion and leaves the
record alone, so a test run never shows up as a perf diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

# The loop oracles the kernels are benchmarked beside live in the tier-1
# tests; a run of this directory alone does not have them importable.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def emit(text: str) -> None:
    """Print a reproduced table/figure with surrounding whitespace."""
    print()
    print(text)
    print()


@pytest.fixture
def record_bench(request):
    """``record(path, document) -> note``: write ``document`` as JSON to
    ``path`` if this is a ``--benchmark-only`` run; either way return
    the one-line note to print under the reproduced table."""
    recording = request.config.getoption("benchmark_only", default=False)

    def record(path: Path, document: dict) -> str:
        if not recording:
            return f"not recorded (--benchmark-only updates {path.name})"
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf8")
        return f"recorded to {path.name}"

    return record
