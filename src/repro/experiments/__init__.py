"""Experiment drivers reproducing every table and figure of the paper.

* :mod:`~repro.experiments.table2`  — end-to-end comparison table
* :mod:`~repro.experiments.figure4` — L1 × QET scatter of all systems
* :mod:`~repro.experiments.figure5` — ε sweep (3-way trade-off)
* :mod:`~repro.experiments.figure6` — Sparse/Standard/Burst workloads
* :mod:`~repro.experiments.figure7` — T/θ sweep at three privacy levels
* :mod:`~repro.experiments.figure8` — truncation bound ω sweep
* :mod:`~repro.experiments.figure9` — data-scale sweep

Each module exposes ``run_*`` (returns structured data) and ``format_*``
(renders the paper-shaped rows/series) plus a ``main`` entry point.
"""

from .._lazy import lazy_exports

__all__ = ["RunConfig", "RunResult", "run_experiment"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".harness": ("RunConfig", "RunResult", "run_experiment"),
})
