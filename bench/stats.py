"""Small statistics helpers shared by the load generator and compare.py."""

from __future__ import annotations

import os
import platform
import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def highest_supported_percentile(
    n: int, candidates=(99.9, 99.0, 95.0, 90.0, 50.0), beyond: int = 10
) -> float:
    """The highest candidate percentile with ``beyond`` samples past it.

    A tail percentile read off fewer than ten samples is one outlier's
    latency, not a property of the system; the median is always allowed.
    """
    for q in candidates:
        if samples_beyond(n, q) >= beyond:
            return q
    return 50.0


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def fingerprint() -> dict:
    """What must match before two result files may be compared."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
