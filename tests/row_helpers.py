"""Row-array helpers for order-insensitive comparisons in tests."""

from __future__ import annotations

from typing import Mapping

import numpy as np


def rows_to_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Convert a row array to hashable tuples (useful for set comparisons)."""
    return [tuple(int(v) for v in r) for r in rows]


def multiset(rows: np.ndarray) -> Mapping[tuple[int, ...], int]:
    """Multiset view of a row array, for order-insensitive equality checks."""
    out: dict[tuple[int, ...], int] = {}
    for t in rows_to_tuples(rows):
        out[t] = out.get(t, 0) + 1
    return out
