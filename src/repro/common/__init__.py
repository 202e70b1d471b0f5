"""Shared utilities: errors, RNG derivation, schemas/rows, metrics."""

from .errors import (
    ConfigurationError,
    ContributionBudgetError,
    PrivacyBudgetError,
    ProtocolError,
    ReproError,
    SchemaError,
    SecurityError,
)
from .metrics import (
    MetricLog,
    MetricSummary,
    QueryObservation,
    improvement,
    l1_error,
    relative_error,
)
from .rng import RING_BITS, RING_MOD, msb, random_ring_elements, spawn, uniform_unit_from_u32
from .types import DUMMY_VALUE, RecordBatch, Schema, as_rows, multiset, rows_to_tuples

__all__ = [
    "ConfigurationError",
    "ContributionBudgetError",
    "PrivacyBudgetError",
    "ProtocolError",
    "ReproError",
    "SchemaError",
    "SecurityError",
    "MetricLog",
    "MetricSummary",
    "QueryObservation",
    "improvement",
    "l1_error",
    "relative_error",
    "RING_BITS",
    "RING_MOD",
    "msb",
    "random_ring_elements",
    "spawn",
    "uniform_unit_from_u32",
    "DUMMY_VALUE",
    "RecordBatch",
    "Schema",
    "as_rows",
    "multiset",
    "rows_to_tuples",
]
