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
from .rng import RING_BITS, RING_MOD, random_ring_elements, spawn
from .types import DUMMY_VALUE, RecordBatch, Schema, as_rows

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
    "random_ring_elements",
    "spawn",
    "DUMMY_VALUE",
    "RecordBatch",
    "Schema",
    "as_rows",
]
