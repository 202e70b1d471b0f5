"""Shared utilities: errors, RNG derivation, schemas/rows, metrics."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": (
        "ConfigurationError",
        "ContributionBudgetError",
        "PrivacyBudgetError",
        "ProtocolError",
        "ReproError",
        "SchemaError",
        "SecurityError",
    ),
    ".metrics": (
        "MetricLog",
        "MetricSummary",
        "QueryObservation",
        "improvement",
        "l1_error",
        "relative_error",
    ),
    ".rng": ("RING_BITS", "RING_MOD", "random_ring_elements", "spawn"),
    ".types": ("DUMMY_VALUE", "RecordBatch", "Schema", "as_rows"),
})
