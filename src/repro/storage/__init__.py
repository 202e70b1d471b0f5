"""Storage layer: logical DB, outsourced shares, secure cache, view."""

from .._lazy import lazy_exports

__all__ = [
    "GrowingDatabase",
    "MaterializedView",
    "OutsourcedTable",
    "SecureCache",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".growing_db": ("GrowingDatabase",),
    ".materialized_view": ("MaterializedView",),
    ".outsourced_table": ("OutsourcedTable",),
    ".secure_cache": ("SecureCache",),
})
