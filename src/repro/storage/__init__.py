"""Storage layer: logical DB, outsourced shares, secure cache, view."""

from .growing_db import GrowingDatabase
from .materialized_view import MaterializedView
from .outsourced_table import OutsourcedTable
from .secure_cache import SecureCache

__all__ = [
    "GrowingDatabase",
    "MaterializedView",
    "OutsourcedTable",
    "SecureCache",
]
