"""Workload generators: synthetic TPC-ds and CPDB streams plus variants."""

from .._lazy import lazy_exports

__all__ = [
    "ALLEGATION_SCHEMA",
    "AWARD_SCHEMA",
    "cpdb_view_def",
    "make_cpdb_workload",
    "StepUploads",
    "Workload",
    "RETURNS_SCHEMA",
    "SALES_SCHEMA",
    "make_tpcds_workload",
    "tpcds_view_def",
    "FIGURE9_SCALES",
    "VARIANT_MULTIPLIERS",
    "make_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cpdb": ("ALLEGATION_SCHEMA", "AWARD_SCHEMA", "cpdb_view_def", "make_cpdb_workload"),
    ".stream": ("StepUploads", "Workload"),
    ".tpcds": ("RETURNS_SCHEMA", "SALES_SCHEMA", "make_tpcds_workload", "tpcds_view_def"),
    ".variants": ("FIGURE9_SCALES", "VARIANT_MULTIPLIERS", "make_workload"),
})
