"""Data-oblivious operators: sorting network, padded scans, truncated joins."""

from .._lazy import lazy_exports

__all__ = [
    "oblivious_multi_aggregate",
    "JoinResult",
    "match_pairs_truncated",
    "truncated_nested_loop_join",
    "PAD_KEY",
    "apply_network",
    "batcher_network",
    "charge_oblivious_sort",
    "composite_key",
    "network_comparator_count",
    "oblivious_compact",
    "oblivious_sort",
    "oblivious_join_multi_aggregate",
    "truncated_sort_merge_join",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".filter": ("oblivious_multi_aggregate",),
    ".join_common": ("JoinResult", "match_pairs_truncated"),
    ".nested_loop_join": ("truncated_nested_loop_join",),
    ".sort": (
        "PAD_KEY",
        "apply_network",
        "batcher_network",
        "charge_oblivious_sort",
        "composite_key",
        "network_comparator_count",
        "oblivious_compact",
        "oblivious_sort",
    ),
    ".sort_merge_join": (
        "oblivious_join_multi_aggregate",
        "truncated_sort_merge_join",
    ),
})
