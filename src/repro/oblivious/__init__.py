"""Data-oblivious operators: sorting network, padded scans, truncated joins."""

from .filter import oblivious_multi_aggregate
from .join_common import JoinResult, match_pairs_truncated
from .nested_loop_join import truncated_nested_loop_join
from .sort import (
    PAD_KEY,
    apply_network,
    batcher_network,
    charge_oblivious_sort,
    composite_key,
    network_comparator_count,
    oblivious_compact,
    oblivious_sort,
)
from .sort_merge_join import (
    oblivious_join_multi_aggregate,
    truncated_sort_merge_join,
)

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
