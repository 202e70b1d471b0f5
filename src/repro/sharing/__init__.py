"""Secret sharing: XOR (2,2)/(k,k) schemes and shared containers."""

from .._lazy import lazy_exports

__all__ = [
    "WORD_BYTES",
    "SharedArray",
    "SharedTable",
    "recover_array",
    "recover_array_k",
    "reshare_from_contributions",
    "share_array",
    "share_array_k",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".shared_value": ("WORD_BYTES", "SharedArray", "SharedTable"),
    ".xor_sharing": (
        "recover_array",
        "recover_array_k",
        "reshare_from_contributions",
        "share_array",
        "share_array_k",
    ),
})
