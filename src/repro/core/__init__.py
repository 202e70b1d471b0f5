"""IncShrink core: view definitions, Transform, Shrink protocols."""

from .._lazy import lazy_exports

__all__ = [
    "ExhaustivePaddingSync",
    "OneTimeMaterialization",
    "ContributionLedger",
    "SharedCounter",
    "DPAboveThresholdOwnerSync",
    "DPTimerOwnerSync",
    "EveryStepSync",
    "SyncingOwner",
    "CacheFlusher",
    "FlushReport",
    "SDPANT",
    "SDPTimer",
    "ShrinkReport",
    "TransformProtocol",
    "TransformReport",
    "JoinViewDefinition",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".baselines": ("ExhaustivePaddingSync", "OneTimeMaterialization"),
    ".budget": ("ContributionLedger",),
    ".counter": ("SharedCounter",),
    ".dpsync": (
        "DPAboveThresholdOwnerSync",
        "DPTimerOwnerSync",
        "EveryStepSync",
        "SyncingOwner",
    ),
    ".flush": ("CacheFlusher", "FlushReport"),
    ".shrink_ant": ("SDPANT",),
    ".shrink_timer": ("SDPTimer", "ShrinkReport"),
    ".transform": ("TransformProtocol", "TransformReport"),
    ".view_def": ("JoinViewDefinition",),
})
