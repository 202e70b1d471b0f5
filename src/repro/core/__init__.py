"""IncShrink core: view definitions, Transform, Shrink protocols."""

from .baselines import ExhaustivePaddingSync, OneTimeMaterialization
from .budget import ContributionLedger
from .counter import SharedCounter
from .dpsync import (
    DPAboveThresholdOwnerSync,
    DPTimerOwnerSync,
    EveryStepSync,
    SyncingOwner,
)
from .flush import CacheFlusher, FlushReport
from .shrink_ant import SDPANT
from .shrink_timer import SDPTimer, ShrinkReport
from .transform import TransformProtocol, TransformReport
from .view_def import JoinViewDefinition

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
