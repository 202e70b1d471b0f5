"""Simulated two-party MPC: runtime, cost model, transcript, joint noise."""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_COST_MODEL",
    "CostModel",
    "joint_laplace",
    "joint_noise",
    "laplace_from_u32",
    "NShare",
    "NSharedTable",
    "ServerGroup",
    "MPCRuntime",
    "ProtocolContext",
    "ProtocolRun",
    "Server",
    "Transcript",
    "TranscriptEvent",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cost_model": ("DEFAULT_COST_MODEL", "CostModel"),
    ".joint_noise": ("joint_laplace", "joint_noise", "laplace_from_u32"),
    ".multiparty": ("NShare", "NSharedTable", "ServerGroup"),
    ".runtime": ("MPCRuntime", "ProtocolContext", "ProtocolRun", "Server"),
    ".transcript": ("Transcript", "TranscriptEvent"),
})
