"""Network serving subsystem: wire protocol, socket server, client SDK.

Everything the in-process serving runtime exposes — ordered uploads,
planned queries over the full :class:`~repro.query.ast.LogicalQuery`
AST, observability, checkpoints, resharding — made reachable across a
real service boundary:

* :mod:`repro.net.protocol` — the versioned, length-prefixed binary
  frame format (stdlib ``struct``): a JSON head plus raw little-endian
  array blobs in every frame, and an incremental :class:`FrameDecoder`
  for event-driven reassembly;
* :mod:`repro.net.server` — :class:`NetworkServer`, an event-driven
  (``selectors``) reactor front door: a small pool of loop threads
  multiplexing non-blocking sockets, bounded admission
  (reject-with-``retry_after``, no unbounded buffering), idle/stall
  timers, upload coalescing, and graceful drain;
* :mod:`repro.net.client` — :class:`IncShrinkClient`, a typed SDK with
  connect/retry, pipelined
  ``upload_many``, bytes-on-wire metering, and results mirroring
  :class:`~repro.server.database.DatabaseQueryResult`.

See ``docs/NETWORK.md`` for the frame reference and the leakage
argument (the wire exposes nothing beyond the snapshot format's surface
plus public lengths).
"""

from .._lazy import lazy_exports

__all__ = [
    "FRAME_CODES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "FrameDecoder",
    "IncShrinkClient",
    "NetworkServer",
    "RemoteError",
    "RemoteQueryResult",
    "VersionMismatch",
    "WireError",
    "encode_frame",
    "read_frame",
    "write_frame",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("IncShrinkClient",),
    ".protocol": (
        "FRAME_CODES",
        "MAX_FRAME_BYTES",
        "PROTOCOL_MAGIC",
        "PROTOCOL_VERSION",
        "ConnectionClosed",
        "FrameDecoder",
        "RemoteError",
        "RemoteQueryResult",
        "VersionMismatch",
        "WireError",
        "encode_frame",
        "read_frame",
        "write_frame",
    ),
    ".server": ("NetworkServer",),
})
