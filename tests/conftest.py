"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.mpc.runtime import MPCRuntime


@pytest.fixture
def runtime() -> MPCRuntime:
    return MPCRuntime(seed=1234)


@pytest.fixture
def ctx(runtime):
    """An open protocol context (closed automatically at teardown)."""
    with runtime.protocol("test-protocol", time=1) as c:
        yield c


@pytest.fixture
def tiny_view_def() -> JoinViewDefinition:
    """A small join view: orders ⋈ shipments on key within 2 steps."""
    return JoinViewDefinition(
        name="tiny",
        probe_table="orders",
        probe_schema=Schema(("key", "ots")),
        probe_key="key",
        probe_ts="ots",
        driver_table="shipments",
        driver_schema=Schema(("key", "sts")),
        driver_key="key",
        driver_ts="sts",
        window_lo=0,
        window_hi=2,
        omega=2,
        budget=6,
    )


def batch(schema: Schema, rows, capacity: int | None = None) -> RecordBatch:
    """Helper to build (optionally padded) record batches in tests."""
    b = RecordBatch(schema, np.asarray(rows, dtype=np.uint32).reshape(-1, schema.width))
    if capacity is not None:
        b = b.padded_to(capacity)
    return b


@pytest.fixture(autouse=True)
def no_unhandled_loop_errors(monkeypatch):
    """Fail any test whose :class:`NetworkServer` swallowed an exception.

    Requests run on the event-loop threads; an exception escaping a
    handler there cannot propagate to the test — the loop records it in
    ``_unhandled_errors`` and carries on — so every server started during
    a test is checked at teardown.
    """
    from repro.net.server import NetworkServer

    started: list[NetworkServer] = []
    start = NetworkServer.start

    def recording_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(NetworkServer, "start", recording_start)
    yield
    for net in started:
        assert net._unhandled_errors == [], net._unhandled_errors
