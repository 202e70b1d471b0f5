"""Discrete simulation clock.

The paper models a growing database as a sequence of timestamped logical
updates; all protocols (owner uploads, Transform, Shrink, cache flush,
query arrival) are driven by a shared discrete clock.  One tick equals one
owner upload period (a day for the TPC-ds scenario, five days for CPDB).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimClock:
    """A monotonically advancing integer clock starting at 0.

    ``tick()`` advances time and returns the new value, so the first
    simulated step is ``t = 1`` (matching the paper's ``for t <- 1, ...``
    loops, with ``t = 0`` reserved for setup).
    """

    now: int = 0
    _history: list[int] = field(default_factory=list, repr=False)

    def tick(self) -> int:
        self.now += 1
        self._history.append(self.now)
        return self.now

    def every(self, period: int) -> bool:
        """True when the current time is a multiple of ``period``.

        Mirrors the ``t mod T == 0`` checks in Algorithms 2 and the cache
        flush schedule.  A period of 0 or negative never fires.
        """
        return period > 0 and self.now > 0 and self.now % period == 0
