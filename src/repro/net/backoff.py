"""Exponential backoff with full jitter for the client's redial loop.

The analyst client's ``connect()`` retries on this schedule:
exponential growth capped at a ceiling, with **full jitter** (the delay
is drawn uniformly from ``[0, min(cap, base * 2**attempt)]``).  Full
jitter is the AWS-architecture-blog result: among capped exponential
variants it minimizes total client work under contention, because
retries from a herd of clients spread over the whole window instead of
thundering in lockstep at the window's edge — exactly the failure mode
the linear ``base * attempt`` schedule this replaces exhibited when
many clients raced one restarting server.

Determinism note: the jitter draws from a caller-supplied RNG (or the
module's private one), never from the simulation's seeded streams —
redial timing is host-side operational noise and must not perturb the
deterministic share/noise randomness (the same discipline as thread
scheduling).
"""

from __future__ import annotations

import random as _random
from typing import Callable

#: First window's upper bound (seconds) — also the historical client
#: default ``retry_backoff=0.05``.
DEFAULT_BASE = 0.05
#: Ceiling on one delay (seconds): growth stops here, jitter remains.
DEFAULT_CAP = 2.0

#: Module-private RNG for jitter; independent of the simulation streams.
_JITTER_RNG = _random.Random()


def backoff_delay(
    attempt: int,
    base: float = DEFAULT_BASE,
    cap: float = DEFAULT_CAP,
    rng: Callable[[], float] | None = None,
) -> float:
    """The delay before retry number ``attempt`` (0-based).

    Attempt 0 (the first *retry*) draws from ``[0, base]``, attempt 1
    from ``[0, 2*base]``, and so on, with the window capped at ``cap``.
    ``rng`` is a 0-arg callable returning a float in ``[0, 1)``
    (defaults to a module-private :class:`random.Random`).

    >>> backoff_delay(3, base=0.05, cap=2.0, rng=lambda: 1.0)
    0.4
    >>> backoff_delay(50, base=0.05, cap=2.0, rng=lambda: 1.0)  # capped
    2.0
    >>> backoff_delay(2, rng=lambda: 0.0)  # full jitter reaches zero
    0.0
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base < 0 or cap < 0:
        raise ValueError(f"base and cap must be >= 0, got {base}, {cap}")
    # min() first: 2**attempt overflows no float for attempt <= 1023,
    # but there is no reason to compute huge powers at all.
    window = min(cap, base * (2.0 ** min(attempt, 62)))
    draw = _JITTER_RNG.random() if rng is None else rng()
    return window * draw


#: Floor on a server-supplied ``retry_after`` hint (seconds).  A hint of
#: 0 (an empty-but-refilling token bucket reports exactly that) taken
#: literally turns the client's polite retry loop into a busy-wait
#: hammering the very server that asked it to back off.
RETRY_AFTER_FLOOR = 0.01
#: Ceiling on a hint: a server (or a corrupted frame) must not be able
#: to park a client for minutes.
RETRY_AFTER_CAP = 30.0


def clamp_retry_after(
    hint: object,
    floor: float = RETRY_AFTER_FLOOR,
    cap: float = RETRY_AFTER_CAP,
) -> float:
    """A safe sleep from an untrusted ``retry_after`` hint.

    The hint came off the wire: it may be absent, zero, negative,
    non-finite, or not a number at all.  Every degenerate form maps to
    the floor — the retry loop's budget (``busy_retries``) bounds total
    waiting, this bounds the *rate*.

    >>> clamp_retry_after(0.5)
    0.5
    >>> clamp_retry_after(0)        # zero would busy-spin
    0.01
    >>> clamp_retry_after(None)     # absent hint
    0.01
    >>> clamp_retry_after(-3)       # negative is nonsense
    0.01
    >>> clamp_retry_after(float("inf"))  # unbounded park
    30.0
    >>> clamp_retry_after("soon")   # not a number
    0.01
    """
    try:
        value = float(hint)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return floor
    if value != value:  # NaN
        return floor
    return min(max(value, floor), cap)
