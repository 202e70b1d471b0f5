"""From one run's raw series to its end-to-end metrics.

Kept apart from the run so that a results JSON (which carries the series)
can be read again with another estimator without running anything.  Every
estimator returns ``(as the clock read it, at reference host speed)``.

A reading is brought to reference speed by dividing it by the mean of the
host slowdown factors probed just before and just after it
(``loadgen.HostSpeed``).  On forty runs of one commit that took the
interquartile spread of every timed metric from 10–40 % of its median to
3–15 %; a weaker correction (the factor to the power 0.6), the fastest
repeat, a low quartile, and keeping only the readings taken while the host
probed fast all repeated worse.
"""

from __future__ import annotations

from . import stats


def _factor(probed: list) -> float:
    _raw, before, after = probed
    return (before + after) / 2.0


def _midmean(values: list) -> float:
    """Mean of the middle half: steadier than the median on ten readings,
    and a stalled or a lucky one does not reach it."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def repeated(probed: list) -> tuple[float, float]:
    """An operation timed ten times, each reading ``[raw, before, after]``."""
    return (
        _midmean([p[0] for p in probed]),
        _midmean([p[0] / _factor(p) for p in probed]),
    )


def middle(probed: list) -> tuple[float, float]:
    """An operation timed three times: the middle reading."""
    return (
        stats.median([p[0] for p in probed]),
        stats.median([p[0] / _factor(p) for p in probed]),
    )


def latency(series: dict, kind: str, q: float) -> tuple[float, float]:
    """A percentile of the steady phase's ``kind`` ("q" or "u") latencies,
    each scaled by its own step's factor."""
    factor = series["step_factor"]
    mine = [r for r in series["requests"] if r[0] == kind]
    return (
        stats.percentile([ms for _kind, ms, _step in mine], q),
        stats.percentile([ms / factor[step] for _kind, ms, step in mine], q),
    )


def query_rate(series: dict) -> tuple[float, float]:
    raw, scaled = repeated(series["rounds"])
    return series["queries_per_round"] / raw, series["queries_per_round"] / scaled


def upload_rate(series: dict) -> tuple[float, float]:
    """Bursts hold different steps (a Shrink release costs ten plain steps),
    so the rate is total steps over total busy time, not a statistic of
    per-burst rates."""
    bursts = series["bursts"]
    if not bursts:  # the first burst failed; the run reports that
        return 0.0, 0.0
    steps = sum(n for n, *_probed in bursts)
    return (
        steps / sum(probed[0] for _n, *probed in bursts),
        steps / sum(probed[0] / _factor(probed) for _n, *probed in bursts),
    )


def end_to_end(series: dict) -> dict:
    return {
        "setup_s": middle(series["setup"]),
        "query_p50_ms": latency(series, "q", 50),
        "query_p95_ms": latency(series, "q", 95),
        "upload_p50_ms": latency(series, "u", 50),
        "uploads_per_s": upload_rate(series),
        "queries_per_s": query_rate(series),
        "snapshot_s": repeated(series["snapshot"]),
        "restore_s": repeated(series["restore"]),
        "peak_rss_mb": (series["peak_rss_mb"],) * 2,
    }
