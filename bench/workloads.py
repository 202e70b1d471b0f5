"""The four workloads: every input is generated here, in the parent, from the seed.

The server child receives only what :class:`Inputs` carries in ``spec``
(view registrations, database constructor arguments, preload rows, tenant
specs) and, over the socket, the generated uploads and queries.  It never
sees a workload name or the seed.

Work is fixed per run (so latencies are comparable between commits: a
faster commit must not be "rewarded" with a larger database).  ``Size``
gives each workload's step count per second of ``--seconds``, calibrated on
the 2-core reference host so that the timed phases take about
``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.query.ast import AggregateSpec, ColumnRange, LogicalQuery

#: ε of the one released query per step in ``tpcds-small``.
RELEASE_EPSILON = 0.01
#: Analyst cap in ``tpcds-small``: enforced on every release, never reached.
ANALYST_EPSILON_CAP = 1.0e6
#: Value ranges of the ``bigview`` preload's product ids and timestamps.
PID_DOMAIN = 1 << 24
TS_DOMAIN = 1 << 16


@dataclass(frozen=True)
class Size:
    """How much work one workload does per second of ``--seconds``.

    The steady phase needs enough steps for a few hundred query samples;
    the upload burst needs enough steps to last about a second, however
    cheap a step is — so the two are sized independently.
    """

    dataset: str
    scale: float
    #: phase A: steps (one upload + 4 queries each)
    steady_steps_per_second: float
    #: phase C: steps pipelined through ``upload_many``
    burst_steps_per_second: float
    #: phase B: queries per client per round
    burst_queries_per_second: float
    n_shards: int = 1
    preload_rows: int = 0


SIZES = {
    "tpcds-small": Size("tpcds", 1.0, 12.0, 30.0, 1.5),
    "cpdb-heavy": Size("cpdb", 2.5, 5.0, 9.0, 0.3),
    "bigview-repeat": Size(
        "tpcds", 1.0, 8.0, 50.0, 1.8, n_shards=4, preload_rows=400_000
    ),
    "bigview-adhoc": Size(
        "tpcds", 1.0, 8.0, 50.0, 1.0, n_shards=4, preload_rows=400_000
    ),
}


@dataclass
class Inputs:
    """Everything one run feeds the system, generated from the seed."""

    #: what the child builds the deployment from (pickled to the run dir)
    spec: dict
    #: ``(time, [(table, batch), ...])`` per step, in stream order
    steps: list
    #: steady-phase queries: ``queries[i]`` follows the i-th upload;
    #: each entry is ``(query, epsilon_or_None)``
    queries: list
    #: phase B: the fixed list each burst client cycles through
    burst_queries: list
    #: how many of ``steps`` the steady phase takes; the burst takes the rest
    steady_steps: int
    #: ``role -> {"tenant": ..., "token": ...}`` client kwargs ({} = open server)
    credentials: dict = field(default_factory=dict)


def _multiview(size: Size, n_steps: int, seed: int):
    deployment = build_multiview_deployment(
        MultiViewRunConfig(
            dataset=size.dataset, n_steps=n_steps, seed=seed, scale=size.scale
        )
    )
    steps = [
        (step.time, deployment.upload_items(step))
        for step in deployment.workload.steps
    ]
    return deployment, steps


def _database_args(deployment, n_shards: int) -> dict:
    return {
        "total_epsilon": deployment.database.total_epsilon,
        "seed": deployment.config.seed,
        "n_shards": n_shards,
    }


def _served_mix(name: str, size: Size, n_steady: int, n_burst: int, seed: int) -> Inputs:
    """``tpcds-small`` / ``cpdb-heavy``: the canonical three-view deployment."""
    deployment, steps = _multiview(size, n_steady + n_burst, seed)
    count_full, count_recent, sum_full, dashboard = deployment.step_queries
    tenants = []
    credentials = {}
    release = None
    if name == "tpcds-small":
        release = RELEASE_EPSILON
        tenants = [
            "owner:owner-token:owner",
            f"analyst:analyst-token:analyst:{ANALYST_EPSILON_CAP}",
            "admin:admin-token:admin",
        ]
        credentials = {
            role: {"tenant": role, "token": f"{role}-token"}
            for role in ("owner", "analyst", "admin")
        }
    mix = [
        (count_full, None),
        (count_recent, None),
        (sum_full, None),
        (dashboard, release),
    ]
    return Inputs(
        spec={
            "database": _database_args(deployment, size.n_shards),
            "views": list(deployment.database.registrations),
            "preload": None,
            "tenants": tenants,
        },
        steps=steps,
        queries=[mix] * n_steady,
        burst_queries=mix,
        steady_steps=n_steady,
        credentials=credentials,
    )


def _preload_rows(gen: np.random.Generator, n_rows: int):
    """View-shaped rows ``(p_pid, p_sale_ts, d_pid, d_return_ts)`` + flags.

    Stands in for the view a long-lived deployment has accumulated;
    replaying the stream that would grow it would take minutes.  Roughly
    half the slots are dummies, as in a DP-sized view.
    """
    pid = gen.integers(1, PID_DOMAIN, size=n_rows, dtype=np.uint32)
    sale_ts = gen.integers(1, TS_DOMAIN, size=n_rows, dtype=np.uint32)
    delay = gen.integers(0, 10, size=n_rows, dtype=np.uint32)
    rows = np.column_stack([pid, sale_ts, pid, sale_ts + delay])
    flags = gen.integers(0, 2, size=n_rows, dtype=np.uint32)
    return rows, flags


def _bigview(name: str, size: Size, n_steady: int, n_burst: int, seed: int) -> Inputs:
    """``bigview-*``: one dp-timer view over the tpcds join, 4 shards, preloaded."""
    deployment, steps = _multiview(size, n_steady + n_burst, seed)
    registration = deployment.database.registrations[0]
    vd = registration.view_def
    gen = np.random.default_rng([seed, 0xB16])
    rows, flags = _preload_rows(gen, size.preload_rows)

    driver_ts = (vd.driver_table, vd.driver_ts)
    shapes = [
        (AggregateSpec.count(),),
        (AggregateSpec.sum_of(*driver_ts),),
        (
            AggregateSpec.count(),
            AggregateSpec.sum_of(*driver_ts),
            AggregateSpec.avg_of(*driver_ts),
        ),
        (AggregateSpec.count(), AggregateSpec.sum_of(vd.probe_table, vd.probe_ts)),
    ]

    def pid_range() -> ColumnRange:
        lo, hi = sorted(int(v) for v in gen.integers(1, PID_DOMAIN, size=2))
        return ColumnRange(vd.probe_table, vd.probe_key, lo, hi)

    def mix(predicates) -> list:
        return [
            (LogicalQuery.for_view(vd, *aggs, predicate=pred), None)
            for aggs, pred in zip(shapes, predicates)
        ]

    if name == "bigview-repeat":
        fixed = mix([None, None, None, pid_range()])
        queries = [fixed] * n_steady
        burst = fixed
    else:
        queries = [mix([pid_range() for _ in shapes]) for _ in range(n_steady)]
        # Phase B draws fresh predicates too: far more distinct plans than
        # the accumulator cache holds, so every burst query is a cold scan.
        burst = [q for _ in range(64) for q in mix([pid_range() for _ in shapes])]
    return Inputs(
        spec={
            "database": _database_args(deployment, size.n_shards),
            "views": [registration],
            "preload": {"view": vd.name, "rows": rows, "flags": flags},
            "tenants": [],
        },
        steps=steps,
        queries=queries,
        burst_queries=burst,
        steady_steps=n_steady,
    )


def _count(per_second: float, seconds: float, at_least: int) -> int:
    return max(at_least, round(per_second * seconds))


def burst_queries_per_round(name: str, seconds: float) -> int:
    return _count(SIZES[name].burst_queries_per_second, seconds, 2)


def generate(name: str, seed: int, seconds: float, shrink: float = 1.0) -> Inputs:
    """Build the inputs of workload ``name``; ``shrink`` < 1 is ``--smoke``."""
    size = replace(SIZES[name], preload_rows=int(SIZES[name].preload_rows * shrink))
    n_steady = _count(size.steady_steps_per_second, seconds * shrink, 4)
    n_burst = _count(size.burst_steps_per_second, seconds * shrink, 5)
    build = _bigview if size.preload_rows else _served_mix
    return build(name, size, n_steady, n_burst, seed)
