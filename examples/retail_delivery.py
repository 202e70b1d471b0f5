"""The paper's motivating scenario: a retailer and a courier company.

Section 1's running example: a retail store holds private sales data, a
courier company holds private delivery records, and the store owner
wants to know — continuously — how many products were delivered on time
(within 2 days of the courier accepting the package).  Neither party
trusts the cloud servers with plaintext.

This example builds the scenario from the public API directly (no
prepackaged workload generator): it defines custom schemas, a view over
the on-time-delivery join, streams both parties' uploads, and contrasts
the view-based answers against the naïve non-materialization baseline
that recomputes the join for every question.

Run:  python examples/retail_delivery.py
"""

import numpy as np

from repro import (
    IncShrinkDatabase,
    JoinViewDefinition,
    LogicalQuery,
    Schema,
    ViewRegistration,
)
from repro.common.types import RecordBatch
from repro.common.rng import spawn

SALES = Schema(("package_id", "order_day"))
DELIVERIES = Schema(("package_id", "delivery_day"))

#: a delivery is "on time" within this many days of the order
ON_TIME_WINDOW = 2
DAYS = 50
SALES_CAPACITY = 10
DELIVERY_CAPACITY = 10


def on_time_delivery_view() -> JoinViewDefinition:
    """Materialize the join of sales with their on-time deliveries."""
    return JoinViewDefinition(
        name="on-time-deliveries",
        probe_table="sales",
        probe_schema=SALES,
        probe_key="package_id",
        probe_ts="order_day",
        driver_table="deliveries",
        driver_schema=DELIVERIES,
        driver_key="package_id",
        driver_ts="delivery_day",
        window_lo=0,
        window_hi=ON_TIME_WINDOW,
        omega=1,                    # each package is delivered once
        budget=ON_TIME_WINDOW + 1,  # a sale stays joinable over the window
    )


def simulate_day(gen, day, pending):
    """The two companies' records for one day (plaintext, owner-side)."""
    n_sales = int(gen.integers(2, 7))
    sales = []
    for _ in range(n_sales):
        pid = int(gen.integers(1, 1 << 30))
        sales.append((pid, day))
        delay = int(gen.integers(0, 5))  # some deliveries miss the window
        pending.setdefault(day + delay, []).append((pid, day + delay))
    deliveries = pending.pop(day, [])
    return sales, deliveries


def main() -> None:
    view_def = on_time_delivery_view()
    gen = spawn(7, "retail")
    pending: dict[int, list[tuple[int, int]]] = {}

    deployments = {
        "IncShrink (sDPANT)": ViewRegistration(
            view_def, mode="dp-ant", ant_threshold=8.0,
            flush_interval=20, flush_size=25,
        ),
        "naive NM baseline": ViewRegistration(view_def, mode="nm"),
    }
    databases = {}
    for name, registration in deployments.items():
        # No NM fallback for the view deployment: it answers from its view.
        db = IncShrinkDatabase(
            total_epsilon=2.0, nm_fallback=registration.mode == "nm"
        )
        db.register_view(registration)
        databases[name] = db
    count = LogicalQuery.for_view(view_def)

    for day in range(1, DAYS + 1):
        sales, deliveries = simulate_day(gen, day, pending)
        probe = RecordBatch(
            SALES, np.asarray(sales, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(SALES_CAPACITY)
        driver = RecordBatch(
            DELIVERIES, np.asarray(deliveries, dtype=np.uint32).reshape(-1, 2)
        ).padded_to(DELIVERY_CAPACITY)
        for db in databases.values():
            db.upload(day, {"sales": probe, "deliveries": driver})
            db.step(day)
            db.query(count, day)

    print(f"'How many packages were delivered within {ON_TIME_WINDOW} days?'")
    print(f"asked once per day for {DAYS} days:\n")
    rows = []
    for name, db in databases.items():
        s = db.metrics.summary()
        rows.append((name, s.avg_l1_error, s.avg_qet_seconds, s.total_qet_seconds))
    for name, l1, qet, total in rows:
        print(f"  {name:22s} avg L1 = {l1:6.2f}   "
              f"avg QET = {qet*1e3:9.3f} ms   total = {total:8.3f} s")
    speedup = rows[1][2] / max(rows[0][2], 1e-12)
    print(f"\nview-based answering is {speedup:,.0f}x faster per query here, "
          "and the gap widens as the outsourced history grows.")


if __name__ == "__main__":
    main()
