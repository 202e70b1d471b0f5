"""Quickstart: deploy IncShrink on a tiny synthetic workload.

Walks the complete Figure-1 workflow in ~40 lines of driving code:

1. generate a seeded TPC-ds-style Sales/Returns stream;
2. deploy an IncShrink database with one view under the sDPTimer
   view-update protocol;
3. each simulated day: owners upload padded secret-shared batches, the
   servers run Transform (+ Shrink when the timer fires), and the
   analyst asks "how many products were returned within the window?";
4. print per-day answers and the end-of-run accuracy/efficiency/privacy
   summary.

Run:  python examples/quickstart.py
"""

from repro import IncShrinkDatabase, LogicalQuery, ViewRegistration
from repro.workload import make_tpcds_workload


def main() -> None:
    workload = make_tpcds_workload(seed=42, n_steps=60)
    print(f"workload: {workload.n_steps} days, "
          f"≈{workload.average_view_rate():.1f} new view entries/day")

    vd = workload.view_def
    db = IncShrinkDatabase(total_epsilon=1.5)  # DP budget for the update leakage
    db.register_view(
        ViewRegistration(
            vd,
            mode="dp-timer",      # the timer-based Shrink protocol
            timer_interval=10,    # sync the view every 10 days
            flush_interval=30,    # recycle the secure cache periodically
            flush_size=40,
        )
    )
    count = LogicalQuery.for_view(vd)  # the view's registered COUNT

    for step in workload.steps:
        db.upload(step.time, {vd.probe_table: step.probe, vd.driver_table: step.driver})
        db.step(step.time)
        obs = db.query(count, step.time).observation
        if step.time % 10 == 0:
            print(
                f"day {step.time:3d}: view answer = {obs.view_answer:6.0f}  "
                f"truth = {obs.logical_answer:6.0f}  "
                f"L1 = {obs.l1:5.0f}  QET = {obs.qet_seconds*1e3:7.2f} ms"
            )

    summary = db.views[vd.name].metrics.summary()
    print()
    print(f"avg L1 error        : {summary.avg_l1_error:.2f}")
    print(f"avg relative error  : {summary.avg_relative_error:.3f}")
    print(f"avg QET             : {summary.avg_qet_seconds*1e3:.2f} ms (simulated)")
    print(f"avg view size       : {summary.avg_view_size_rows:.0f} rows "
          f"({summary.avg_view_size_mb*1e3:.1f} KB/server)")
    print(f"realized epsilon    : {db.realized_epsilon():.3f} "
          f"(configured {db.total_epsilon})")


if __name__ == "__main__":
    main()
