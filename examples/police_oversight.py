"""The CPDB scenario: private misconduct data joined with public awards.

The paper's Q2 asks how often an officer received a departmental award
within days of being found to have committed misconduct.  The Allegation
table is sensitive (it is outsourced secret-shared); the Award table is
public.  The materialized view has join multiplicity > 1 — one
allegation can pair with several awards — which is exactly what the
truncation bound ω and contribution budget b exist for.

This example sweeps ω to show the truncation trade-off of Section 7.4:
tiny ω silently drops genuine join pairs (biased answers), generous ω
pays with more padded slots everywhere (slower Shrink and queries).

Run:  python examples/police_oversight.py
"""

from repro import IncShrinkDatabase, LogicalQuery, ViewRegistration
from repro.workload import make_cpdb_workload


def run_with_omega(omega: int, budget: int, n_steps: int = 80):
    workload = make_cpdb_workload(
        seed=11, n_steps=n_steps, omega=omega, budget=budget
    )
    vd = workload.view_def
    # Every query a full padded scan of the view, as the paper measures it.
    db = IncShrinkDatabase(total_epsilon=1.5, incremental=False)
    db.register_view(
        ViewRegistration(
            vd, mode="dp-timer", timer_interval=3,
            flush_interval=30, flush_size=170,
        )
    )
    dropped = 0
    for step in workload.steps:
        db.upload(step.time, {vd.probe_table: step.probe, vd.driver_table: step.driver})
        dropped += db.step(step.time).view(vd.name).truncation_dropped
        db.query(LogicalQuery.for_view(vd), step.time)
    return db.views[vd.name].metrics.summary(), dropped


def main() -> None:
    print("CPDB oversight query: awards within the window of a misconduct")
    print("finding, under different truncation bounds (b = 2ω):\n")
    header = (
        f"{'omega':>5}  {'avg L1':>8}  {'rel err':>8}  {'QET (ms)':>9}  "
        f"{'Shrink (s)':>10}  {'pairs dropped':>13}"
    )
    print(header)
    print("-" * len(header))
    for omega in (1, 2, 4, 10, 20):
        summary, dropped = run_with_omega(omega, budget=2 * omega)
        print(
            f"{omega:>5}  {summary.avg_l1_error:8.2f}  "
            f"{summary.avg_relative_error:8.3f}  "
            f"{summary.avg_qet_seconds*1e3:9.2f}  "
            f"{summary.avg_shrink_seconds:10.2f}  {dropped:>13}"
        )
    print()
    print("Small omega truncates genuine pairs (large L1, zero scan cost);")
    print("large omega stops dropping pairs but pads every cache and view")
    print("slot omega-wide, so Shrink sorts and query scans keep growing.")


if __name__ == "__main__":
    main()
