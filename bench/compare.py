"""Compare two result files of ``bench/run.py``, metric by metric.

    python3 bench/compare.py A.json B.json [--force]

For every end-to-end metric of every workload present in both files, prints
each side's median and spread (interquartile range as a share of the
median, over the file's runs) and one verdict, using the bounds fixed in
``BENCHMARK.json``:

* ``unresolved`` — a side's spread is wider than the bound, so the runs
  cannot tell (unless every run of B reads better than every run of A);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``within-bound`` — otherwise.

Exits 1 if any pairing is ``worse`` or ``unresolved``.  Refuses to compare
files recorded on different hosts (``fingerprint``) without ``--force``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402


def load_bounds() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def samples(document: dict) -> dict:
    """``{(workload, metric): [values]}`` of the untraced, full-size runs."""
    out: dict = {}
    for run in document["runs"]:
        if run["trace"] or run["smoke"]:
            continue
        for metric, entry in run["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(entry["value"])
    return out


def verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = stats.median(a), stats.median(b)
    worsening = sign * (med_b - med_a) / med_a if med_a else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(stats.spread(a), stats.spread(b)) > bound and not all_better:
        return "unresolved"
    return "worse" if worsening > bound else "within-bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--force", action="store_true",
                        help="compare even across different host fingerprints")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf8") as fh:
        doc_a = json.load(fh)
    with open(args.b, encoding="utf8") as fh:
        doc_b = json.load(fh)
    if doc_a["fingerprint"] != doc_b["fingerprint"] and not args.force:
        print(f"refusing to compare across hosts: {doc_a['fingerprint']} "
              f"vs {doc_b['fingerprint']} (use --force)", file=sys.stderr)
        return 2
    bounds = load_bounds()
    a, b = samples(doc_a), samples(doc_b)
    bad = 0
    print(f"{'workload':16s} {'metric':15s} {'median A':>11s} {'spread':>7s} "
          f"{'median B':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        better, bound = bounds[metric]
        result = verdict(a[key], b[key], better, bound)
        bad += result != "within-bound"
        print(f"{workload:16s} {metric:15s} {stats.median(a[key]):11.5g} "
              f"{stats.spread(a[key]):7.1%} {stats.median(b[key]):11.5g} "
              f"{stats.spread(b[key]):7.1%} {bound:6.0%}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
