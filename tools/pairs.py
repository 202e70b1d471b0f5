"""Paired benchmark verdicts between two commits.

    python tools/pairs.py PARENT CHANGE [--workload W]... [--pairs N]
    python tools/pairs.py --self-test

Checks both commits out with ``git worktree`` into a temporary directory
(removed afterwards) and runs each side's own ``bench/run.py --trace 0``
for ``BENCHMARK.json``'s run length, once per seed, alternating which
side goes first.  The seeds are fixed before the first run and no one
picks them: seeds 1 to ``--pairs``, plus one held-out seed derived from
the object ids of the code both sides run (:data:`CODE`).  Those ids are
content addresses: re-committing the same code, or editing only its
documents, keeps them and the held-out seed, and ``git rev-parse
COMMIT:src`` on any commit with the same code reads the same id.
Then, for every end-to-end metric of ``BENCHMARK.json`` on every workload,
it prints one row of a markdown table — both medians, the parent's
interquartile range, the pairs the change reads better in, and a verdict
— and appends one line per workload to ``BENCH_history.jsonl`` at the repo
root: both commits with their code's object ids, a host fingerprint and
the per-metric medians.

The verdict over the n pairs (the fixed seeds and the held-out one), with
the bound that ``BENCHMARK.json`` sets for the metric:

* ``worse`` or ``unresolved`` — ``bench/compare.py``'s verdict, unchanged:
  the change's median is worse by more than the bound, or a side's spread
  is wider than the bound and the change does not win every comparison;
* ``better`` — the change reads better in at least nine tenths of the n
  pairs (ties count for neither), its median differs from the parent's by
  more than the parent's interquartile range, and it reads better on the
  held-out seed;
* ``same`` — otherwise.

It also checks that each seed's ``answers_sha256``, query and ingest
gates and realized ε are equal on both sides, and prints which are not.
``--self-test`` pairs ``HEAD`` with itself on ``tpcds-small`` at smoke size
(one-second runs, one pair) and checks that the table and the history line
are well formed; it gates no timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import compare, stats  # noqa: E402

HISTORY = ROOT / "BENCH_history.jsonl"
VERDICTS = ("better", "same", "worse", "unresolved")
#: What must repeat exactly for one seed on both sides (``bench/run.py``).
DETERMINISTIC = (
    "answers_sha256",
    "mpc.runtime.query_gates",
    "mpc.runtime.ingest_gates",
    "dp.realized_epsilon",
)
#: Share of the pairs the change must win for ``better``.
WIN_SHARE = 0.9
#: What ``bench/run.py`` runs from a checkout: a side's code is the object
#: ids of these paths.
CODE = ("src", "bench", "BENCHMARK.json")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def resolve(rev: str) -> dict:
    """A side's commit id and the object ids of its code (:data:`CODE`)."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"commit": commit,
            "code": {path: git("rev-parse", f"{commit}:{path}") for path in CODE}}


def held_out_seed(parent: dict, change: dict) -> int:
    """A seed no one chose: a function of the code both sides run only,
    and outside the small range the fixed seeds are drawn from."""
    code = json.dumps([parent["code"], change["code"]], sort_keys=True)
    return 10**6 + int(hashlib.sha256(code.encode()).hexdigest(), 16) % 10**6


def host() -> dict:
    """The host fingerprint a history line carries."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        **stats.fingerprint(),
        "cpu_model": cpu,
        "load_1min_at_start": os.getloadavg()[0],
    }


def iqr(values: list) -> float:
    """The interquartile range, in the metric's own unit."""
    return stats.spread(values) * stats.median(values)


def run_side(tree: Path, workload: str, seed: int, seconds: float | None,
             out: Path) -> dict:
    """One ``bench/run.py`` run of ``tree``; its one result record."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0", "--out", str(out)]
    if seconds is not None:
        command += ["--seconds", f"{seconds:g}"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"pairs: {tree.name} failed {workload} seed {seed} "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    with open(out, encoding="utf8") as fh:
        return json.load(fh)["runs"][0]


def metric_row(a: list, b: list, better: str, bound: float) -> dict:
    """One metric's medians, spreads, pair wins and verdict (a = parent)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    med_a, med_b = stats.median(a), stats.median(b)
    verdict = compare.verdict(a, b, better, bound)
    if verdict == "within-bound":
        held_out_better = sign * (b[-1] - a[-1]) < 0
        verdict = (
            "better"
            if wins >= math.ceil(WIN_SHARE * len(a))
            and abs(med_b - med_a) > iqr(a)
            and held_out_better
            else "same"
        )
    return {
        "parent": med_a,
        "parent_iqr": iqr(a),
        "change": med_b,
        "change_iqr": iqr(b),
        "pairs_better": wins,
        "pairs": len(a),
        "verdict": verdict,
    }


def pair(parent: str, change: str, workloads: list, pairs: int, history: Path,
         seconds: float | None = None) -> list[dict]:
    """Run the pairs; return one record per workload (also appended to
    ``history``).  ``seconds`` shortens the runs for the self-test only."""
    sides = {"parent": resolve(parent), "change": resolve(change)}
    commits = {name: s["commit"] for name, s in sides.items()}
    seeds = list(range(1, pairs + 1))
    seeds.append(held_out_seed(sides["parent"], sides["change"]))
    fingerprint = host()
    bounds = compare.load_bounds()
    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    trees = {side: scratch / side for side in commits}
    records = []
    try:
        for side, tree in trees.items():
            git("worktree", "add", "--detach", "--quiet", str(tree), commits[side])
        for workload in workloads:
            docs = {side: {"runs": []} for side in commits}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    out = scratch / f"{side}-{workload}-{seed}.json"
                    docs[side]["runs"].append(
                        run_side(trees[side], workload, seed, seconds, out)
                    )
            samples = {side: compare.samples(doc) for side, doc in docs.items()}
            metrics = {}
            for (name, metric), values in sorted(samples["parent"].items()):
                better, bound = bounds[metric]
                metrics[metric] = metric_row(
                    values, samples["change"][(name, metric)], better, bound
                )
            differs = sorted(
                {key for a, b in zip(docs["parent"]["runs"], docs["change"]["runs"])
                 for key in DETERMINISTIC if a[key] != b[key]}
            )
            record = {
                "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                **commits,
                "code": {name: s["code"] for name, s in sides.items()},
                "workload": workload,
                "seeds": seeds[:-1],
                "held_out_seed": seeds[-1],
                "seconds": seconds,
                "host": fingerprint,
                "deterministic_differs": differs,
                "metrics": metrics,
            }
            with open(history, "a", encoding="utf8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            records.append(record)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        for leftover in scratch.glob("*.json"):
            leftover.unlink()
        scratch.rmdir()
    return records


def table(records: list[dict]) -> str:
    """The markdown table CHANGES.md pastes."""
    lines = [
        "| workload | metric | parent median | parent IQR | change median "
        "| pairs better | verdict |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for record in records:
        for metric, row in record["metrics"].items():
            lines.append(
                f"| {record['workload']} | {metric} | {row['parent']:.5g} "
                f"| {row['parent_iqr']:.3g} | {row['change']:.5g} "
                f"| {row['pairs_better']}/{row['pairs']} | {row['verdict']} |"
            )
    return "\n".join(lines)


def summary(records: list[dict]) -> str:
    out = []
    for record in records:
        differs = record["deterministic_differs"]
        out.append(
            f"{record['workload']}: {record['parent'][:10]} vs "
            f"{record['change'][:10]}, seeds {record['seeds']} + held-out "
            f"{record['held_out_seed']}; per-seed answers, gates and ε "
            + ("equal" if not differs else f"DIFFER in {', '.join(differs)}")
        )
    return "\n".join(out)


def self_test() -> int:
    """``HEAD`` against itself at smoke size: the shapes, not the timings."""
    with tempfile.TemporaryDirectory(prefix="pairs-self-test-") as tmp:
        history = Path(tmp) / "history.jsonl"
        records = pair("HEAD", "HEAD", ["tpcds-small"], pairs=1,
                       history=history, seconds=1)
        text = table(records)
        print(text)
        print(summary(records))
        expected = {m["name"] for m in json.load(
            open(ROOT / "BENCHMARK.json", encoding="utf8"))["end_to_end"]}
        rows = text.splitlines()[2:]
        problems = []
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} table rows for {len(expected)} metrics")
        for row in rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            if len(cells) != 7 or cells[6] not in VERDICTS:
                problems.append(f"malformed row: {row}")
        lines = history.read_text(encoding="utf8").splitlines()
        if len(lines) != 1:
            problems.append(f"{len(lines)} history lines, expected 1")
        else:
            line = json.loads(lines[0])
            if line["parent"] != line["change"] or len(line["parent"]) != 40:
                problems.append("history commits are not HEAD twice")
            code = line["code"]
            if code["parent"] != code["change"] or set(code["parent"]) != set(CODE):
                problems.append("history code ids are not HEAD's twice")
            if set(line["metrics"]) != expected:
                problems.append("history metrics are not the end-to-end set")
            if line["deterministic_differs"]:
                problems.append(f"HEAD differs from itself: {line['deterministic_differs']}")
            if not {"nproc", "python", "numpy", "cpu_model",
                    "load_1min_at_start"} <= set(line["host"]):
                problems.append("history host fingerprint is incomplete")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", action="append",
                        help="a workload to pair (repeatable; default: all four)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs on fixed seeds, before the held-out one")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required (or --self-test)")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        everything = [w["name"] for w in json.load(fh)["workloads"]]
    records = pair(args.parent, args.change, args.workload or everything,
                   args.pairs, HISTORY)
    print(table(records))
    print(summary(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
