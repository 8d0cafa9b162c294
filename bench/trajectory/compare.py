#!/usr/bin/env python3
"""Reports the newest host-trajectory entry: per-metric medians, parent vs change.

    python3 bench/trajectory/compare.py [entry.json]

Each entry (bench/trajectory/<sha>.json) holds one change's perfbench runs
against its parent commit, per workload and side: untraced runs (end-to-end
metrics) and traced runs (per-layer metrics), as perfbench/run.py prints
them. Without an argument the entry with the latest "date" is read. Metric
directions come from BENCHMARK.json. Every per-layer metric whose change
median is more than 10% worse than the parent's is flagged. Report-only:
the exit status is 0 whatever is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FLAG_RATIO = 0.10


def newest_entry():
    entries = []
    for path in sorted(HERE.glob("*.json")):
        with open(path) as f:
            entries.append((json.load(f), path))
    if not entries:
        sys.exit(f"no trajectory entries in {HERE}")
    return max(entries, key=lambda e: e[0]["date"])


def directions():
    with open(HERE.parent.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    better = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            better[metric["name"]] = (kind, metric["better"])
    return better


def medians(runs):
    """Per-metric median over the runs (each as perfbench/run.py prints it)."""
    values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def worse_by(parent, change, better):
    """Relative move of change against parent, positive when worse."""
    if parent == 0:
        return 0.0
    move = (change - parent) / abs(parent)
    return move if better == "lower" else -move


def report(entry, better):
    print(f"entry {entry['change']} (parent {entry['parent']}, {entry['date']})")
    flagged = 0
    for workload, sides in entry["workloads"].items():
        for kind, label in (("untraced", "end-to-end"), ("traced", "per-layer")):
            parent = medians(sides["parent"][kind])
            change = medians(sides["change"][kind])
            runs = (len(sides["parent"][kind]), len(sides["change"][kind]))
            print(f"\n{workload}, {label} ({runs[0]} parent / {runs[1]} change runs)")
            print(f"  {'metric':<34} {'parent':>14} {'change':>14} {'move':>8}")
            for name in sorted(parent.keys() & change.keys()):
                p, c = parent[name], change[name]
                if p == 0 and c == 0:
                    continue
                move = f"{100 * (c - p) / abs(p):+7.1f}%" if p != 0 else "     new"
                mark = ""
                metric_kind, direction = better.get(name, (None, None))
                if (metric_kind == "per_layer" and
                        worse_by(p, c, direction) > FLAG_RATIO):
                    mark = "  WORSE"
                    flagged += 1
                print(f"  {name:<34} {p:>14.6g} {c:>14.6g} {move}{mark}")
    print(f"\n{flagged} per-layer metric(s) more than {FLAG_RATIO:.0%} worse (report only)")


def main():
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as f:
            entry = json.load(f)
    else:
        entry, path = newest_entry()
        print(f"newest entry: {path.name}")
    report(entry, directions())


if __name__ == "__main__":
    main()
