"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records run.py appends to .perfbench/results.jsonl.
Untraced runs are paired in file order per workload, so alternate the two
sides when running them. For each workload and end-to-end metric this prints
each side's median and quartiles, the pairs the change won (ties count for
neither) and a verdict:

- improved: at least ten pairs, the change wins nine tenths of them and its
  median beats the parent's by more than the parent's quartile distance;
- unresolved: the run-to-run spread (quartile distance over median, the
  larger side's) exceeds the metric's bound and not every run of the change
  beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the bound;
- within bound: otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in file order, of correct untraced runs."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] or not record["result"]["correct"]:
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, m in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs compared)."""
    sign = 1 if better == "higher" else -1

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if beats(c, p))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "improved", won, len(pairs)
    if spread > bound and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", won, len(pairs)
    if -sign * (cm - pm) > bound * pm:
        return "worse", won, len(pairs)
    return "within bound", won, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    header = f"{'workload':<11} {'metric':<13} {'unit':<4} {'parent q1/median/q3':>28} {'change q1/median/q3':>28} {'delta':>7} {'won':>6}  verdict"
    print(header)
    for wl in spec["workloads"]:
        name = wl["name"]
        for metric in spec["end_to_end"]:
            p = parent.get(name, {}).get(metric["name"], [])
            c = change.get(name, {}).get(metric["name"], [])
            if not p or not c:
                print(f"{name:<11} {metric['name']:<13} no runs on {'both sides' if not p and not c else 'one side'}")
                continue
            outcome, won, n = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"{name:<11} {metric['name']:<13} {metric['unit']:<4} "
                f"{'/'.join(f'{v:.4g}' for v in pq):>28} {'/'.join(f'{v:.4g}' for v in cq):>28} "
                f"{(cq[1] - pq[1]) / pq[1]:>+7.1%} {won:>3}/{n:<2}  {outcome}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
