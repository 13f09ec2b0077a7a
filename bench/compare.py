"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as `bench/run.py --out FILE` appends
them; only untraced runs are read. Within a workload the i-th base run is
paired with the i-th change run, so record the two sides alternately and on
the same seeds. The verdict for each end-to-end metric uses the bounds in
BENCHMARK.json:

- improved: the change wins at least 9 of 10 pairs and its median differs
  from the base median, in the better direction, by more than the distance
  between the base quartiles;
- worse: the change median is worse than the base median by more than the
  metric's bound;
- unresolved: the base runs spread (quartile distance over median) more
  than the bound, and not every change run beats every base run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and share of pairs the change won (ties count for neither)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    b1, bmed, b3 = quartiles(base)
    cmed = statistics.median(change)
    gain = sign * (cmed - bmed)
    if won >= 0.9 and gain > b3 - b1:
        return "improved", won
    if -gain > bound * abs(bmed):
        return "worse", won
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (b3 - b1) > bound * abs(bmed) and not all_better:
        return "unresolved", won
    return "unchanged", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, change = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':14s} {'metric':18s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'won':>5s}  verdict")
    worse = False
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        for side, runs in (("base", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            if failed:
                print(f"{workload:14s} {side} failed {failed} of {attempted} items")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            result, won = verdict(b, c, metric["better"], metric["bound"])
            worse = worse or result == "worse"
            print(f"{workload:14s} {name:18s} {spread(b):32s} {spread(c):32s} {won:5.0%}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
