"""Compare two sets of standing-benchmark runs.

``python3 benchmarks/standing/compare.py A [B]`` reads files of
result lines written by ``run.py --record`` and prints, for every
(metric, workload) cell, the median, the quartiles, the spread (the
distance between the quartiles as a share of the median), the bound
from ``BENCHMARK.json`` and a verdict:

- ``unresolved`` — either side's spread is wider than the bound, so
  the runs cannot tell a regression from noise;
- ``worse`` — B's median is worse than A's by more than the bound;
- ``better`` — B's median is better than A's by more than either
  side's spread and by more than a third of the bound (two run-sets of
  the same code drift apart by about 5% on the sandbox);
- ``same`` — anything else.

A verdict of ``better`` is a reason to run the ten alternating pairs
that a claim needs, not the claim itself.

With one file it reports that file's spreads against a third of each
bound, the steadiness the suite is built to.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

Cells = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Cells:
    cells: Cells = {}
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            if record.get("trace"):
                continue  # per-layer numbers carry no bound
            for name, metric in record["metrics"].items():
                cells.setdefault((record["workload"], name), []).append(
                    metric["value"]
                )
    return cells


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; a single run has no spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(a, b, bound: float, higher_is_better: bool) -> str:
    if a[3] > bound or b[3] > bound:
        return "unresolved"
    change = (b[0] - a[0]) / a[0]
    if higher_is_better:
        change = -change
    if change > bound:
        return "worse"
    if -change > max(a[3], b[3], bound / 3):
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a = load(argv[0])
    b = load(argv[1]) if len(argv) == 2 else None
    status = 0
    print(
        f"{'workload':12s} {'metric':26s} {'median':>11s} {'q1':>11s}"
        f" {'q3':>11s} {'spread':>7s} {'bound':>6s}"
        + (f" {'B median':>11s} {'B spread':>8s} {'change':>8s}" if b else "")
        + "  verdict"
    )
    for (workload, name), values in sorted(a.items()):
        bound = spec[name]["bound"]
        sa = summary(values)
        row = (
            f"{workload:12s} {name:26s} {sa[0]:11.5g} {sa[1]:11.5g}"
            f" {sa[2]:11.5g} {sa[3]:7.1%} {bound:6.0%}"
        )
        if b is None:
            # setup_s is exempt from the spread rule (its bound only
            # limits how far the median may drift between run-sets).
            steady = sa[3] <= bound / 3 or name == "setup_s"
            word = "steady" if steady else "too wide"
            status |= not steady
        else:
            sb = summary(b[(workload, name)])
            word = verdict(sa, sb, bound, spec[name]["better"] == "higher")
            row += (
                f" {sb[0]:11.5g} {sb[3]:8.1%} {(sb[0] - sa[0]) / sa[0]:+8.1%}"
            )
            status |= word in ("worse", "unresolved")
        print(f"{row}  {word} (n={len(values)})")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
