"""Summaries of repeated benchmark runs, and the regression-bound comparison.

    python3 perfbench/stats.py RUNS.jsonl [CHANGE.jsonl]

Each file holds one result line of perfbench/run.py per line (the JSON
object it prints last).  With one file, every metric's median, quartiles
and spread are printed, and the spread is checked against the metric's
bound in BENCHMARK.json.  With two, the second file's medians are compared
with the first's: a metric regresses when its median is worse by more than
its bound.  The exit status is 1 when a spread is out of bound (one file)
or a metric regressed (two files).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Summary(NamedTuple):
    median: float
    q1: float
    q3: float
    spread: float  # (q3 - q1) / median


def summarize(values: list[float]) -> Summary:
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, (q3 - q1) / median if median else float("inf"))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse `change` is than `parent`, as a share of `parent` (negative: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:  # a metric that reads 0 on the parent, such as an idle layer
        return math.copysign(math.inf, delta) if delta else 0.0
    return delta / parent


def regressed(parent: list[float], change: list[float], bound: float, better: str) -> bool:
    """Whether the change's median is worse than the parent's by more than `bound`."""
    return worse_by(statistics.median(parent), statistics.median(change), better) > bound


def load_runs(path: Path) -> dict[str, list[float]]:
    """Metric name -> values, one per result line; a wrong run is an error."""
    values: dict[str, list[float]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        if not result["correct"]:
            raise ValueError(f"{path}: a run reported wrong answers")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    first = load_runs(Path(argv[0]))
    second = load_runs(Path(argv[1])) if len(argv) == 2 else None
    status = 0
    for name, values in first.items():
        rule = rules.get(name, {})
        bound = rule.get("bound")
        s = summarize(values)
        line = (
            f"{name:30s} n={len(values):2d} median={s.median:.6g} "
            f"q1={s.q1:.6g} q3={s.q3:.6g} spread={s.spread:.3f}"
        )
        if second is not None and name in second:
            better = rule.get("better", "lower")
            change = statistics.median(second[name])
            bad = bound is not None and regressed(values, second[name], bound, better)
            line += f" | change median {change:.6g} worse by {worse_by(s.median, change, better):+.3f}"
            line += " REGRESSED" if bad else " ok"
            status |= bad
        elif bound is not None:
            verdict = "ok" if s.spread <= bound / 3 else "WIDE" if s.spread <= bound else "OUT OF BOUND"
            line += f" bound={bound} {verdict}"
            status |= verdict == "OUT OF BOUND"
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
