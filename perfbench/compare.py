"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one result object per line (the last line ``run.py``
prints, optionally with extra keys).  For every end-to-end metric the
change's median is compared with the base's median; a metric is
flagged when it is worse by more than its bound (a share of the base
median).  The spread column is the base runs' interquartile range as a
share of their median.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


def compare(base: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per end-to-end metric; ``flagged`` marks a regression.
    Any incorrect run on the change side flags every metric."""
    broken = any(not r.get("correct") for r in change)
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before, after = values(base, name), values(change, name)
        if not before or not after:
            continue
        b, a = statistics.median(before), statistics.median(after)
        worse = (a - b) / b if metric["better"] == "lower" else (b - a) / b
        rows.append({
            "metric": name,
            "base": b,
            "change": a,
            "worse": worse,
            "bound": metric["bound"],
            "spread": spread(before),
            "flagged": broken or worse > metric["bound"],
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'metric':16s} {'base':>12s} {'change':>12s} {'worse':>8s} "
        f"{'bound':>6s} {'spread':>7s}"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:16s} {row['base']:12.4f} {row['change']:12.4f} "
            f"{row['worse']:+8.1%} {row['bound']:6.0%} {row['spread']:7.1%}"
            + ("  REGRESSION" if row["flagged"] else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(render(rows))
    return 1 if any(row["flagged"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
