"""Compare two result sets per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records `run.py --results DIR` writes, one per
workload and seed.  Runs are paired by seed.  Per metric and workload the
table gives each side's median and quartiles, the spread (quartile
distance over the median) and the pair wins, and a verdict:

* `unresolved`: either side's spread exceeds the metric's bound;
* `worse`: NEW's median is worse than BASE's by more than the bound;
* `better`: NEW wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than BASE's quartile distance;
* `same`: none of the above.

Two result sets of the same code (an A/A comparison) should read `same`
everywhere.  Exits 1 when any verdict is `worse` or `unresolved`.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spec import END_TO_END


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> end-to-end metric values, from trace-0 records."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        out.setdefault(prov["workload"], {})[prov["seed"]] = values
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], wins: int, losses: int, better: str, bound: float) -> str:
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    q1b, mb, q3b = quartiles(base)
    mn = quartiles(new)[1]
    worse_by = (mn - mb) / abs(mb) if better == "lower" else (mb - mn) / abs(mb)
    if worse_by > bound:
        return "worse"
    if wins >= 0.9 * (wins + losses) and wins and abs(mn - mb) > q3b - q1b:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        for name, _, better, bound in END_TO_END:
            pairs = [
                (base[workload][s][name], new[workload][s][name])
                for s in seeds
                if base[workload][s][name] is not None and new[workload][s][name] is not None
            ]
            if not pairs:
                continue
            b = [p[0] for p in pairs]
            n = [p[1] for p in pairs]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            losses = sum(sign * (y - x) > 0 for x, y in pairs)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "n": len(pairs),
                    "base": quartiles(b),
                    "new": quartiles(n),
                    "base_spread": spread(b),
                    "new_spread": spread(n),
                    "new_wins": wins,
                    "base_wins": losses,
                    "bound": bound,
                    "verdict": verdict(b, n, wins, losses, better, bound),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        "| workload | metric | n | base q1 / median / q3 | new q1 / median / q3 "
        "| spread base / new | new wins / base wins | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)  # noqa: E731
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['n']} | {fmt(r['base'])} | {fmt(r['new'])} "
            f"| {r['base_spread']:.3f} / {r['new_spread']:.3f} | {r['new_wins']} / {r['base_wins']} "
            f"| {r['bound']} | {r['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])))
    if not rows:
        print("no workload and seed in common", file=sys.stderr)
        return 2
    print(render(rows))
    return int(any(r["verdict"] in ("worse", "unresolved") for r in rows))


if __name__ == "__main__":
    sys.exit(main())
