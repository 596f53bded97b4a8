"""Assemble a BENCH_<n>.json before/after record from perfbench results.

    python3 scripts/bench_record.py PARENT_RESULTS CHANGE_RESULTS OUT.json \
        [--claim WORKLOAD:METRIC] [--note TEXT]

Each results directory holds the records `perfbench/run.py --results DIR`
writes: `--trace 0` records paired by seed, and optionally one `--trace 1`
record per workload.  The output keeps, per workload and end-to-end
metric, both sides' quartiles, per-seed values, pair wins, the verdict
of `perfbench/compare.py` and the per-seed change/parent ratios (median,
min, max and how many fall below 1), a paired reading where seed-to-seed
spread leaves the verdict `unresolved`; the per-layer metrics of the
traced records; the environment from the records' provenance; a byte
audit: per workload-seed that both sides ran, the data files whose
digests differ between the two sides' repetitions; and, per claim,
whether it meets the gain rule, with the end-to-end rows of every
workload whose verdict reads `worse` (a claim is met only when there are
none).  A claim must name a workload that both sides ran and one of its
end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from compare import compare, load  # noqa: E402
from spec import END_TO_END  # noqa: E402

BETTER = {name: better for name, _, better, _ in END_TO_END}


def _records(directory: Path, trace: int) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob(f"*-trace{trace}.json"))]


def _side(directory: Path) -> dict:
    records = _records(directory, 0)
    prov = records[0]["provenance"]
    return {
        "commit": prov["commit"],
        "src_sha256": sorted({r["provenance"]["src_sha256"] for r in records}),
        "per_seed": {
            f"{r['provenance']['workload']}/{r['provenance']['seed']}": {
                name: m["value"] for name, m in r["result"]["metrics"].items()
            }
            for r in records
        },
        "per_layer": {
            r["provenance"]["workload"]: {
                "seed": r["provenance"]["seed"],
                "metrics": {name: m["value"] for name, m in r["result"]["metrics"].items()},
            }
            for r in _records(directory, 1)
        },
    }


def _ratios(parent: dict, change: dict, workload: str, metric: str) -> dict | None:
    """Change/parent ratios of one metric over the seeds both sides ran,
    skipping seeds where either value is missing or the parent's is 0."""
    ratios = []
    for seed in sorted(set(parent[workload]) & set(change[workload])):
        base, new = parent[workload][seed][metric], change[workload][seed][metric]
        if base and new is not None:
            ratios.append(new / base)
    if not ratios:
        return None
    return {
        "median": statistics.median(ratios),
        "min": min(ratios),
        "max": max(ratios),
        "below_1": sum(r < 1.0 for r in ratios),
        "n": len(ratios),
    }


def _digests(directory: Path) -> dict[str, dict[str, set[str]]]:
    """workload/seed -> data file -> the digests its completed repetitions wrote."""
    out: dict[str, dict[str, set[str]]] = {}
    for r in _records(directory, 0):
        files = out.setdefault(f"{r['provenance']['workload']}/{r['provenance']['seed']}", {})
        for rep in r.get("reps", []):
            for name, digest in rep.get("digests", {}).items():
                files.setdefault(name, set()).add(digest)
    return {key: files for key, files in out.items() if files}


def _byte_audit(parent_dir: Path, change_dir: Path) -> dict:
    """The data files that are not byte-identical on both sides, per
    workload-seed that both sides ran."""
    parent, change = _digests(parent_dir), _digests(change_dir)
    both = sorted(parent.keys() & change.keys())
    differing, files = {}, set()
    for key in both:
        names = parent[key].keys() | change[key].keys()
        files |= names
        # identical: both sides wrote the file, every repetition with one digest
        bad = [
            name
            for name in sorted(names)
            if parent[key].get(name) != change[key].get(name) or len(parent[key][name]) != 1
        ]
        if bad:
            differing[key] = bad
    return {"workload_seeds": len(both), "files": sorted(files), "differing": differing}


def _claim(row: dict, rows: list[dict]) -> dict:
    """The gain rule for the metric of one comparison row: the change is
    better on at least 9 of 10 pairs (a tie is no win), and its median is
    better than the parent's by more than the parent's quartile distance;
    and no end-to-end row of any workload in ``rows`` reads ``worse``."""
    gain = row["base"][1] - row["new"][1]
    if BETTER[row["metric"]] == "higher":
        gain = -gain
    distance = row["base"][2] - row["base"][0]
    worse = [f"{r['workload']}:{r['metric']}" for r in rows if r["verdict"] == "worse"]
    return {
        "workload": row["workload"],
        "metric": row["metric"],
        "pair_wins": row["new_wins"],
        "pairs": row["n"],
        "median_gain": gain,
        "parent_quartile_distance": distance,
        "worse": worse,
        "met": row["new_wins"] >= 0.9 * row["n"] and gain > distance and not worse,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    for directory in (args.parent, args.change):
        if not any(directory.glob("*-trace0.json")):
            ap.error(f"{directory} holds no *-trace0.json record (perfbench/run.py --results)")

    prov = _records(args.parent, 0)[0]["provenance"]
    env = {k: prov[k] for k in ("cpu_model", "nproc", "python", "numpy", "scipy")}
    parent, change = load(args.parent), load(args.change)
    rows = compare(parent, change)
    by_name = {f"{r['workload']}:{r['metric']}": r for r in rows}
    for claim in args.claim:
        if claim not in by_name:
            ap.error(
                f"--claim {claim}: no WORKLOAD:METRIC of both sides' records "
                f"(one of {', '.join(by_name)})"
            )
    record = {
        "environment": env,
        "note": args.note,
        "claims": [_claim(by_name[claim], rows) for claim in args.claim],
        "end_to_end": [
            {
                **{k: r[k] for k in ("workload", "metric", "n", "bound", "verdict")},
                "parent": dict(zip(("q1", "median", "q3"), r["base"])),
                "change": dict(zip(("q1", "median", "q3"), r["new"])),
                "spread": {"parent": r["base_spread"], "change": r["new_spread"]},
                "pair_wins": {"change": r["new_wins"], "parent": r["base_wins"]},
                "ratio": _ratios(parent, change, r["workload"], r["metric"]),
            }
            for r in rows
        ],
        "byte_audit": _byte_audit(args.parent, args.change),
        "parent": _side(args.parent),
        "change": _side(args.change),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
