"""Command-line Monte-Carlo driver.

    trpmbm-sim --filters trpmbm,tpmbm --lscan 1,5 --runs 20 --seed 7 --out results/

Runs every (filter, window) combination on identical per-run measurement
streams over a fixed ground truth, writes RMS-vs-time and decomposition
tables plus timing, all under --out.  Exit code 0 on success; on failure a
JSON error object goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import FilterSpec, emit_outputs, run_experiment
from .models import ScenarioError, default_scenario, load_scenario
from .trees import parse_trees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trpmbm-sim",
        description="Monte-Carlo benchmark of spawning-target tree-trajectory filters",
    )
    parser.add_argument("--scenario", help="JSON scenario file (defaults built in)")
    parser.add_argument(
        "--filters",
        default="trpmbm",
        help="comma list out of trpmbm,trmbm,tpmbm (default trpmbm)",
    )
    parser.add_argument(
        "--lscan",
        help="comma list of smoothing windows (default: the scenario's filters.lscan)",
    )
    parser.add_argument("--runs", type=int, default=20, help="Monte-Carlo runs")
    parser.add_argument("--seed", type=int, default=None, help="experiment seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--truth", help="recorded ground-truth file instead of sampling"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes over runs"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.scenario) if args.scenario else default_scenario()
        seed = cfg.seed if args.seed is None else args.seed
        kinds = [k.strip() for k in args.filters.split(",") if k.strip()]
        if args.lscan is None:
            windows = [cfg.filters.lscan]
        else:
            windows = [int(l) for l in args.lscan.split(",") if l.strip()]
        specs = [FilterSpec(kind, lscan) for kind in kinds for lscan in windows]
        truth = None
        if args.truth:
            truth = parse_trees(Path(args.truth).read_text())
        reports = run_experiment(
            cfg, specs, args.runs, seed, truth=truth, jobs=args.jobs
        )
        written = emit_outputs(reports, args.out)
    except (ScenarioError, ValueError, OSError, RuntimeError) as err:
        json.dump(
            {"error": type(err).__name__, "message": str(err)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
