"""Command-line Monte-Carlo driver.

    trpmbm-sim --filters trpmbm,tpmbm --lscan 1,5 --runs 20 --seed 7 --out results/

Runs every (filter, window) combination on identical per-run measurement
streams over a fixed ground truth, writes RMS-vs-time and decomposition
tables plus timing, all under --out.  Exit code 0 on success; on any
failure a JSON error object (the exception's class name and message) goes
to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .filter import KINDS
from .harness import FilterSpec, emit_outputs, run_experiment
from .models import NX, default_scenario, load_scenario
from .trees import TreeTrajectory, parse_trees, validate_tree


class _Parser(argparse.ArgumentParser):
    """Option errors raise, so that they leave as the JSON error too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def read_truth(path: str, n_modes: int) -> list[TreeTrajectory]:
    """Parse and check a ground-truth file: every tree must pass
    `validate_tree` and hold states of NX numbers each."""
    try:
        trees = parse_trees(Path(path).read_text())
    except ValueError as err:
        raise ValueError(f"--truth: {err}") from None
    for ti, tree in enumerate(trees):
        problems = validate_tree(tree, n_modes)
        for bi, br in enumerate(tree.branches):
            if br.states.ndim != 2 or br.states.shape[1] != NX:
                problems.append(f"branch {bi}: states must have {NX} numbers each")
        if problems:
            raise ValueError(f"--truth: tree {ti}: " + "; ".join(problems))
    return trees


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_scenario(args.scenario) if args.scenario else default_scenario()
        seed = cfg.seed if args.seed is None else args.seed
        if seed < 0:
            raise ValueError(f"--seed: expected a non-negative integer, got {seed}")
        kinds = [k.strip() for k in args.filters.split(",") if k.strip()]
        if not kinds:
            raise ValueError(
                f"--filters: expected a comma list out of {','.join(KINDS)}, got {args.filters!r}"
            )
        if args.lscan is None:
            windows = [cfg.filters.lscan]
        else:
            try:
                windows = [int(l) for l in args.lscan.split(",") if l.strip()]
            except ValueError:
                windows = []
            if not windows:
                raise ValueError(
                    f"--lscan: expected a comma list of integers, got {args.lscan!r}"
                )
        specs = [FilterSpec(kind, lscan) for kind in kinds for lscan in windows]
        truth = read_truth(args.truth, cfg.n_modes) if args.truth else None
        reports = run_experiment(
            cfg, specs, args.runs, seed, truth=truth, jobs=args.jobs
        )
        written = emit_outputs(reports, args.out)
    except Exception as err:  # Ctrl-C is no Exception, so it still interrupts
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
