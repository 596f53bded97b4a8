"""Per-stage filter seconds on the pinned stream.

    PYTHONPATH=src python3 scripts/stage_times.py [--steps N] [--repeats N]

The pinned stream is the default scenario, the shipped recorded truth,
seed 2026 and run 0, its first 100 steps.  Each acceptance spec
(`trpmbm-L5`, `trpmbm-L1`, `trmbm-L5`, `tpmbm-L5`) filters it `--repeats`
times in this one process.  Every step calls `predict`, `update`,
`form_hypotheses` and `prune` in the order `trpmbm.filter.step` calls them,
then `estimate`, each under its own timer; `filter` is the whole step with
`estimate`, as the harness times it.  The table gives each column's best
of the repetitions, in seconds.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from importlib.resources import files

import numpy as np

from trpmbm.filter import estimate, form_hypotheses, initial_posterior, predict, prune, update
from trpmbm.models import default_scenario, no_spawning, sample_measurement_sequence
from trpmbm.trees import parse_trees

SPECS = (("trpmbm", 5), ("trpmbm", 1), ("trmbm", 5), ("tpmbm", 5))
COLUMNS = ("predict", "update", "form", "prune", "estimate", "filter")
SEED, RUN = 2026, 0


def pinned_stream(n_steps: int):
    cfg = default_scenario()
    truth = parse_trees((files("trpmbm") / "data" / "recorded_truth.txt").read_text())
    return cfg, sample_measurement_sequence(truth, cfg, SEED, run=RUN)[:n_steps]


def stage_seconds(cfg, stream, kind: str, lscan: int) -> dict[str, float]:
    """One filtering of the stream: seconds per stage, summed over steps."""
    cfg = replace(cfg, filters=replace(cfg.filters, lscan=lscan))
    cfg_k = no_spawning(cfg) if kind == "tpmbm" and cfg.n_modes > 1 else cfg
    seconds = dict.fromkeys(COLUMNS, 0.0)
    post = initial_posterior()
    for Z in stream:
        Z = np.asarray(Z, dtype=float).reshape(-1, cfg.measurement.H.shape[0])
        t0 = time.perf_counter()
        pred = predict(post, cfg_k, kind)
        t1 = time.perf_counter()
        upd, maps = update(pred, Z, cfg_k)
        t2 = time.perf_counter()
        formed = form_hypotheses(upd, maps, Z.shape[0], cfg_k)
        t3 = time.perf_counter()
        post = prune(formed, cfg_k)
        t4 = time.perf_counter()
        estimate(post, cfg)
        t5 = time.perf_counter()
        for name, a, b in zip(COLUMNS, (t0, t1, t2, t3, t4, t0), (t1, t2, t3, t4, t5, t5)):
            seconds[name] += b - a
    return seconds


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    cfg, stream = pinned_stream(args.steps)
    print("| spec | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for kind, lscan in SPECS:
        runs = [stage_seconds(cfg, stream, kind, lscan) for _ in range(args.repeats)]
        best = [min(run[name] for run in runs) for name in COLUMNS]
        print(f"| `{kind}-L{lscan}` | " + " | ".join(f"{s:.3f}" for s in best) + " |")


if __name__ == "__main__":
    main()
