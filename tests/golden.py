"""Per-step digests of the four acceptance filters on the pinned stream.

    PYTHONPATH=src python tests/golden.py   # rewrites tests/golden_digests.json

The pinned stream is the default scenario, the shipped recorded truth,
seed 2026 and run 0.  Each step's digest covers the exact bytes of every
global hypothesis's log-weight and selection (read through
`Posterior.hypotheses`, in order) and of the estimate (start times,
genealogies and state arrays).  A second digest per step covers the five
doubles of the estimate's `MetricBreakdown` against the truth, scored as
the harness scores a run.  `test_golden.py` recomputes both and requires
equality; the recorded numpy and scipy versions say where the bytes are
expected to repeat.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources as resources
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from trpmbm.filter import estimate, initial_posterior, step
from trpmbm.metric import TrajMetricParams, branches_as_tracks, trajectory_metric
from trpmbm.models import default_scenario, sample_measurement_sequence
from trpmbm.trees import parse_trees

SPECS = (("trpmbm", 5), ("trpmbm", 1), ("trmbm", 5), ("tpmbm", 5))
SEED, RUN, N_STEPS = 2026, 0, 100
PATH = Path(__file__).with_name("golden_digests.json")


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def pinned_stream():
    cfg = default_scenario()
    truth = parse_trees((resources.files("trpmbm") / "data" / "recorded_truth.txt").read_text())
    return cfg, truth, sample_measurement_sequence(truth, cfg, SEED, run=RUN)[:N_STEPS]


def step_digest(post, est) -> str:
    h = hashlib.sha256()
    for g in post.hypotheses:
        h.update(struct.pack("<d", g.log_w))
        h.update(repr(g.selection).encode())
    h.update(b"|")
    for tree in est:
        h.update(struct.pack("<q", tree.start_time))
        for b in tree.branches:
            h.update(repr(tuple(b.genealogy)).encode())
            states = np.ascontiguousarray(b.states, dtype=np.float64)
            h.update(repr(states.shape).encode() + states.tobytes())
    return h.hexdigest()


def metric_digest(breakdown) -> str:
    return hashlib.sha256(struct.pack("<5d", *breakdown.as_tuple())).hexdigest()


@functools.cache
def run_pinned(kind: str, lscan: int) -> tuple[tuple, tuple]:
    """Per step of the pinned stream: the filter's estimate and the step
    digest of the posterior.  Computed once per process: the golden and
    the metric tests share it."""
    cfg, _, stream = pinned_stream()
    cfg_f = replace(cfg, filters=replace(cfg.filters, lscan=lscan))
    post = initial_posterior()
    estimates, out = [], []
    for Z in stream:
        post = step(post, Z, cfg_f, kind=kind)
        est = estimate(post, cfg_f)
        estimates.append(est)
        out.append(step_digest(post, est))
    return tuple(estimates), tuple(out)


def score(estimates, truth, bases: dict | None = None) -> list:
    """Breakdowns per step; ``bases`` as `harness.run_filter_on` passes it."""
    truth_tracks = branches_as_tracks(truth)
    params = TrajMetricParams()
    return [
        trajectory_metric(branches_as_tracks(est), truth_tracks, params, k, bases)
        for k, est in enumerate(estimates, start=1)
    ]


def main() -> None:
    _, truth, _ = pinned_stream()
    record = {**versions(), "digests": {}, "metric_digests": {}}
    for kind, lscan in SPECS:
        estimates, out = run_pinned(kind, lscan)
        record["digests"][f"{kind}-L{lscan}"] = list(out)
        record["metric_digests"][f"{kind}-L{lscan}"] = [
            metric_digest(b) for b in score(estimates, truth, {})
        ]
    PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
