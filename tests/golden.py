"""Per-step digests of the four acceptance filters on the pinned stream.

    PYTHONPATH=src python tests/golden.py   # rewrites tests/golden_digests.json

The pinned stream is the default scenario, the shipped recorded truth,
seed 2026 and run 0.  Each step's digest covers the exact bytes of every
global hypothesis's log-weight and selection (read through
`Posterior.hypotheses`, in order) and of the estimate (start times,
genealogies and state arrays).  `test_golden.py` recomputes them and
requires equality; the recorded numpy and scipy versions say where the
bytes are expected to repeat.
"""

from __future__ import annotations

import hashlib
import importlib.resources as resources
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from trpmbm.filter import estimate, initial_posterior, step
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
    return cfg, sample_measurement_sequence(truth, cfg, SEED, run=RUN)[:N_STEPS]


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


def digests(kind: str, lscan: int, cfg, stream) -> list[str]:
    cfg_f = replace(cfg, filters=replace(cfg.filters, lscan=lscan))
    post = initial_posterior()
    out = []
    for Z in stream:
        post = step(post, Z, cfg_f, kind=kind)
        out.append(step_digest(post, estimate(post, cfg_f)))
    return out


def main() -> None:
    cfg, stream = pinned_stream()
    record = {
        **versions(),
        "digests": {f"{kind}-L{lscan}": digests(kind, lscan, cfg, stream) for kind, lscan in SPECS},
    }
    PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
