"""Workload inputs, generated from the workload seed.

Every workload is one filter spec run as a closed loop in one process
(`jobs=1`) over Monte-Carlo measurement streams: `pinned_runs` streams of
the acceptance experiment (seed 2026, the same for every workload seed)
followed by `seed_runs` streams drawn from the workload seed.  Each group
is one `run_experiment` call.  The package receives only the generated
scenario, truth and experiment seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from importlib.resources import files

import numpy as np

from trpmbm import (
    FilterSpec,
    ScenarioConfig,
    TreeTrajectory,
    default_scenario,
    parse_trees,
    sample_ground_truth,
    sample_measurement_sequence,
)

# The acceptance experiment's seed.  The spawn workloads pin one stream to
# it: their rms_error depends on the streams alone, and two streams drawn
# from the workload seed gave a quartile spread over ten seeds of up to
# 0.2, too close to its bound.  dense-clutter draws its truth from it: all
# streams of a run share the truth, so a truth drawn per workload seed
# moved run time between seeds by more than any number of streams could
# average out.
PINNED_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    spec: FilterSpec
    pinned_runs: int
    seed_runs: int
    recorded_truth: bool

    def experiments(self, seed: int) -> list[tuple[int, int]]:
        """(experiment seed, number of runs), in the order they are run."""
        groups = ((PINNED_SEED, self.pinned_runs), (seed, self.seed_runs))
        return [(s, n) for s, n in groups if n]


WORKLOADS = {
    "spawn-ppp": Workload("spawn-ppp", FilterSpec("trpmbm", 5), 1, 1, True),
    "spawn-mb": Workload("spawn-mb", FilterSpec("trmbm", 5), 1, 1, True),
    # Three 40-step streams: 120 step samples.
    "dense-clutter": Workload("dense-clutter", FilterSpec("trpmbm", 1), 0, 3, False),
}


@dataclass(frozen=True)
class Inputs:
    cfg: ScenarioConfig
    truth: list[TreeTrajectory]
    streams: list[list[np.ndarray]]  # one measurement sequence per run, in run order


def scenario(wl: Workload) -> ScenarioConfig:
    cfg = default_scenario()
    if wl.recorded_truth:
        return cfg
    return replace(
        cfg,
        horizon=40,
        measurement=replace(cfg.measurement, clutter_rate=30.0),
        births=tuple(replace(b, weight=0.3) for b in cfg.births),
    )


def truth_for(wl: Workload, cfg: ScenarioConfig) -> list[TreeTrajectory]:
    if wl.recorded_truth:
        return parse_trees(files("trpmbm").joinpath("data/recorded_truth.txt").read_text())
    return sample_ground_truth(cfg, PINNED_SEED)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Scenario, truth and the measurement streams `run_experiment` will draw."""
    cfg = scenario(wl)
    truth = truth_for(wl, cfg)
    streams = [
        sample_measurement_sequence(truth, cfg, exp_seed, run=r)
        for exp_seed, n_runs in wl.experiments(seed)
        for r in range(n_runs)
    ]
    return Inputs(cfg, truth, streams)


def stream_hash(seq: list[np.ndarray]) -> str:
    """SHA-256 of a measurement stream, in the format `RunReport` records."""
    digest = hashlib.sha256()
    for Z in seq:
        digest.update(np.int64(Z.shape[0]).tobytes())
        digest.update(np.ascontiguousarray(Z, dtype=np.float64).tobytes())
    return digest.hexdigest()
