"""Monte-Carlo harness: run filters over shared data, score, export CSVs.

One experiment fixes a ground-truth set of tree trajectories (sampled once
or loaded from a recorded file) and draws an independent measurement
sequence per run.  Every requested filter consumes the identical
measurement stream of its run; per-step estimates are scored against the
truth with the trajectory metric.  Runs are independent and can execute in
parallel; outputs are byte-identical for a given seed regardless of the
worker count.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .filter import KINDS, estimate, initial_posterior, step
from .metric import MetricBreakdown, Track, TrajMetricParams, branches_as_tracks, trajectory_metric
from .models import ScenarioConfig, sample_ground_truth, sample_measurement_sequence
from .trees import TreeTrajectory, validate_tree


@dataclass(frozen=True)
class FilterSpec:
    kind: str  # trpmbm | trmbm | tpmbm
    lscan: int

    @property
    def label(self) -> str:
        return f"{self.kind}-L{self.lscan}"


@dataclass
class RunReport:
    label: str
    kind: str
    lscan: int
    run: int
    seed: int
    breakdowns: list[MetricBreakdown]
    filter_seconds: float
    measurement_hash: str
    mean_hypotheses: float
    max_hypotheses: int
    mean_local_hyps: float
    max_local_hyps: int
    mean_trees: float


def _hash_measurements(seq: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for Z in seq:
        digest.update(np.int64(Z.shape[0]).tobytes())
        digest.update(np.ascontiguousarray(Z, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_filter_on(
    cfg: ScenarioConfig,
    spec: FilterSpec,
    meas_seq: list[np.ndarray],
    truth_tracks: list[Track],
) -> tuple[list[MetricBreakdown], float, dict]:
    """Run one filter over a measurement sequence, scoring every step with
    the default metric parameters."""
    params = TrajMetricParams()
    cfg_f = replace(cfg, filters=replace(cfg.filters, lscan=spec.lscan))
    post = initial_posterior()
    breakdowns = []
    n_hyp, n_local, n_trees = [], [], []
    seconds = 0.0
    bases: dict = {}  # the metric's LP bases, carried from step to step
    for k, Z in enumerate(meas_seq, start=1):
        t0 = time.perf_counter()
        post = step(post, Z, cfg_f, kind=spec.kind)
        est = estimate(post, cfg_f)
        seconds += time.perf_counter() - t0
        if not np.isfinite(post.log_w).all():
            raise RuntimeError(f"{spec.label}: non-finite hypothesis weight at step {k}")
        breakdowns.append(
            trajectory_metric(branches_as_tracks(est), truth_tracks, params, k, bases)
        )
        n_hyp.append(len(post.log_w))
        n_local.append(sum(s.size for t in post.trees for s in t.slots))
        n_trees.append(len(post.trees))
    stats = {
        "mean_hypotheses": float(np.mean(n_hyp)),
        "max_hypotheses": int(np.max(n_hyp)),
        "mean_local_hyps": float(np.mean(n_local)),
        "max_local_hyps": int(np.max(n_local)),
        "mean_trees": float(np.mean(n_trees)),
    }
    return breakdowns, seconds, stats


def _run_index(
    args: tuple[ScenarioConfig, tuple[FilterSpec, ...], list[TreeTrajectory], int, int]
) -> list[RunReport]:
    cfg, specs, truth, seed, run = args
    meas_seq = sample_measurement_sequence(truth, cfg, seed, run=run)
    meas_hash = _hash_measurements(meas_seq)
    truth_tracks = branches_as_tracks(truth)
    reports = []
    for spec in specs:
        breakdowns, seconds, stats = run_filter_on(cfg, spec, meas_seq, truth_tracks)
        reports.append(
            RunReport(
                label=spec.label,
                kind=spec.kind,
                lscan=spec.lscan,
                run=run,
                seed=seed,
                breakdowns=breakdowns,
                filter_seconds=seconds,
                measurement_hash=meas_hash,
                **stats,
            )
        )
    return reports


def run_experiment(
    cfg: ScenarioConfig,
    specs: list[FilterSpec],
    n_runs: int,
    seed: int,
    truth: list[TreeTrajectory] | None = None,
    jobs: int = 1,
) -> list[RunReport]:
    """Fixed truth, per-run measurement noise, every filter on identical data."""
    if not specs:
        raise ValueError("no filters requested")
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    for spec in specs:
        if spec.kind not in KINDS:
            raise ValueError(f"unknown filter kind {spec.kind!r}")
        if spec.lscan < 1:
            raise ValueError(f"window must be >= 1, got {spec.lscan}")
    labels = [spec.label for spec in specs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"filter {', '.join(repeated)} requested more than once")
    if truth is None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            truth = sample_ground_truth(cfg, seed)
        for ti, tree in enumerate(truth):
            problems = validate_tree(tree, cfg.n_modes)
            if problems:
                raise ValueError(f"sampled truth: tree {ti}: " + "; ".join(problems))
    work = [(cfg, tuple(specs), truth, seed, run) for run in range(n_runs)]
    if jobs > 1 and n_runs > 1:
        # a fork pool starts all of its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            per_run = list(pool.map(_run_index, work))
    else:
        per_run = [_run_index(w) for w in work]
    return [report for batch in per_run for report in batch]


# ---------------------------------------------------------------------------
# Aggregation and file output
# ---------------------------------------------------------------------------

_COMPONENTS = ("total", "localisation", "missed", "false", "switch")


def rms_curves(reports: list[RunReport]) -> dict[str, dict[str, np.ndarray]]:
    """Per filter label: root-mean-square of each metric component over runs."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for label in sorted({r.label for r in reports}, key=_label_key):
        # (runs, steps, components), the components in `_COMPONENTS` order
        vals = np.array([[b.as_tuple() for b in r.breakdowns] for r in reports if r.label == label])
        out[label] = dict(zip(_COMPONENTS, np.sqrt((vals**2).mean(axis=0)).T))
    return out


def _label_key(label: str):
    kind, _, l = label.partition("-L")
    order = KINDS.index(kind) if kind in KINDS else len(KINDS)
    return (order, int(l) if l.isdigit() else 0)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(reports: list[RunReport], out_dir: str | Path) -> list[Path]:
    """Write the RMS curve, decomposition, and timing tables plus .dat twins."""
    if not reports:
        raise ValueError("no reports to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = rms_curves(reports)
    labels = list(curves)
    n_steps = len(next(iter(curves.values()))["total"])
    written = []

    def write(name: str, lines: list[str]) -> None:
        path = out / name
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    def wide(comp: str, sep: str, head: str = "") -> list[str]:
        """A header, then per step the step and every label's RMS ``comp``."""
        return [head + sep.join(["step", *labels])] + [
            sep.join([str(k + 1)] + [_fmt(curves[lb][comp][k]) for lb in labels])
            for k in range(n_steps)
        ]

    write("rms_vs_time.csv", wide("total", ","))
    write("decomposition.csv", ["step,filter,localisation,missed,false,switch"] + [
        ",".join([str(k + 1), lb] + [_fmt(curves[lb][comp][k]) for comp in _COMPONENTS[1:]])
        for lb in labels
        for k in range(n_steps)
    ])  # fmt: skip
    timing = ["filter,lscan,runs,mean_seconds,total_seconds"]
    for lb in labels:
        batch = [r for r in reports if r.label == lb]
        total = sum(r.filter_seconds for r in batch)
        timing.append(
            f"{batch[0].kind},{batch[0].lscan},{len(batch)},"
            f"{_fmt(total / len(batch))},{_fmt(total)}"
        )
    write("timing.csv", timing)
    names = {"total": "rms_vs_time"} | {c: f"decomposition_{c}" for c in _COMPONENTS[1:]}
    for comp, name in names.items():
        write(f"{name}.dat", wide(comp, " ", "# "))
    return written
