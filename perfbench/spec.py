"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of `BENCHMARK.json` at the repository
root (`python3 perfbench/spec.py` rewrites it).  It imports nothing from
the package under test, so the orchestrator can use it before the
package is known to import.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# name -> why.  The workload definitions live in workloads.py.
WORKLOADS = {
    "spawn-ppp": (
        "trpmbm-L5 on the recorded truth: hundreds of settled trees are walked "
        "every step and the metric LP grows with k, so tree-count and metric "
        "work dominate"
    ),
    "spawn-mb": (
        "trmbm-L5 on the same truth and streams: multi-Bernoulli birth keeps "
        "about 12 trees, so association (Murty) dominates; control for "
        "tree-count optimisations"
    ),
    "dense-clutter": (
        "trpmbm-L1, 30 clutter points per scan, truth sampled from seed 2026: "
        "new trees pile up on 4x4 live windows while scoring is a small share; "
        "control for metric optimisations"
    ),
}

# (name, unit, better, bound): medians over the repetitions of one run.
# Bounds (see RESULTS.md): on a 2-vCPU VM two back-to-back runs of one seed
# differed by up to 20%, and over ten seeds the quartile spread was
# 0.10-0.29 for times, 0.05-0.08 for rms_error (deterministic per seed) and
# up to 0.07 for peak memory.  Time bounds are at the 0.25 maximum.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("filter_s", "s", "lower", 0.25),
    ("score_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("rms_error", "m", "lower", 0.25),
    ("ok_share", "ratio", "higher", 0.05),
]

GAUSSIAN_KERNELS = (
    "_chol_with_jitter",
    "innovation",
    "l_scan_truncate",
    "l_scan_truncate_component",
    "predict_augment_survive",
    "spawn_component",
    "update_last_state",
)

STAGES = ("predict", "truncate_window", "update", "form_hypotheses", "prune", "estimate")

# (name, unit, better) from the traced run: self times and per-step counts,
# summed over every step of every Monte-Carlo run of one repetition.
PER_LAYER = (
    [(f"filter.{s}_s", "s", "lower") for s in STAGES]
    + [
        ("filter.unstaged_s", "s", "lower"),
        ("filter.tree_visits", "count", "lower"),
        ("filter.alive_tree_visits", "count", "lower"),
        ("filter.alive_share", "ratio", "higher"),
        ("filter.gated_pairs", "count", "lower"),
        ("filter.local_hyps", "count", "lower"),
        ("filter.new_trees", "count", "lower"),
        ("filter.global_hyps_formed", "count", "lower"),
        ("filter.global_hyps_kept", "count", "lower"),
        ("filter.step_ms.p50", "ms", "lower"),
        ("filter.step_ms.p90", "ms", "lower"),
        ("gaussian.kernel_s", "s", "lower"),
    ]
    + [(f"gaussian.{k.lstrip('_')}_calls", "count", "lower") for k in GAUSSIAN_KERNELS]
    + [
        ("assignment.murty_s", "s", "lower"),
        ("assignment.lsa_s", "s", "lower"),
        ("assignment.murty_calls", "count", "lower"),
        ("assignment.k_requested", "count", "lower"),
        ("assignment.k_returned", "count", "lower"),
        ("assignment.lsa_calls", "count", "lower"),
        ("assignment.solutions_per_lsa", "ratio", "higher"),
        ("metric.trajectory_metric_s", "s", "lower"),
        ("metric.linprog_s", "s", "lower"),
        ("metric.assembly_s", "s", "lower"),
        ("metric.lp_solves", "count", "lower"),
        ("metric.lp_vars", "count", "lower"),
        ("metric.step_ms.p90", "ms", "lower"),
        ("models.sample_measurements_s", "s", "lower"),
        ("models.measurements", "count", "lower"),
        ("harness.emit_outputs_s", "s", "lower"),
        ("harness.overhead_s", "s", "lower"),
        ("trace.filter_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.accounted_share", "ratio", "higher"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    target.write_text(render())
    print(f"wrote {target}")
