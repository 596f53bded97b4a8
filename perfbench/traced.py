"""The traced repetition: the harness loop, one filter stage at a time.

`run_traced` does what `run_experiment` + `emit_outputs` do for one
workload, but calls the public stages of `trpmbm.filter` one by one inside
spans, and wraps the layer boundaries below them from the outside:

* `murty_kbest` as `trpmbm.filter` sees it,
* `linear_sum_assignment` in `trpmbm.assignment`,
* `linprog` in `trpmbm.metric`,
* the `trpmbm.gaussian` kernels imported into `trpmbm.filter`.

Counts are taken between spans, so they add nothing to the timed stages.
The data outputs must match the untraced run byte for byte.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

import trpmbm.assignment
import trpmbm.filter
import trpmbm.metric
from trpmbm import (
    RunReport,
    TrajMetricParams,
    branches_as_tracks,
    check_posterior,
    emit_outputs,
    estimate,
    form_hypotheses,
    initial_posterior,
    no_spawning,
    predict,
    prune,
    sample_measurement_sequence,
    trajectory_metric,
    truncate_window,
    update,
)

from spec import GAUSSIAN_KERNELS, STAGES
from tracing import Tracer, patched
from workloads import Inputs, Workload, stream_hash


def _count(tracer: Tracer, **amounts):
    def on_result(args, kwargs, result):
        for key, fn in amounts.items():
            tracer.counts[key] += fn(args, kwargs, result)

    return on_result


def instrumentation(tracer: Tracer):
    """(module, attribute, wrapper) for every layer boundary the run crosses.

    Call counts are the span counts; the callbacks count what a span cannot.
    """
    murty = trpmbm.filter.murty_kbest
    lsa = trpmbm.assignment.linear_sum_assignment
    linprog = trpmbm.metric.linprog
    targets = [
        (
            trpmbm.filter,
            "murty_kbest",
            tracer.wrap(
                "assignment.murty_kbest",
                murty,
                _count(
                    tracer,
                    k_requested=lambda a, kw, r: a[1] if len(a) > 1 else kw["K"],
                    k_returned=lambda a, kw, r: len(r),
                ),
            ),
        ),
        (trpmbm.assignment, "linear_sum_assignment", tracer.wrap("assignment.linear_sum_assignment", lsa)),
        (
            trpmbm.metric,
            "linprog",
            tracer.wrap(
                "metric.linprog",
                linprog,
                _count(tracer, lp_vars=lambda a, kw, r: len(a[0] if a else kw["c"])),
            ),
        ),
    ]
    for name in GAUSSIAN_KERNELS:
        if hasattr(trpmbm.filter, name):
            fn = getattr(trpmbm.filter, name)
            targets.append((trpmbm.filter, name, tracer.wrap(f"gaussian.{name}", fn)))
    return targets


def _alive_trees(post) -> int:
    """Trees with alive mass at the current step in a referenced hypothesis."""
    k = post.step
    alive = 0
    for ti, tree in enumerate(post.trees):
        rows = {g.selection[ti] for g in post.hypotheses}
        alive += any(
            h.density is not None and h.r > 0.0 and h.density.beta(k) > 0.0
            for row in rows
            for h in (tree.slots[ji].hyps[bi] for ji, bi in enumerate(row))
        )
    return alive


def traced_step(post, Z, cfg, kind: str, tracer: Tracer):
    """`trpmbm.filter.step` followed by `estimate`, one span per stage."""
    if kind == "tpmbm" and cfg.n_modes > 1:
        cfg = no_spawning(cfg)
    Z = np.asarray(Z, dtype=float).reshape(-1, cfg.measurement.H.shape[0])
    with tracer.span("filter.predict"):
        pred = predict(post, cfg, kind)
    with tracer.span("filter.truncate_window"):
        pred = truncate_window(pred, cfg.filters.lscan)
    with tracer.span("filter.update"):
        upd, maps = update(pred, Z, cfg)
    with tracer.span("filter.form_hypotheses"):
        formed = form_hypotheses(upd, maps, Z.shape[0], cfg)
    with tracer.span("filter.prune"):
        pruned = prune(formed, cfg)
    return pred, upd, maps, formed, pruned


def _count_step(tracer: Tracer, pred, upd, maps, formed, pruned) -> None:
    c = tracer.counts
    c["tree_visits"] += len(pred.trees)
    c["alive_tree_visits"] += _alive_trees(pred)
    c["gated_pairs"] += sum(len(v) for v in maps.det_meas.values())
    c["local_hyps"] += sum(len(s.hyps) for t in upd.trees for s in t.slots)
    c["new_trees"] += len(upd.trees) - len(pred.trees)
    c["global_hyps_formed"] += len(formed.hypotheses)
    c["global_hyps_kept"] += len(pruned.hypotheses)


def run_traced(
    wl: Workload, inputs: Inputs, seed: int, out_dir: Path, tracer: Tracer
) -> tuple[list[RunReport], list]:
    """One traced repetition; returns the reports and final posteriors."""
    cfg, truth, spec = inputs.cfg, inputs.truth, wl.spec
    metric_params = TrajMetricParams()
    reports, finals = [], []
    with patched(instrumentation(tracer)), tracer.span("harness.run"):
        for exp_seed, run in (
            (s, r) for s, n_runs in wl.experiments(seed) for r in range(n_runs)
        ):
            with tracer.span("models.sample_measurements"):
                meas_seq = sample_measurement_sequence(truth, cfg, exp_seed, run=run)
            tracer.counts["measurements"] += sum(len(Z) for Z in meas_seq)
            truth_tracks = branches_as_tracks(truth)
            cfg_f = replace(cfg, filters=replace(cfg.filters, lscan=spec.lscan))
            post = initial_posterior()
            breakdowns, n_hyp, n_local, n_trees = [], [], [], []
            seconds = 0.0
            for k, Z in enumerate(meas_seq, start=1):
                step_idx = tracer.begin("filter.step")
                stages = traced_step(post, Z, cfg_f, spec.kind, tracer)
                post = stages[-1]
                with tracer.span("filter.estimate"):
                    est = estimate(post, cfg_f)
                seconds += tracer.finish(step_idx)
                _count_step(tracer, *stages)
                if not all(np.isfinite(g.log_w) for g in post.hypotheses):
                    raise RuntimeError(f"{spec.label}: non-finite hypothesis weight at step {k}")
                with tracer.span("metric.trajectory_metric"):
                    breakdowns.append(
                        trajectory_metric(branches_as_tracks(est), truth_tracks, metric_params, k)
                    )
                n_hyp.append(len(post.hypotheses))
                n_local.append(sum(len(s.hyps) for t in post.trees for s in t.slots))
                n_trees.append(len(post.trees))
            finals.append(post)
            reports.append(
                RunReport(
                    label=spec.label,
                    kind=spec.kind,
                    lscan=spec.lscan,
                    run=run,
                    seed=exp_seed,
                    breakdowns=breakdowns,
                    filter_seconds=seconds,
                    measurement_hash=stream_hash(meas_seq),
                    mean_hypotheses=float(np.mean(n_hyp)),
                    max_hypotheses=int(np.max(n_hyp)),
                    mean_local_hyps=float(np.mean(n_local)),
                    max_local_hyps=int(np.max(n_local)),
                    mean_trees=float(np.mean(n_trees)),
                )
            )
        with tracer.span("harness.emit_outputs"):
            emit_outputs(reports, out_dir)
    return reports, finals


def posterior_problems(finals) -> list[str]:
    return [p for post in finals for p in check_posterior(post)]


def per_layer_metrics(tracer: Tracer, untraced_filter_s: float) -> dict[str, float]:
    """Every per-layer metric of `spec.PER_LAYER` from one traced repetition."""
    own = tracer.self_seconds()
    c = tracer.counts
    step_ms = tracer.durations("filter.step") * 1e3
    metric_ms = tracer.durations("metric.trajectory_metric") * 1e3
    filter_s = step_ms.sum() / 1e3
    kernel_s = sum(v for n, v in own.items() if n.startswith("gaussian."))
    lsa_calls = tracer.calls("assignment.linear_sum_assignment")
    out = {f"filter.{s}_s": own.get(f"filter.{s}", 0.0) for s in STAGES}
    accounted = (
        sum(out.values())
        + kernel_s
        + own.get("assignment.murty_kbest", 0.0)
        + own.get("assignment.linear_sum_assignment", 0.0)
    )
    out.update(
        {
            "filter.unstaged_s": own.get("filter.step", 0.0),
            "filter.tree_visits": c["tree_visits"],
            "filter.alive_tree_visits": c["alive_tree_visits"],
            "filter.alive_share": c["alive_tree_visits"] / max(c["tree_visits"], 1),
            "filter.gated_pairs": c["gated_pairs"],
            "filter.local_hyps": c["local_hyps"],
            "filter.new_trees": c["new_trees"],
            "filter.global_hyps_formed": c["global_hyps_formed"],
            "filter.global_hyps_kept": c["global_hyps_kept"],
            "filter.step_ms.p50": np.percentile(step_ms, 50),
            "filter.step_ms.p90": np.percentile(step_ms, 90),
            "gaussian.kernel_s": kernel_s,
            "assignment.murty_s": own.get("assignment.murty_kbest", 0.0),
            "assignment.lsa_s": own.get("assignment.linear_sum_assignment", 0.0),
            "assignment.murty_calls": tracer.calls("assignment.murty_kbest"),
            "assignment.k_requested": c["k_requested"],
            "assignment.k_returned": c["k_returned"],
            "assignment.lsa_calls": lsa_calls,
            "assignment.solutions_per_lsa": c["k_returned"] / max(lsa_calls, 1),
            "metric.trajectory_metric_s": metric_ms.sum() / 1e3,
            "metric.linprog_s": own.get("metric.linprog", 0.0),
            "metric.assembly_s": own.get("metric.trajectory_metric", 0.0),
            "metric.lp_solves": tracer.calls("metric.linprog"),
            "metric.lp_vars": c["lp_vars"],
            "metric.step_ms.p90": np.percentile(metric_ms, 90),
            "models.sample_measurements_s": own.get("models.sample_measurements", 0.0),
            "models.measurements": c["measurements"],
            "harness.emit_outputs_s": own.get("harness.emit_outputs", 0.0),
            "harness.overhead_s": own.get("harness.run", 0.0),
            "trace.filter_s": filter_s,
            "trace.overhead_s": filter_s - untraced_filter_s,
            "trace.accounted_share": accounted / filter_s,
        }
    )
    for name in GAUSSIAN_KERNELS:
        out[f"gaussian.{name.lstrip('_')}_calls"] = tracer.calls(f"gaussian.{name}")
    return {k: float(v) for k, v in out.items()}
