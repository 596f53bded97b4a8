"""Fast tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import traced  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from trpmbm import emit_outputs, run_experiment, trees_to_text  # noqa: E402


def _digest(inputs) -> tuple:
    return (
        trees_to_text(inputs.truth),
        tuple(workloads.stream_hash(s) for s in inputs.streams),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, 11)
    first = _digest(inputs)
    other = _digest(workloads.make_inputs(wl, 12))
    assert first == _digest(workloads.make_inputs(wl, 11))
    assert first[1] != other[1]
    # the pinned streams lead and do not depend on the workload seed
    assert first[1][: wl.pinned_runs] == other[1][: wl.pinned_runs]
    assert len(inputs.streams) == wl.pinned_runs + wl.seed_runs
    assert all(len(s) == inputs.cfg.horizon for s in inputs.streams)


def test_spawn_workloads_share_truth_and_streams():
    ppp = workloads.make_inputs(workloads.WORKLOADS["spawn-ppp"], 5)
    mb = workloads.make_inputs(workloads.WORKLOADS["spawn-mb"], 5)
    assert _digest(ppp) == _digest(mb)


def test_dense_truth_is_fixed_and_streams_follow_the_seed():
    wl = workloads.WORKLOADS["dense-clutter"]
    a, b = workloads.make_inputs(wl, 1), workloads.make_inputs(wl, 2)
    assert trees_to_text(a.truth) == trees_to_text(b.truth)
    assert a.cfg.horizon == 40 and a.cfg.measurement.clutter_rate == 30.0
    assert (wl.pinned_runs + wl.seed_runs) * a.cfg.horizon >= 100


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert [w["name"] for w in on_disk["workloads"]] == sorted(
        workloads.WORKLOADS, key=list(spec.WORKLOADS).index
    )


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9] -> b1 [5, 6], b2 [7, 8.5]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_self_seconds_per_name():
    tracer = Tracer()
    slow = tracer.wrap("child", lambda: time.sleep(0.01))
    with tracer.span("parent"):
        slow()
        slow()
    own = tracer.self_seconds()
    total = tracer.durations("parent").sum()
    assert own["child"] >= 0.02
    assert own["parent"] + own["child"] == pytest.approx(total)


def _fake_launch(outcomes):
    """Launcher returning canned worker results, one per call."""
    calls = iter(outcomes)

    def launch(mode, workload, seed, out, timeout):
        if mode == "setup":
            return {"ok": True, "setup_s": 0.5, "stream_hashes": ["h"], "wall_s": 0.0}
        time.sleep(0.2)
        result = dict(next(calls))
        result["wall_s"] = 0.2
        return result

    return launch


GOOD_REP = {
    "ok": True,
    "setup_s": 0.6,
    "stream_hashes": ["h"],
    "run_s": 2.0,
    "filter_s": 1.5,
    "score_s": 0.5,
    "rms_error": 3.0,
    "peak_rss_mb": 100.0,
    "digests": {"rms_vs_time.csv": "d"},
    "problems": [],
    "per_layer": {name: 1.0 for name, *_ in spec.PER_LAYER},
}
FAILED_REP = {"ok": False, "phase": "run", "error": "RuntimeError('forced')", "setup_s": 0.6}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, tmp_path):
    monkeypatch.setattr(run, "launch_worker", _fake_launch([GOOD_REP] * 5))
    argv = ["--workload", "spawn-mb", "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--results", str(tmp_path)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in section}
    for m in section:
        printed = last["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)
        assert f"{m['name']} {printed['value']} {m['unit']}" in lines
    record = json.loads((tmp_path / f"spawn-mb-seed1-trace{trace}.json").read_text())
    assert {"commit", "nproc", "cpu_model", "python", "numpy", "scipy", "seed", "why"} <= set(
        record["provenance"]
    )


def test_a_failing_run_is_counted_not_fatal():
    out = run.run("spawn-mb", 1, 0.5, False, launch=_fake_launch([FAILED_REP, GOOD_REP]))
    result = out["result"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"]
    assert result["metrics"]["ok_share"]["value"] == 0.5
    assert result["metrics"]["run_s"]["value"] == 2.0

    out = run.run("spawn-mb", 1, 0.0, False, launch=_fake_launch([FAILED_REP]))
    assert (out["result"]["attempted"], out["result"]["failed"]) == (1, 1)
    assert not out["result"]["correct"]
    assert out["result"]["metrics"]["ok_share"]["value"] == 0.0


def test_worker_reports_a_raising_run(monkeypatch, capsys, tmp_path):
    def boom(*args):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(worker, "_untraced", boom)
    code = worker.main(["--mode", "rep", "--workload", "spawn-mb", "--seed", "1",
                        "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["ok"] is False and last["phase"] == "run"
    assert "forced failure" in last["error"]


def test_differing_repetitions_fail_the_check():
    other = dict(GOOD_REP, digests={"rms_vs_time.csv": "other"})
    assert run.check([GOOD_REP, GOOD_REP], []) == []
    assert run.check([GOOD_REP, other], []) == ["data CSVs differ between repetitions of one seed"]


def test_traced_run_reproduces_the_untraced_outputs(tmp_path):
    wl = replace(workloads.WORKLOADS["spawn-ppp"], seed_runs=2)
    full = workloads.make_inputs(wl, 4)
    cfg = replace(full.cfg, horizon=8)
    inputs = workloads.Inputs(cfg, full.truth, [s[:8] for s in full.streams])
    reports = []
    for exp_seed, n_runs in wl.experiments(4):
        reports += run_experiment(cfg, [wl.spec], n_runs, exp_seed, truth=inputs.truth)
    emit_outputs(reports, tmp_path / "untraced")
    tracer = Tracer()
    traced_reports, finals = traced.run_traced(wl, inputs, 4, tmp_path / "traced", tracer)
    for name in worker.DATA_FILES:
        assert (tmp_path / "traced" / name).read_bytes() == (
            tmp_path / "untraced" / name
        ).read_bytes()
    assert [r.measurement_hash for r in traced_reports] == [r.measurement_hash for r in reports]
    assert traced.posterior_problems(finals) == []
    metrics = traced.per_layer_metrics(tracer, sum(r.filter_seconds for r in reports))
    assert set(metrics) == {name for name, *_ in spec.PER_LAYER}
    assert metrics["models.measurements"] == sum(len(Z) for s in inputs.streams for Z in s)
    assert metrics["filter.new_trees"] == metrics["models.measurements"]
    assert 0.9 < metrics["trace.accounted_share"] <= 1.0
    # the package is restored once the traced run ends
    import trpmbm.filter

    assert not hasattr(trpmbm.filter.murty_kbest, "__wrapped__")


def test_compare_reports_same_code_as_same(tmp_path):
    for side in ("a", "b"):
        d = tmp_path / side
        d.mkdir()
        for seed in range(10):
            metrics = {name: {"value": 10.0 + seed % 3 * 0.01, "unit": u}
                       for name, u, *_ in spec.END_TO_END}
            record = {"provenance": {"workload": "spawn-ppp", "seed": seed},
                      "result": {"metrics": metrics}}
            (d / f"spawn-ppp-seed{seed}-trace0.json").write_text(json.dumps(record))
    rows = compare.compare(compare.load(tmp_path / "a"), compare.load(tmp_path / "b"))
    assert {r["verdict"] for r in rows} == {"same"}
    assert compare.verdict([1.0] * 10, [1.5] * 10, 0, 10, "lower", 0.2) == "worse"
    assert compare.verdict([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 0, 0, "lower", 0.2) == "unresolved"
