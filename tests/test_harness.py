import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trpmbm
from trpmbm.cli import main
from trpmbm.harness import FilterSpec, emit_outputs, rms_curves, run_experiment
from trpmbm.models import default_scenario, sample_ground_truth


def _small_cfg(horizon=10):
    cfg = default_scenario()
    return replace(cfg, horizon=horizon)


def test_run_experiment_shapes_and_shared_streams():
    cfg = _small_cfg()
    specs = [FilterSpec("trpmbm", 2), FilterSpec("tpmbm", 2)]
    reports = run_experiment(cfg, specs, n_runs=2, seed=3)
    assert len(reports) == 4
    by_run = {}
    for r in reports:
        assert len(r.breakdowns) == cfg.horizon
        assert r.filter_seconds > 0
        by_run.setdefault(r.run, set()).add(r.measurement_hash)
    # every filter of a run consumed the identical measurement stream
    assert all(len(hashes) == 1 for hashes in by_run.values())
    # different runs saw different noise
    assert len({next(iter(h)) for h in by_run.values()}) == 2


def test_run_experiment_validates_inputs():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        run_experiment(cfg, [], 1, 0)
    with pytest.raises(ValueError):
        run_experiment(cfg, [FilterSpec("nope", 5)], 1, 0)
    with pytest.raises(ValueError):
        run_experiment(cfg, [FilterSpec("trpmbm", 0)], 1, 0)
    with pytest.raises(ValueError):
        run_experiment(cfg, [FilterSpec("trpmbm", 5)], 0, 0)


def test_parallel_equals_sequential():
    cfg = _small_cfg(8)
    specs = [FilterSpec("tpmbm", 2)]
    seq = run_experiment(cfg, specs, n_runs=2, seed=9, jobs=1)
    par = run_experiment(cfg, specs, n_runs=2, seed=9, jobs=2)
    for a, b in zip(seq, par):
        assert a.run == b.run and a.measurement_hash == b.measurement_hash
        for x, y in zip(a.breakdowns, b.breakdowns):
            assert x.as_tuple() == y.as_tuple()


def test_emit_outputs_files_and_rerun_bytes(tmp_path):
    cfg = _small_cfg()
    specs = [FilterSpec("tpmbm", 2), FilterSpec("tpmbm", 1)]
    reports = run_experiment(cfg, specs, n_runs=2, seed=7)
    out1 = tmp_path / "a"
    written = emit_outputs(reports, out1)
    names = {p.name for p in written}
    assert {"rms_vs_time.csv", "decomposition.csv", "timing.csv", "rms_vs_time.dat"} <= names

    rms_lines = (out1 / "rms_vs_time.csv").read_text().splitlines()
    assert rms_lines[0] == "step,tpmbm-L1,tpmbm-L2"
    assert len(rms_lines) == 1 + cfg.horizon

    deco_lines = (out1 / "decomposition.csv").read_text().splitlines()
    assert deco_lines[0] == "step,filter,localisation,missed,false,switch"
    assert len(deco_lines) == 1 + 2 * cfg.horizon

    timing = (out1 / "timing.csv").read_text().splitlines()
    assert timing[0] == "filter,lscan,runs,mean_seconds,total_seconds"
    assert len(timing) == 3

    # data outputs are byte-identical across reruns with the same seed
    reports2 = run_experiment(cfg, specs, n_runs=2, seed=7)
    out2 = tmp_path / "b"
    emit_outputs(reports2, out2)
    for name in ("rms_vs_time.csv", "decomposition.csv", "rms_vs_time.dat",
                 "decomposition_localisation.dat", "decomposition_missed.dat",
                 "decomposition_false.dat", "decomposition_switch.dat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_outputs_rejects_empty():
    with pytest.raises(ValueError):
        emit_outputs([], "/tmp/nowhere")


def test_rms_aggregation_matches_definition():
    cfg = _small_cfg(6)
    specs = [FilterSpec("tpmbm", 2)]
    reports = run_experiment(cfg, specs, n_runs=3, seed=1)
    curves = rms_curves(reports)["tpmbm-L2"]
    per_run = np.array([[b.total for b in r.breakdowns] for r in reports])
    want = np.sqrt((per_run**2).mean(axis=0))
    assert np.allclose(curves["total"], want)


def test_cli_end_to_end(tmp_path):
    truth_file = tmp_path / "truth.txt"
    from trpmbm.models import write_ground_truth

    cfg = _small_cfg(8)
    write_ground_truth(sample_ground_truth(cfg, seed=4), truth_file)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"horizon": 8}))
    out = tmp_path / "results"
    code = main(
        [
            "--scenario", str(scenario),
            "--filters", "tpmbm",
            "--lscan", "2",
            "--runs", "1",
            "--seed", "5",
            "--out", str(out),
            "--truth", str(truth_file),
        ]
    )
    assert code == 0
    assert (out / "rms_vs_time.csv").exists()


def test_cli_defaults_to_the_scenario_window(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"horizon": 3, "filters": {"lscan": 2}}))
    out = tmp_path / "results"
    assert main(["--scenario", str(scenario), "--runs", "1", "--out", str(out)]) == 0
    assert (out / "timing.csv").read_text().splitlines()[1].startswith("trpmbm,2,")


def test_cli_error_paths(tmp_path, capsys):
    code = main(["--filters", "", "--out", str(tmp_path / "x")])
    assert code != 0
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "y")])
    assert code != 0
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ScenarioError"


@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"modes": [1]}, "modes[0]"),
        ({"measurement": []}, "measurement"),
        ({"rho": [1]}, "rho"),
        ({"horizon": None}, "horizon"),
        ({"modes": [{"prob": None}]}, "modes[0].prob"),
        ({"filters": {"n_hyp": [2]}}, "filters.n_hyp"),
        ({"seed": "x"}, "seed"),
        ({"filters": {"n_hyp": 1.5}}, "filters.n_hyp"),
        ({"filters": {"lscan": 2.7}}, "filters.lscan"),
        ({"measurement": {"H": {"a": 1}}}, "measurement.H"),
    ],
)
def test_cli_rejects_wrongly_typed_sections(tmp_path, capsys, scenario, field):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ScenarioError"
    assert field in payload["message"]


def test_cli_reports_runtime_errors(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("metric LP failed: infeasible")

    monkeypatch.setattr("trpmbm.cli.run_experiment", failing)
    code = main(["--runs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "RuntimeError", "message": "metric LP failed: infeasible"}


def test_cli_subprocess_exit_codes(tmp_path):
    # the child imports the package from where this process found it
    src = str(Path(trpmbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "trpmbm.cli", "--filters", "tpmbm", "--lscan", "2",
         "--runs", "1", "--seed", "2", "--out", str(tmp_path / "o"),
         "--scenario", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert "error" in result.stderr
