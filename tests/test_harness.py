import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trpmbm
from trpmbm import harness
from trpmbm.cli import main
from trpmbm.harness import FilterSpec, emit_outputs, rms_curves, run_experiment
from trpmbm.models import default_scenario, sample_ground_truth, scenario_from_dict


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


def test_dat_files_repeat_their_csv_twins(tmp_path):
    cfg = _small_cfg(6)
    reports = run_experiment(cfg, [FilterSpec("tpmbm", 2), FilterSpec("tpmbm", 1)], n_runs=1, seed=5)
    emit_outputs(reports, tmp_path)

    def rows(name, sep):
        return [line.split(sep) for line in (tmp_path / name).read_text().splitlines()]

    rms = rows("rms_vs_time.csv", ",")
    dat = rows("rms_vs_time.dat", " ")
    assert dat[0] == ["#"] + rms[0]
    assert dat[1:] == rms[1:]

    deco = rows("decomposition.csv", ",")
    labels = rms[0][1:]
    for c, comp in enumerate(deco[0][2:], start=2):
        dat = rows(f"decomposition_{comp}.dat", " ")
        assert dat[0] == ["#", "step"] + labels
        for j, label in enumerate(labels, start=1):
            mine = [row for row in deco[1:] if row[1] == label]
            assert [[row[0], row[c]] for row in mine] == [[row[0], row[j]] for row in dat[1:]]


def test_emit_outputs_rejects_empty():
    with pytest.raises(ValueError):
        emit_outputs([], "/tmp/nowhere")


def test_pool_starts_no_more_workers_than_runs(monkeypatch):
    # a fork pool starts every worker up front, so --jobs 500 --runs 2
    # must not ask for 500 processes; a stub pool records the request
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    run_experiment(_small_cfg(2), [FilterSpec("tpmbm", 1)], n_runs=2, seed=1, jobs=500)
    run_experiment(_small_cfg(2), [FilterSpec("tpmbm", 1)], n_runs=3, seed=1, jobs=2)
    assert asked == [2, 2]


def test_run_experiment_rejects_repeated_filters():
    with pytest.raises(ValueError, match="tpmbm-L1"):
        run_experiment(_small_cfg(2), [FilterSpec("tpmbm", 1)] * 2, n_runs=1, seed=1)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_experiment_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="job"):
        run_experiment(_small_cfg(2), [FilterSpec("tpmbm", 1)], n_runs=1, seed=1, jobs=jobs)


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

    code = main(["--lscan", "x", "--out", str(tmp_path / "z")])
    assert code != 0
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert "--lscan" in payload["message"]

    code = main(["--seed", "-1", "--runs", "1", "--out", str(tmp_path / "s")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert "--seed" in payload["message"]

    # option errors leave as the JSON error too, not as argparse's usage text
    code = main(["--lscan", "-1,-1", "--out", str(tmp_path / "u")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError" and "--lscan" in payload["message"]

    # a repeated filter would run twice and be reported as one with doubled runs
    for args in (["--lscan", "1,1"], ["--filters", "trpmbm,trpmbm", "--lscan", "1"]):
        out = tmp_path / "twice"
        code = main([*args, "--runs", "1", "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "trpmbm-L1" in payload["message"]
        assert not (out / "timing.csv").exists()

    # a genealogy of two generations with one state, a state of three
    # numbers, a non-finite state
    for text, problem in [
        ("1; 1,1; 1 2 3 4\n", "genealogy implies 2"),
        ("1; 1; 1 2 3\n", "4 numbers"),
        ("1; 1; 0 0 0 0\n\n1; 1; nan 0 0 0\n", "finite"),
    ]:
        truth = tmp_path / "truth.txt"
        truth.write_text(text)
        code = main(["--truth", str(truth), "--runs", "1", "--out", str(tmp_path / "t")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "--truth" in payload["message"] and problem in payload["message"]
        assert f"tree {text.count(chr(10) * 2)}" in payload["message"]


@pytest.mark.parametrize("option", ["--lscan", "--filters"])
@pytest.mark.parametrize("value", [",", " , "])
def test_cli_rejects_an_empty_list_naming_its_option(tmp_path, capsys, option, value):
    out = tmp_path / "o"
    code = main([option, value, "--runs", "1", "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(f"{option}: "), payload["message"]
    assert not out.exists()


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
        ({"seed": -3}, "seed"),
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


@pytest.mark.parametrize(
    "scenario, field",
    [
        # the samplers factor the lower triangle, the filter the symmetric part
        (
            {"birth": [{"cov": [[1, 2, 0, 0], [-2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}]},
            "birth[0].cov not symmetric",
        ),
        # eigenvalue -5e-10: no Cholesky factor of Q + 1e-12 I
        ({"modes": [{"prob": 0.99, "Q": np.diag([1.0, 1.0, 1.0, -5e-10]).tolist()}]}, "modes[0].Q"),
        ({"measurement": {"R": [[4, 1], [-1, 4]]}}, "measurement.R not symmetric"),
    ],
)
def test_cli_rejects_covariances_the_sampler_cannot_factor(tmp_path, capsys, scenario, field):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**scenario, "horizon": 3}))
    code = main(["--scenario", str(path), "--runs", "1", "--out", str(tmp_path / "o")])
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


@pytest.mark.parametrize(
    "error",
    [MemoryError("cannot allocate the cost matrix"), ZeroDivisionError("float division by zero")],
    ids=["MemoryError", "ZeroDivisionError"],
)
def test_cli_reports_every_failure_as_json(tmp_path, capsys, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr("trpmbm.cli.run_experiment", failing)
    code = main(["--runs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": type(error).__name__, "message": str(error)}


# a finite birth mean whose sampled states overflow to inf, then NaN
HUGE_BIRTH = {"birth": [{"weight": 1, "mean": [1e308] * 4}], "horizon": 3}


def test_run_experiment_refuses_a_sampled_truth_with_non_finite_states():
    cfg = scenario_from_dict(HUGE_BIRTH)
    with pytest.raises(ValueError, match="sampled truth: tree 0: branch 0: states must be finite"):
        run_experiment(cfg, [FilterSpec("trpmbm", 1)], n_runs=1, seed=0)


def test_cli_refuses_a_sampled_truth_with_non_finite_states(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(HUGE_BIRTH))
    out = tmp_path / "o"
    code = main(["--scenario", str(scenario), "--runs", "1", "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError" and "finite" in payload["message"]
    assert not out.exists()


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


def test_cli_refuses_a_clutter_density_that_overflows(tmp_path):
    # loaded, the density is inf and the filter fails at step 1 after a numpy warning
    (tmp_path / "s.json").write_text(
        json.dumps({"measurement": {"clutter_region": [[0, 1], [0, 1e-320]]}, "horizon": 3})
    )
    src = str(Path(trpmbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "trpmbm.cli", "--scenario", str(tmp_path / "s.json"),
         "--runs", "1", "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
    )  # fmt: skip
    assert result.returncode == 1
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "ScenarioError"
    assert "clutter_rate" in payload["message"] and "clutter_region" in payload["message"]
