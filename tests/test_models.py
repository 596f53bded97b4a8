import json
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from trpmbm.models import (
    ScenarioError,
    default_scenario,
    load_scenario,
    no_spawning,
    perp_unit,
    sample_ground_truth,
    sample_measurement_sequence,
    sample_measurements,
    scenario_from_dict,
    write_ground_truth,
    write_measurements,
)
from trpmbm.trees import parse_trees, targets_at_time, validate_tree


def test_perp_unit_reference_values():
    assert np.allclose(perp_unit(np.array([0.0, 1.0, 0.0, 0.0])), [0, 0, 1, 0])
    assert np.allclose(perp_unit(np.array([0.0, 0.0, 0.0, 1.0])), [-1, 0, 0, 0])
    # degenerate speed falls back to +y
    assert np.allclose(perp_unit(np.array([5.0, 0.0, 3.0, 0.0])), [0, 0, 1, 0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4) * 10
        assert np.linalg.norm(perp_unit(x)) == pytest.approx(1.0, abs=1e-12)


def test_default_scenario_values():
    cfg = default_scenario()
    assert cfg.n_modes == 3
    assert cfg.survival.prob == 0.99
    assert cfg.spawn_modes[0].prob == 0.01
    assert cfg.measurement.p_detect == 0.9
    assert cfg.measurement.clutter_rate == 10.0
    assert cfg.measurement.clutter_density == pytest.approx(10.0 / (600 * 400))
    assert cfg.births[0].weight == 0.08
    assert cfg.horizon == 100
    f = cfg.filters
    assert (f.n_hyp, f.gamma_mbm, f.gate, f.gamma_estimate) == (100, 1e-4, 15.0, 0.4)


def test_single_deterministic_lineage():
    cfg = default_scenario()
    cfg = replace(
        cfg,
        horizon=20,
        modes=(replace(cfg.modes[0], prob=1.0),)
        + tuple(replace(m, prob=0.0) for m in cfg.modes[1:]),
    )
    for seed in range(5):
        for tree in sample_ground_truth(cfg, seed=seed):
            assert len(tree.branches) == 1
            marks = tree.branches[0].genealogy
            assert all(m == 1 for m in marks)
            assert len(marks) == cfg.horizon - tree.start_time + 1


def test_no_spawning_yields_single_branch_trees():
    cfg = replace(no_spawning(default_scenario()), horizon=30)
    for seed in range(10):
        for tree in sample_ground_truth(cfg, seed=seed):
            assert len(tree.branches) == 1


def test_sampler_statistics_within_three_sigma():
    from trpmbm.trees import first_own_generation, last_alive_generation

    cfg = replace(default_scenario(), horizon=60)
    survived = trials = 0
    spawns = alive_steps = 0
    for seed in range(80):
        for tree in sample_ground_truth(cfg, seed=seed):
            nu = tree.n_generations
            for br in tree.branches:
                own = first_own_generation(br.genealogy)
                end = last_alive_generation(br.genealogy)
                # one survival trial per alive generation before the horizon
                for g in range(own, min(end, nu - 1) + 1):
                    trials += 1
                    if g < end:
                        survived += 1
                if own > 1:
                    spawns += 1
            for k in range(tree.start_time, tree.end_time):
                alive_steps += len(targets_at_time(tree, k))
    p_hat = survived / trials
    sigma = np.sqrt(0.99 * 0.01 / trials)
    assert abs(p_hat - 0.99) < 3 * sigma
    # two independent spawn modes, each 0.01 per alive target step
    rate = spawns / alive_steps
    sigma = np.sqrt(2 * 0.01 * 0.99 / alive_steps)
    assert abs(rate - 0.02) < 3 * sigma


def test_measurement_sampler_statistics():
    base = replace(default_scenario(), horizon=40)
    truth = sample_ground_truth(base, seed=13)

    # detection rate, with clutter switched off
    clean = replace(base, measurement=replace(base.measurement, clutter_rate=0.0))
    detections = targets = 0
    for seed in range(60):
        for k in range(1, clean.horizon + 1):
            targets += sum(
                len(targets_at_time(t, k)) for t in truth if t.start_time <= k <= t.end_time
            )
            detections += len(sample_measurements(truth, clean, k, seed=seed))
    rate = detections / targets
    sigma = np.sqrt(0.9 * 0.1 / targets)
    assert abs(rate - 0.9) < 3 * sigma

    # clutter mean, with detections switched off
    noisy = replace(base, measurement=replace(base.measurement, p_detect=0.0))
    clutter = n_steps = 0
    for seed in range(60):
        for k in range(1, noisy.horizon + 1):
            clutter += len(sample_measurements(truth, noisy, k, seed=seed))
            n_steps += 1
    mean = clutter / n_steps
    sigma = np.sqrt(10.0 / n_steps)
    assert abs(mean - 10.0) < 3 * sigma
    lo = noisy.measurement.clutter_region[:, 0]
    hi = noisy.measurement.clutter_region[:, 1]
    Z = sample_measurements(truth, noisy, 5, seed=0)
    assert np.all(Z >= lo) and np.all(Z <= hi)


def test_measurement_sampler_degenerate_cases():
    cfg = default_scenario()
    quiet = replace(
        cfg,
        measurement=replace(cfg.measurement, p_detect=0.0, clutter_rate=0.0),
    )
    truth = sample_ground_truth(replace(quiet, horizon=10), seed=1)
    assert sample_measurements(truth, replace(quiet, horizon=10), 5, seed=0).size == 0

    exact = replace(
        cfg,
        horizon=10,
        measurement=replace(
            cfg.measurement, p_detect=1.0, clutter_rate=0.0, R=1e-20 * np.eye(2)
        ),
    )
    truth = sample_ground_truth(exact, seed=3)
    for k in (1, 5, 10):
        states = [
            x
            for t in truth
            if t.start_time <= k <= t.end_time
            for x in targets_at_time(t, k)
        ]
        Z = sample_measurements(truth, exact, k, seed=0)
        assert len(Z) == len(states)
        want = sorted(tuple(np.round(x[[0, 2]], 6)) for x in states)
        got = sorted(tuple(np.round(z, 6)) for z in Z)
        assert want == got


def test_sampling_is_reproducible_and_run_dependent():
    cfg = replace(default_scenario(), horizon=15)
    a = sample_ground_truth(cfg, seed=9)
    b = sample_ground_truth(cfg, seed=9)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.start_time == y.start_time
        for bx, by in zip(x.branches, y.branches):
            assert bx.genealogy == by.genealogy
            assert np.array_equal(bx.states, by.states)
    s0 = sample_measurement_sequence(a, cfg, seed=9, run=0)
    s1 = sample_measurement_sequence(a, cfg, seed=9, run=1)
    assert any(not np.array_equal(x, y) for x, y in zip(s0, s1))


def test_load_scenario_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_scenario(path)
    ref = default_scenario()
    assert cfg.measurement.p_detect == ref.measurement.p_detect
    assert np.array_equal(cfg.survival.F, ref.survival.F)
    assert cfg.filters == ref.filters


def test_load_scenario_overrides_and_errors(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"measurement": {"p_detect": 0.7}, "horizon": 12, "seed": 4}))
    cfg = load_scenario(path)
    assert cfg.measurement.p_detect == 0.7
    assert cfg.horizon == 12 and cfg.seed == 4

    path.write_text(json.dumps({"measurement": {"p_detect": 1.3}}))
    with pytest.raises(ScenarioError, match="p_detect"):
        load_scenario(path)

    path.write_text("{ not json")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)

    path.write_text(json.dumps({"horizont": 3}))
    with pytest.raises(ScenarioError, match="unknown fields"):
        load_scenario(path)


def test_scenario_rho_one_strips_spawning():
    cfg = scenario_from_dict({"rho": 1})
    assert cfg.n_modes == 1
    assert cfg.spawn_modes == ()


def test_scenario_validation_collects_problems():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(
            {
                "measurement": {"p_detect": -0.1, "clutter_rate": -2},
                "filters": {"n_hyp": 0, "lscan": 0},
            }
        )
    text = str(err.value)
    for frag in ("p_detect", "clutter_rate", "n_hyp", "lscan"):
        assert frag in text


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"birth": [{"cov": [[NaN, NaN, NaN, NaN], [NaN, NaN, NaN, NaN],'
         ' [NaN, NaN, NaN, NaN], [NaN, NaN, NaN, NaN]], "weight": 1}]}', "birth[0].cov"),
        ('{"filters": {"gate": NaN}}', "filters.gate"),
        ('{"measurement": {"clutter_region": [[0, NaN], [0, 400]]}}', "measurement.clutter_region"),
        ('{"measurement": {"clutter_rate": Infinity}}', "measurement.clutter_rate"),
        ('{"modes": [{"prob": 0.9, "F": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -Infinity]]}]}',
         "modes[0].F"),
        # an integer too large for a float overflowed numpy's conversion
        ('{"birth": [{"mean": [1' + "0" * 400 + ', 0, 0, 0]}]}', "birth[0].mean"),
    ],
    ids=["nan-cov", "nan-gate", "nan-clutter-region", "inf-clutter-rate", "inf-F", "huge-int-mean"],
)
def test_loader_rejects_non_finite_values(tmp_path, text, field):
    path = tmp_path / "s.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(field)):
        load_scenario(path)


@pytest.mark.parametrize(
    "region, area",
    [([[0, 1e-300], [0, 1e-300]], "0.0"), ([[0, 1e308], [-1e308, 1e308]], "inf")],
    ids=["area-underflows", "area-overflows"],
)
def test_loader_rejects_a_clutter_region_without_positive_finite_area(tmp_path, region, area):
    # every span is positive, but their product is not a usable area
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"measurement": {"clutter_region": region}}))
    with pytest.raises(ScenarioError, match=f"clutter_region area {area} must be"):
        load_scenario(path)


def test_loader_rejects_a_clutter_density_that_overflows(tmp_path):
    # the area 1e-320 is positive and finite, but the rate over it is not
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"measurement": {"clutter_region": [[0, 1], [0, 1e-320]]}}))
    with pytest.raises(ScenarioError, match="clutter_rate 10.0 over the clutter_region area 1e-320"):
        load_scenario(path)


BENCHMARK_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "benchmark.json"


def _objects(value, path=()):
    """The path of every JSON object in ``value``, itself included."""
    if isinstance(value, dict):
        yield path
        for key, child in value.items():
            yield from _objects(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _objects(child, path + (i,))


def _deletions():
    """(object path, key) for every key of every object of the benchmark file."""
    data = json.loads(BENCHMARK_SCENARIO.read_text())
    out = []
    for path in _objects(data):
        obj = data
        for step in path:
            obj = obj[step]
        out += [(path, key) for key in obj]
    return out


def _assert_same_fields(got, want, where="cfg"):
    """Dataclasses compared field by field, arrays and floats to a relative 1e-12."""
    if is_dataclass(want):
        assert type(got) is type(want), where
        for f in fields(want):
            _assert_same_fields(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same_fields(a, b, f"{where}[{i}]")
    elif isinstance(want, (np.ndarray, float)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=where)
    else:
        assert got == want, where


@pytest.mark.parametrize("path, key", _deletions(), ids=lambda v: str(v))
def test_benchmark_scenario_without_any_one_key_loads_to_the_defaults(path, key):
    # the file spells out every default, so a deleted key falls back to it
    data = json.loads(BENCHMARK_SCENARIO.read_text())
    obj = data
    for step in path:
        obj = obj[step]
    del obj[key]
    _assert_same_fields(scenario_from_dict(data), default_scenario())


@pytest.mark.parametrize(
    "data, message",
    [
        ({"birth": [{}, {"mean": [0, 0, 0, 0]}]}, "birth[1]: missing fields ['weight', 'cov']"),
        ({"modes": [{}, {}, {}, {"prob": 0.0}]}, "modes[3]: missing fields ['F', 'Q', 'offset']"),
    ],
)
def test_an_entry_past_the_default_list_names_its_missing_fields(data, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_dict(data)


def test_an_entry_past_the_default_list_may_give_its_offset_by_perp_scale():
    mode = {"prob": 0.0, "F": np.eye(4).tolist(), "Q": np.eye(4).tolist(), "perp_scale": 2.0}
    cfg = scenario_from_dict({"modes": [{}, {}, {}, mode]})
    assert cfg.modes[3].perp_scale == 2.0 and cfg.modes[3].offset is None


def test_a_given_offset_replaces_the_default_entrys_perp_scale():
    cfg = scenario_from_dict({"modes": [{}, {"offset": [1, 0, 1, 0]}]})
    assert cfg.modes[1].perp_scale is None
    assert cfg.modes[1].offset.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert cfg.modes[1].prob == default_scenario().modes[1].prob


def test_exports(tmp_path):
    cfg = replace(default_scenario(), horizon=8)
    truth = sample_ground_truth(cfg, seed=2)
    write_ground_truth(truth, tmp_path / "truth.txt")
    back = parse_trees((tmp_path / "truth.txt").read_text())
    assert len(back) == len(truth)
    assert all(validate_tree(t, cfg.n_modes) == [] for t in back)

    seq = sample_measurement_sequence(truth, cfg, seed=2)
    write_measurements(seq, tmp_path / "meas.csv")
    lines = (tmp_path / "meas.csv").read_text().splitlines()
    assert lines[0] == "k,z1,z2"
    assert len(lines) == 1 + sum(len(Z) for Z in seq)
