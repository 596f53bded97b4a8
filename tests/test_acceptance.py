"""Acceptance suite: one test per shipped guarantee, each printing PASS/FAIL.

Criteria 7-9 share one Monte-Carlo experiment (fixed recorded ground truth,
20 measurement-noise runs, four filter configurations) built once per
session.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import importlib.resources as resources

from trpmbm.assignment import InfeasibleAssignmentError, murty_kbest
from trpmbm.filter import check_posterior, estimate, initial_posterior, step
from trpmbm.harness import FilterSpec, rms_curves, run_experiment
from trpmbm.metric import TrajMetricParams, Track, trajectory_metric
from trpmbm.models import default_scenario, no_spawning, sample_ground_truth, sample_measurement_sequence
from trpmbm.trees import branch_length, genealogy_for, max_branch_length, parse_trees, unique_id

from discrete import predict_slots, slot_marginal
from oracles import enumerate_assignments, enumerate_predicted_marginals, metric_by_enumeration
from test_discrete_prediction import _random_model, _random_slots


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(
                f"\nACCEPTANCE {number} ({name}): PASS"
                f" [{time.perf_counter() - start:.1f}s]"
            )

        return wrapper

    return decorate


@criterion(1, "branch algebra")
def test_criterion_1_branch_algebra():
    assert branch_length((1, 1, 1, 0, 0, 0)) == 3
    assert branch_length((1, 2, 1, 1, 1, 1)) == 5
    assert branch_length((1, 2, 1, 1, 2, 1)) == 2
    assert unique_id((1, 2, 1, 1, 2, 1)) == (1, 2, 1, 1, 2)
    assert max_branch_length(6, (1, 2, 1, 1, 2)) == 2
    assert genealogy_for(6, (1, 2, 1, 1, 2), 1) == (1, 2, 1, 1, 2, 0)


@criterion(2, "prediction-rule oracle on finite spaces")
def test_criterion_2_prediction_oracle():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(10):
        n_states = int(rng.integers(2, 5))
        new_gen = int(rng.integers(2, 5))
        model = _random_model(rng, n_states, n_spawn_modes=1)
        slots = _random_slots(rng, n_states, new_gen)
        assert len(slots) <= 2
        predicted = predict_slots(slots, model, new_gen)
        expected = enumerate_predicted_marginals(slots, model, new_gen)
        for out_slot, want in zip(predicted, expected):
            got = slot_marginal(out_slot)
            for key in set(got) | set(want):
                worst = max(worst, abs(got.get(key, 0.0) - want.get(key, 0.0)))
    assert worst <= 1e-10, f"max deviation {worst}"


@criterion(3, "assignment oracle")
def test_criterion_3_assignment_oracle():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 8))
        m = int(rng.integers(n, 10))
        C = rng.normal(size=(n, m)) * 6
        C[rng.random(size=(n, m)) < 0.15] = np.inf
        if not np.isfinite(C).any(axis=1).all():
            continue
        K = int(rng.integers(1, 16))
        try:
            got = murty_kbest(C, K)
        except InfeasibleAssignmentError:
            assert enumerate_assignments(C, 1) == []
            continue
        want = enumerate_assignments(C, K)
        assert len(got) == len(want)
        for (ga, gc), (wa, wc) in zip(got, want):
            assert abs(gc - wc) <= 1e-12
        assert got[0][1] == want[0][1]
        checked += 1


@criterion(4, "trajectory-metric oracle")
def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(4242)
    params = TrajMetricParams()
    for _ in range(100):
        k = int(rng.integers(1, 5))

        def tracks(n, tag):
            out = []
            for i in range(n):
                start = int(rng.integers(1, k + 1))
                length = int(rng.integers(1, k - start + 2))
                out.append(Track((tag, i), start, rng.uniform(0, 25, size=(length, 2))))
            return out

        est = tracks(int(rng.integers(0, 4)), "e")
        truth = tracks(int(rng.integers(0, 4)), "t")
        got = trajectory_metric(est, truth, params, k)
        want = metric_by_enumeration(est, truth, params, k)
        assert abs(got.total - want) <= 1e-6
        parts = got.localisation**2 + got.missed**2 + got.false**2 + got.switch**2
        assert got.total**2 == pytest.approx(parts, rel=1e-12, abs=1e-12)


@criterion(5, "spawning-mode reduction is exact")
def test_criterion_5_mode_reduction():
    cfg = default_scenario()
    zeroed = replace(
        cfg, modes=(cfg.modes[0],) + tuple(replace(m, prob=0.0) for m in cfg.modes[1:])
    )
    single = no_spawning(cfg)
    for seed in (11, 23, 37, 59, 71):
        truth = sample_ground_truth(cfg, seed=seed)
        meas = sample_measurement_sequence(truth, cfg, seed=seed)
        post_a, post_b = initial_posterior(), initial_posterior()
        for k in range(1, cfg.horizon + 1):
            post_a = step(post_a, meas[k - 1], zeroed, kind="trpmbm")
            post_b = step(post_b, meas[k - 1], single, kind="trpmbm")
        assert [g.log_w for g in post_a.hypotheses] == [
            g.log_w for g in post_b.hypotheses
        ]
        assert [g.selection for g in post_a.hypotheses] == [
            g.selection for g in post_b.hypotheses
        ]
        ea, eb = estimate(post_a, zeroed), estimate(post_b, single)
        assert len(ea) == len(eb)
        for ta, tb in zip(ea, eb):
            assert ta.start_time == tb.start_time
            assert len(ta.branches) == len(tb.branches)
            for ba, bb in zip(ta.branches, tb.branches):
                assert ba.genealogy == bb.genealogy
                assert np.array_equal(ba.states, bb.states)


@criterion(6, "structural invariants over a full run")
def test_criterion_6_structural_invariants():
    cfg = default_scenario()
    truth = sample_ground_truth(cfg, seed=606)
    meas = sample_measurement_sequence(truth, cfg, seed=606)
    post = initial_posterior()
    for k in range(1, cfg.horizon + 1):
        # validate=True checks weight normalisation, beta sums, association
        # exclusivity at formation time, r in [0,1] and covariance health
        post = step(post, meas[k - 1], cfg, kind="trpmbm", validate=True)
        assert check_posterior(post) == []


# ---------------------------------------------------------------------------
# Shared experiment for criteria 7-9
# ---------------------------------------------------------------------------

SPECS = [
    FilterSpec("trpmbm", 5),
    FilterSpec("trpmbm", 1),
    FilterSpec("trmbm", 5),
    FilterSpec("tpmbm", 5),
]
N_RUNS = 20
SPAWN_ERA = slice(52, 100)  # steps 53..100, 0-indexed


@pytest.fixture(scope="session")
def experiment():
    cfg = default_scenario()
    text = (resources.files("trpmbm") / "data" / "recorded_truth.txt").read_text()
    truth = parse_trees(text)
    start = time.perf_counter()
    reports = run_experiment(cfg, SPECS, N_RUNS, seed=2026, truth=truth, jobs=2)
    wall = time.perf_counter() - start
    print(f"\n[experiment: {N_RUNS} runs x {len(SPECS)} filters in {wall:.0f}s]")
    return reports, wall


@criterion(7, "error ordering at desk scale")
def test_criterion_7_error_ordering(experiment):
    reports, wall = experiment
    assert wall <= 900.0, f"experiment took {wall:.0f}s, budget is 15 min"
    curves = rms_curves(reports)
    late_trpmbm = curves["trpmbm-L5"]["total"][SPAWN_ERA].mean()
    late_tpmbm = curves["tpmbm-L5"]["total"][SPAWN_ERA].mean()
    assert late_trpmbm <= late_tpmbm, (late_trpmbm, late_tpmbm)
    overall_l5 = curves["trpmbm-L5"]["total"].mean()
    overall_l1 = curves["trpmbm-L1"]["total"].mean()
    assert overall_l5 <= overall_l1, (overall_l5, overall_l1)
    print(
        f"  spawn-era RMS: trpmbm-L5 {late_trpmbm:.3f} <= tpmbm-L5 {late_tpmbm:.3f}; "
        f"overall: L5 {overall_l5:.3f} <= L1 {overall_l1:.3f}",
        end="",
    )


@criterion(8, "window length helps localisation only")
def test_criterion_8_decomposition_gap(experiment):
    reports, _ = experiment
    curves = rms_curves(reports)
    deltas = {
        comp: curves["trpmbm-L1"][comp].mean() - curves["trpmbm-L5"][comp].mean()
        for comp in ("localisation", "missed", "false", "switch")
    }
    loc_gain = deltas.pop("localisation")
    assert loc_gain > 0.0
    for comp, delta in deltas.items():
        assert loc_gain >= 3.0 * abs(delta), (comp, loc_gain, delta)
    print(f"  localisation gain {loc_gain:.3f}, others {deltas}", end="")


@criterion(9, "relative computational cost ordering")
def test_criterion_9_timing_ordering(experiment):
    reports, _ = experiment
    seconds = {
        label: sum(r.filter_seconds for r in reports if r.label == label)
        for label in ("trpmbm-L5", "trmbm-L5", "tpmbm-L5")
    }
    assert seconds["trpmbm-L5"] > seconds["trmbm-L5"] > seconds["tpmbm-L5"], seconds
    print(f"  filter seconds over {N_RUNS} runs: {seconds}", end="")
