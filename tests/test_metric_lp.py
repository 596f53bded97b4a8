"""The metric's vectorised LP assembly, 1x1 closed form and clustering
against the loop-based references in ``oracles``."""

import numpy as np
import pytest
from scipy import sparse

import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric
from oracles import clusters_by_pairs, lp_by_loops, parts_by_lp


def _random_tracks(rng, n, k, tag, spread=30.0):
    out = []
    for i in range(n):
        start = int(rng.integers(1, k + 1))
        length = int(rng.integers(1, k - start + 2))
        out.append(Track((tag, i), start, rng.uniform(0, spread, size=(length, 2))))
    return out


def _random_params(rng):
    return TrajMetricParams(
        p=float(rng.choice([1.0, 1.5, 2.0, 3.0])),
        c=float(rng.uniform(2.0, 20.0)),
        gamma=float(rng.choice([0.0, 1.0, 2.5])),
    )


def test_vectorised_assembly_matches_loops():
    rng = np.random.default_rng(3)
    for _ in range(150):
        k = int(rng.integers(1, 31))
        est = _random_tracks(rng, int(rng.integers(1, 5)), k, "e")
        truth = _random_tracks(rng, int(rng.integers(1, 5)), k, "t")
        params = _random_params(rng)
        cost, tag, A_eq, A_ub = lp_by_loops(est, truth, params, k)
        t0 = min(tr.start for tr in est + truth)
        every_pair = np.ones((len(est), len(truth)), dtype=bool)
        geometry = [g[t0 - 1 :] for g in metric._geometry(est, truth, k)]
        got_cost, got_tag = metric._cluster_costs(geometry, every_pair, params)
        indptr, indices, values, lhs, rhs = metric._model(
            len(est), len(truth), k - t0 + 1, np.flatnonzero(every_pair)
        )
        assert got_tag.dtype == tag.dtype
        assert np.array_equal(got_cost, cost)
        assert np.array_equal(got_tag, tag)
        # [A_ub; A_eq] in CSR, the inequalities bounded above by 0 and the
        # equalities fixed at 1
        want = (A_eq if A_ub is None else sparse.vstack([A_ub, A_eq], format="csr")).tocsr()
        n_ub = 0 if A_ub is None else A_ub.shape[0]
        assert indptr.dtype == want.indptr.dtype and indices.dtype == want.indices.dtype
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert np.array_equal(values, want.data)
        assert np.array_equal(lhs, np.r_[np.full(n_ub, -np.inf), np.ones(A_eq.shape[0])])
        assert np.array_equal(rhs, np.r_[np.zeros(n_ub), np.ones(A_eq.shape[0])])


def _interacting_pair(rng, k, c):
    """One estimate and one truth that come within c at least once.

    The estimate drifts between stretches closer and farther than c, and
    the two tracks start and end at different steps.
    """
    while True:
        t_start, e_start = (int(v) for v in rng.integers(1, k + 1, size=2))
        t_len = int(rng.integers(1, k - t_start + 2))
        e_len = int(rng.integers(1, k - e_start + 2))
        lo, hi = max(t_start, e_start), min(t_start + t_len, e_start + e_len) - 1
        if lo <= hi:
            break
    truth_pos = np.cumsum(rng.normal(0.0, 2.0, size=(t_len, 2)), axis=0)
    offset = np.where(rng.random(e_len) < 0.5, 0.3, 1.5)[:, None] * c
    angle = rng.uniform(0, 2 * np.pi, size=e_len)
    e_pos = rng.normal(0.0, 20.0, size=(e_len, 2))
    for s in range(e_start, e_start + e_len):
        if t_start <= s < t_start + t_len:
            i = s - e_start
            e_pos[i] = truth_pos[s - t_start] + offset[i, 0] * np.array([np.cos(angle[i]), np.sin(angle[i])])
    close = int(rng.integers(lo, hi + 1))
    e_pos[close - e_start] = truth_pos[close - t_start] + 0.1 * c
    return Track("e", e_start, e_pos), Track("t", t_start, truth_pos)


def test_one_by_one_closed_form_equals_lp_bitwise(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("1x1 cluster reached linprog")

    rng = np.random.default_rng(11)
    cases = []
    for _ in range(120):
        k = int(rng.integers(1, 101))
        params = TrajMetricParams(
            p=float(rng.choice([1.0, 2.0, 2.5])),
            c=float(rng.uniform(3.0, 15.0)),
            gamma=float(rng.choice([0.5, 1.0, 4.0])),
        )
        est, truth = _interacting_pair(rng, k, params.c)
        cases.append((est, truth, params, k, parts_by_lp([est], [truth], params, k)))
    monkeypatch.setattr(metric, "linprog", no_lp)
    for est, truth, params, k, want in cases:
        t0 = min(est.start, truth.start)
        geometry = [g[t0 - 1 :] for g in metric._geometry([est], [truth], k)]
        close = np.ones((1, 1), dtype=bool)
        got = metric._cluster_objective([est], [truth], params, k, geometry, close, None, None)
        assert np.array_equal(got, want), (got, want)


def test_zero_switch_penalty_solves_the_lp(monkeypatch):
    calls = []
    real = metric.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(metric, "linprog", counting)
    est = [Track("e", 1, np.array([[0.0, 0.0], [0.0, 20.0], [0.0, 1.0]]))]
    truth = [Track("t", 1, np.zeros((3, 2)))]
    trajectory_metric(est, truth, TrajMetricParams(gamma=1.0), 3)
    assert calls == []
    out = trajectory_metric(est, truth, TrajMetricParams(gamma=0.0), 3)
    assert calls == [1]
    assert out.switch == 0.0


def test_clusters_match_pairwise_reference():
    rng = np.random.default_rng(8)
    for _ in range(100):
        k = int(rng.integers(1, 25))
        est = _random_tracks(rng, int(rng.integers(0, 8)), k, "e", spread=60.0)
        truth = _random_tracks(rng, int(rng.integers(0, 8)), k, "t", spread=60.0)
        c = float(rng.uniform(2.0, 25.0))
        close = (metric._geometry(est, truth, k)[0] < c).any(axis=0)
        assert metric._clusters(close) == clusters_by_pairs(est, truth, c)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": 0.0},
        {"c": -1.0},
        {"p": 0.5},
        {"gamma": -1.0},
        {"p": float("inf")},
        {"c": float("nan")},
        {"gamma": float("inf")},
        # finite, but c**p or gamma**p overflows a double
        {"p": 400.0},
        {"c": 1e200},
        {"gamma": 1e200},
    ],
)
def test_params_reject_invalid(kwargs):
    with pytest.raises(ValueError):
        TrajMetricParams(**kwargs)


def test_params_accept_boundary_values():
    assert TrajMetricParams(p=1.0, c=1e-3, gamma=0.0).gamma == 0.0
