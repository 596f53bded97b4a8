"""The metric's LP keeps only the est-truth pairs that come within the
cutoff: against the LP over every pair in ``oracles``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric
from oracles import clusters_by_pairs, dense_solution, parts_by_lp

needs_highs = pytest.mark.skipif(metric._highs is None, reason="scipy ships no HiGHS module")


def _recording(monkeypatch):
    """Replace ``metric.linprog`` and ``metric._certified`` by wrappers;
    returns the list of the solves as (cost, start, x) and of the steps the
    certificate took as (cost, extended bases entry, x)."""
    calls = []
    real_linprog, real_certified = metric.linprog, metric._certified

    def linprog(cost, model, start=None):
        x, basis = real_linprog(cost, model, start)
        calls.append((cost, start, x))
        return x, basis

    def certified(entry, n, m, T, pairs, cost):
        x, bounds = real_certified(entry, n, m, T, pairs, cost)
        if x is not None:
            calls.append((cost, entry, x))
        return x, bounds

    monkeypatch.setattr(metric, "linprog", linprog)
    monkeypatch.setattr(metric, "_certified", certified)
    return calls


def _close_by_pairs(est, truth, c):
    """(n, m) mask of the pairs alive together and closer than c at some step."""
    close = np.zeros((len(est), len(truth)), dtype=bool)
    for i, a in enumerate(est):
        for j, b in enumerate(truth):
            for s in range(max(a.start, b.start), min(a.end, b.end) + 1):
                d = np.hypot(*(a.positions[s - a.start] - b.positions[s - b.start]))
                close[i, j] |= bool(d < c)
    return close


def _dense_index(close, T):
    """Index in the all-pairs layout of each column of the LP that keeps the
    pairs of ``close``, listed entry by entry."""
    n, m = close.shape
    S = n * m + n + m
    pairs = [i * m + j for i in range(n) for j in range(m) if close[i, j]]
    out = []
    for t in range(T):
        out += [t * S + q for q in pairs] + [t * S + n * m + r for r in range(n + m)]
    for t in range(T - 1):
        out += [T * S + t * n * m + q for q in pairs]
    return np.array(out, dtype=int)


def _families(rng, n_truth, K, c, visit):
    """A chain of truths 1.2c apart, as a spawning family leaves them.

    Truth j starts at step s_j, where one estimate of truth j-1 ends midway
    between the two: that estimate is within c of both and joins them into
    one cluster.  Each truth also has a follower.  Every other pair stays
    beyond c, so the cluster keeps some pairs and drops the rest, and no
    kept pair is capped (up to the noise).  With ``visit`` one more estimate follows
    truth 0 and visits the last truth for one step: a kept pair that is
    capped at its other steps, where a tie with another split is possible.
    """
    def at(j, length, noise):
        jitter = rng.normal(0.0, noise * c, size=(length, 2))
        return np.array([1.2 * c * j, 0.0]) + jitter

    truth, est = [], []
    first = 1
    for j in range(n_truth):
        start = first if j == 0 else int(rng.integers(first, K + 1))
        length = int(rng.integers(1, K - start + 2))
        truth.append(Track(("t", j), start, at(j, length, 0.02)))
        if j > 0:  # the estimate of truth j-1 that ends where truth j starts
            begin = int(rng.integers(first, start + 1))
            positions = at(j - 1, start - begin + 1, 0.05)
            positions[-1, 0] += 0.6 * c
            est.append(Track(("link", j), begin, positions))
        begin = int(rng.integers(start, start + length))
        span = int(rng.integers(1, start + length - begin + 1))
        est.append(Track(("follow", j), begin, at(j, span, 0.05)))
        first = start
    if visit:
        positions = at(0, K, 0.05)
        last = truth[-1]
        step = int(rng.integers(last.start, last.end + 1))
        positions[step - 1] = last.positions[step - last.start] + 0.3 * c
        est.append(Track(("visit", 0), 1, positions))
    return est, truth


@needs_highs
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.0, 1.0]),
    n_truth=st.integers(2, 4),
    K=st.integers(2, 9),
    visit=st.booleans(),
    warm=st.booleans(),
)
def test_kept_pairs_lp_matches_the_lp_over_every_pair(seed, gamma, n_truth, K, visit, warm):
    """At every step, each cluster's LP over its kept pairs against the
    dense LP: the same objective; its x, scattered back, is feasible for
    the dense LP; and where the dense optimum leaves every dropped column
    at zero and neither may tie with an optimum of another split, the same
    parts bit for bit.  With ``warm`` the LPs start from the bases of the
    step before, as `trajectory_metric` passes them."""
    rng = np.random.default_rng(seed)
    params = TrajMetricParams(gamma=gamma)
    est, truth = _families(rng, n_truth, K, params.c, visit)
    with pytest.MonkeyPatch.context() as patch:
        calls = _recording(patch)
        _check_every_step(est, truth, params, K, warm, calls)


def _check_every_step(est, truth, params, K, warm, calls):
    """Steps 1..K of `test_kept_pairs_lp_matches_the_lp_over_every_pair`;
    ``calls`` records the LP solves."""
    prev = {} if warm else None
    for k in range(1, K + 1):
        est_k = [t for t in (tr.clipped(k) for tr in est) if t is not None]
        truth_k = [t for t in (tr.clipped(k) for tr in truth) if t is not None]
        solved = {}
        for eidx, tidx in clusters_by_pairs(est_k, truth_k, params.c):
            ce, ct = [est_k[i] for i in eidx], [truth_k[j] for j in tidx]
            if not (ce and ct):
                continue
            close = _close_by_pairs(ce, ct, params.c)
            T = k - min(tr.start for tr in ce + ct) + 1
            geometry = [g[k - T :] for g in metric._geometry(ce, ct, k)]
            calls.clear()
            parts = metric._cluster_objective(ce, ct, params, k, geometry, close, prev, solved)
            cost, tag, A_eq, A_ub, x_dense = dense_solution(ce, ct, params, k)
            want = float(cost @ x_dense)
            assert math.isclose(parts.sum(), want, rel_tol=1e-9, abs_tol=1e-9), (k, parts, want)
            if not calls:  # a 1x1 cluster in closed form: no pair dropped
                assert close.all()
                continue
            kept = _dense_index(close, T)
            x = np.zeros(len(cost))
            x[kept] = calls[-1][2]
            assert np.array_equal(calls[-1][0], cost[kept])
            assert np.all(x >= -1e-9)
            assert np.allclose(A_eq @ x, 1.0, rtol=0.0, atol=1e-9)
            if A_ub is not None:
                assert np.all(A_ub @ x <= 1e-9)
            # each LP breaks a tie between a capped kept pair and its dummies
            # by its own pivoting path, so the parts are compared where
            # neither optimum may tie with one of another split
            dropped = np.setdiff1d(np.arange(len(cost)), kept)
            tie = any(metric._split_may_tie(v, cost, tag, close, T, params) for v in (x, x_dense))
            if not x_dense[dropped].any() and not tie:
                contrib = cost * x_dense
                dense_parts = np.array([contrib[tag == comp].sum() for comp in range(4)])
                assert np.array_equal(parts, dense_parts), (k, parts, dense_parts)
        if warm:
            prev = solved


@needs_highs
@pytest.mark.parametrize("warm", [False, True])
def test_far_pair_steps_count_as_missed_and_false(monkeypatch, warm):
    # on the x axis: e1 = t0 at both steps and t1 starts 4 from them; at
    # step 2, e0 joins on t0 and t1 is 14 from both estimates, so (e0, t1)
    # is never within c = 10
    est = [
        Track("e0", 2, np.array([[16.0, 0.0]])),
        Track("e1", 1, np.array([[0.0, 0.0], [16.0, 0.0]])),
    ]
    truth = [
        Track("t0", 1, np.array([[0.0, 0.0], [16.0, 0.0]])),
        Track("t1", 1, np.array([[4.0, 0.0], [30.0, 0.0]])),
    ]
    params = TrajMetricParams()
    assert _close_by_pairs(est, truth, params.c).tolist() == [[True, False], [True, True]]
    calls = _recording(monkeypatch)
    bases = {} if warm else None
    trajectory_metric(est, truth, params, 1, bases)
    calls.clear()
    got = trajectory_metric(est, truth, params, 2, bases)
    assert (calls[0][1] is not None) == warm
    # e1 stays on t0; t1 is missed at both steps and e0 is false at step 2
    half = params.c**params.p / 2.0
    assert got.localisation == got.switch == 0.0
    assert got.missed == (2 * half / 2) ** 0.5 and got.false == (half / 2) ** 0.5
    # the LP over every pair reaches the same total with e0 on t1 at step 2,
    # booked as localisation at c^p
    dense = parts_by_lp(est, truth, params, 2)
    assert dense.tolist() == [2 * half, half, 0.0, 0.0]
    assert got.total == (dense.sum() / 2) ** 0.5


@needs_highs
def test_zero_switch_penalty_ignores_capped_entries_of_dropped_pairs(monkeypatch):
    # e1 and t0 are 30 apart at step 1 and never alive together after it;
    # the kept pairs are at distance 0 or 1 wherever both are alive
    params = TrajMetricParams(gamma=0.0)
    est = [
        Track("e0", 1, np.array([[0.0, 0.0], [30.0, 0.0]])),
        Track("e1", 1, np.array([[30.0, 0.0], [31.0, 0.0]])),
    ]
    truth = [Track("t0", 1, np.zeros((1, 2))), Track("t1", 2, np.array([[30.0, 0.0]]))]
    close = _close_by_pairs(est, truth, params.c)
    assert close.tolist() == [[True, True], [False, True]]
    cost, tag = metric._cluster_costs(metric._geometry(est, truth, 2), close, params)
    x = np.zeros(len(cost))
    assert not metric._split_may_tie(x, cost, tag, close, 2, params)
    assert metric._split_may_tie(x, cost, tag, np.ones_like(close), 2, params)
    # with bases: step 2 starts warm from step 1's (e0, t0) LP and is not
    # solved cold again
    calls = _recording(monkeypatch)
    bases = {}
    trajectory_metric(est, truth, params, 1, bases)
    calls.clear()
    got = trajectory_metric(est, truth, params, 2, bases)
    assert len(calls) == 1 and calls[0][1] is not None
    assert got == trajectory_metric(est, truth, params, 2)
