"""The metric's shortcut: a cluster's k-1 optimum extended by one step is
taken without HiGHS when the per-step assignment bounds prove it optimal."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric

needs_highs = pytest.mark.skipif(metric._highs is None, reason="scipy ships no HiGHS module")


def _bits(breakdown) -> bytes:
    return struct.pack("<5d", *breakdown.as_tuple())


def _lp(est, truth, params, k):
    """Cost blocks (T, S') and kept pairs of the one-cluster LP of ``est``
    and ``truth`` at step k, with the pairs within c at some step kept."""
    geometry = metric._geometry(est, truth, k)
    close = (geometry[0] < params.c).any(axis=0)
    pairs = np.flatnonzero(close)
    cost, _ = metric._cluster_costs(geometry, close, params)
    lp_cost = cost[metric._columns(len(est), len(truth), k, pairs)]
    S = len(pairs) + len(est) + len(truth)
    return lp_cost[: k * S].reshape(k, S), pairs, geometry, close


@needs_highs
@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.0, 1.0]),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    T=st.integers(1, 6),
)
def test_each_step_bound_is_the_optimum_of_that_step_alone(seed, gamma, n, m, T):
    """A_t against the T = 1 cluster LP of step t, solved by HiGHS: tracks
    alive on random spans (dead at some steps), pairs beyond c at every
    step dropped."""
    rng = np.random.default_rng(seed)
    params = TrajMetricParams(gamma=gamma)

    def track(label):
        start = int(rng.integers(1, T + 1))
        end = int(rng.integers(start, T + 1))
        return Track(label, start, rng.uniform(0.0, 2.5 * params.c, size=(end - start + 1, 2)))

    est = [track(("e", i)) for i in range(n)]
    truth = [track(("t", j)) for j in range(m)]
    blocks, pairs, geometry, close = _lp(est, truth, params, T)
    bounds = metric._step_bounds(n, m, pairs, blocks)
    for t in range(T):
        one_step = [g[t : t + 1] for g in geometry]
        cost, _ = metric._cluster_costs(one_step, close, params)
        lp_cost = cost[metric._columns(n, m, 1, pairs)]
        assert np.array_equal(lp_cost, blocks[t])
        x, _ = metric.linprog(lp_cost, metric._model(n, m, 1, pairs))
        assert math.isclose(bounds[t], lp_cost @ x, rel_tol=1e-12, abs_tol=1e-12), t
    # a known block keeps its bound; a changed one gets a fresh one
    if T > 1:
        stale = bounds[:-1].copy()
        stale[0] = -1.0
        changed = blocks[:-1].copy()
        changed[1:] += 1.0
        got = metric._step_bounds(n, m, pairs, blocks, (changed, stale))
        assert got[0] == -1.0 and np.array_equal(got[1:], bounds[1:])


def _pair_history(K, swap_at=None):
    """Two truths 4 apart moving right, each with an estimate 0.3 off it;
    from step ``swap_at`` on the estimates trade truths."""
    steps = np.arange(K)[:, None] * np.array([1.0, 0.2])
    truth = [Track(("t", j), 1, steps + (4.0 * j, 0.0)) for j in range(2)]
    est = [Track(("e", i), 1, truth[i].positions + (0.3, -0.3 * i)) for i in range(2)]
    if swap_at is not None:
        for i in range(2):
            est[i].positions[swap_at - 1 :] = truth[1 - i].positions[swap_at - 1 :] + (0.3, 0.0)
    return est, truth


def _recorded(monkeypatch, T_of):
    """Record the shortcut solves, each checked against HiGHS started from
    the same mapped basis, and the HiGHS solves; ``T_of()`` gives the
    current step count of the one cluster."""
    shortcuts, solves = [], []
    real_shortcut, real_linprog = metric._shortcut, metric.linprog

    def shortcut(cost, x, start):
        model = metric._model(2, 2, T_of(), np.arange(4))
        x_warm, _ = real_linprog(cost, model, metric._statuses(start))
        shortcuts.append(np.array_equal(x, x_warm))
        return real_shortcut(cost, x, start)

    def linprog(cost, model, start=None):
        solves.append(start is not None)
        return real_linprog(cost, model, start)

    monkeypatch.setattr(metric, "_shortcut", shortcut)
    monkeypatch.setattr(metric, "linprog", linprog)
    return shortcuts, solves


@needs_highs
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_a_steady_pair_history_takes_the_shortcut_with_highs_x(monkeypatch, gamma):
    params = TrajMetricParams(gamma=gamma)
    K = 8
    est, truth = _pair_history(K)
    step = [0]
    shortcuts, solves = _recorded(monkeypatch, lambda: step[0])
    bases = {}
    for k in range(1, K + 1):
        step[0] = k
        shortcuts.clear()
        solves.clear()
        warm = trajectory_metric(est, truth, params, k, bases)
        if k == 1:
            assert (shortcuts, solves) == ([], [False])
        else:
            # taken, with HiGHS's x by value, and no HiGHS solve
            assert (shortcuts, solves) == ([True], []), k
        assert _bits(warm) == _bits(trajectory_metric(est, truth, params, k)), k
    assert warm.localisation > 0.0 and warm.switch == 0.0


@needs_highs
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_estimates_that_swap_truths_at_the_new_step_are_solved_by_highs(monkeypatch, gamma):
    params = TrajMetricParams(gamma=gamma)
    K = 6
    est, truth = _pair_history(K, swap_at=K)
    step = [0]
    shortcuts, solves = _recorded(monkeypatch, lambda: step[0])
    bases = {}
    for k in range(1, K + 1):
        step[0] = k
        shortcuts.clear()
        solves.clear()
        warm = trajectory_metric(est, truth, params, k, bases)
        assert _bits(warm) == _bits(trajectory_metric(est, truth, params, k)), k
    # the certificate refuses the repeated matching: HiGHS runs from the mapped basis
    assert shortcuts == [] and solves[0] is True
    # and finds the trade, paying its switches
    assert (warm.switch > 0.0) == (gamma > 0.0)
