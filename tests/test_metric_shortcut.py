"""The metric's shortcut: a cluster's k-1 optimum extended by one step is
taken without HiGHS when the per-step assignment bounds prove it optimal,
and its bases entry keeps the basis of the last HiGHS solve."""

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


def _recorded(monkeypatch, bases):
    """Record the certified steps of the one cluster scored with ``bases``,
    each checked against HiGHS started from the start `_mapped_start` gives
    for that step, the HiGHS solves, and the T_b of each entry that
    `_mapped_start` maps."""
    shortcuts, solves, mapped = [], [], []
    real_certified, real_linprog = metric._certified, metric.linprog
    real_mapped_start = metric._mapped_start

    def certified(entry, n, m, T, pairs, cost):
        x, bounds = real_certified(entry, n, m, T, pairs, cost)
        if x is not None:
            ((key, _),) = bases.items()
            start = real_mapped_start(bases, *key, T, pairs, cost)
            x_warm, _ = real_linprog(cost, metric._model(n, m, T, pairs), metric._statuses(start))
            shortcuts.append(np.array_equal(x, x_warm))
        return x, bounds

    def linprog(cost, model, start=None):
        solves.append(start is not None)
        return real_linprog(cost, model, start)

    def mapped_start(prev, *args):
        mapped.extend(entry[-1] for entry in prev.values())
        return real_mapped_start(prev, *args)

    monkeypatch.setattr(metric, "_certified", certified)
    monkeypatch.setattr(metric, "linprog", linprog)
    monkeypatch.setattr(metric, "_mapped_start", mapped_start)
    return shortcuts, solves, mapped


@needs_highs
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_a_steady_pair_history_takes_the_shortcut_with_highs_x(monkeypatch, gamma):
    params = TrajMetricParams(gamma=gamma)
    K = 8
    est, truth = _pair_history(K)
    bases = {}
    shortcuts, solves, _ = _recorded(monkeypatch, bases)
    for k in range(1, K + 1):
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
    bases = {}
    shortcuts, solves, mapped = _recorded(monkeypatch, bases)
    for k in range(1, K + 1):
        shortcuts.clear()
        solves.clear()
        mapped.clear()
        warm = trajectory_metric(est, truth, params, k, bases)
        if 1 < k < K:
            # certified: no start is mapped, and the entry keeps step 1's basis
            assert (shortcuts, solves, mapped) == ([True], [], []), k
            assert next(iter(bases.values()))[-1] == 1
        assert _bits(warm) == _bits(trajectory_metric(est, truth, params, k)), k
    # the certificate refuses the repeated matching: HiGHS runs from the
    # basis of step 1, mapped over the K-1 steps it lacks
    assert mapped == [1]
    assert shortcuts == [] and solves[0] is True
    # and finds the trade, paying its switches
    assert (warm.switch > 0.0) == (gamma > 0.0)


def _basic(codes):
    """Basic variables of a start's codes, numbered as `metric._highs_solve`
    gives them: column j as j, row i as -1-i."""
    col_status, row_status = codes
    basic_rows = np.flatnonzero(row_status == metric._BASIC)
    return np.concatenate([np.flatnonzero(col_status == metric._BASIC), -1 - basic_rows])


@needs_highs
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_a_lagging_basis_maps_as_one_step_mappings_in_a_row(gamma):
    """After the steady history's certified steps the entry of step j keeps
    step 1's basis, j-1 steps behind; mapped onto step j+1 it gives the
    start of j one-step mappings from step 1, each turned into a basis."""
    params = TrajMetricParams(gamma=gamma)
    K = 5
    est, truth = _pair_history(K)
    bases, entries = {}, {}
    for k in range(1, K):
        trajectory_metric(est, truth, params, k, bases)
        ((key, entries[k]),) = bases.items()
        assert entries[k][0] == k and entries[k][-1] == 1

    def start(entry, T):
        """`_mapped_start` of ``entry`` onto the cluster at step T."""
        clipped = [[tr.clipped(T) for tr in tracks] for tracks in (est, truth)]
        pairs = np.arange(4)
        every_pair = np.ones((2, 2), dtype=bool)
        cost, _ = metric._cluster_costs(metric._geometry(*clipped, T), every_pair, params)
        cost = cost[metric._columns(2, 2, T, pairs)]
        return metric._mapped_start({key: entry}, *key, T, pairs, cost)

    for j in range(1, K):
        codes = start(entries[1], 2)
        for T in range(3, j + 2):
            codes = start((T - 1, np.arange(4), _basic(codes), None, None, None, T - 1), T)
        lagging = start(entries[j], j + 1)
        assert all(np.array_equal(a, b) for a, b in zip(lagging, codes)), j
