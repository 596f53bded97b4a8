"""The metric's direct HiGHS solve, its warm start across steps and its
fallback to ``scipy.optimize.linprog``."""

import numpy as np
import pytest

import golden
import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric

needs_highs = pytest.mark.skipif(metric._highs is None, reason="scipy ships no HiGHS module")


def _recording(monkeypatch):
    """Replace ``metric.linprog`` by a wrapper; returns the list of the
    ``start`` arguments it saw (None for a cold solve)."""
    starts = []
    real = metric.linprog

    def recording(cost, model, start=None):
        starts.append(start)
        return real(cost, model, start)

    monkeypatch.setattr(metric, "linprog", recording)
    return starts


def _walk(rng, label, start, length, offset=(0.0, 0.0)):
    steps = rng.normal(0.0, 1.0, size=(length, 2))
    return Track(label, start, np.cumsum(steps, axis=0) + offset)


def _crossing_pair(rng, k):
    """Two truths and two estimates that stay within the cutoff of each
    other: one 2x2 cluster on every step up to ``k``."""
    truth = [_walk(rng, ("t", j), 1, k) for j in range(2)]
    est = [
        Track(("e", i), 1, tr.positions + rng.normal(0.0, 0.5, size=(k, 2)))
        for i, tr in enumerate(truth)
    ]
    return est, truth


@needs_highs
def test_pinned_run_scores_bitwise_the_same_with_bases(monkeypatch):
    _, truth, _ = golden.pinned_stream()
    estimates, _ = golden.run_pinned("trpmbm", 5)
    starts = _recording(monkeypatch)
    warm = golden.score(estimates, truth, {})
    n_warm = sum(s is not None for s in starts)
    assert n_warm > 0.8 * len(starts)
    cold = golden.score(estimates, truth)
    assert [b.as_tuple() for b in warm] == [b.as_tuple() for b in cold]


@needs_highs
def test_membership_change_or_skipped_step_is_solved_cold(monkeypatch):
    rng = np.random.default_rng(5)
    params = TrajMetricParams()
    est, truth = _crossing_pair(rng, 12)
    starts = _recording(monkeypatch)
    bases = {}

    def score(k, est_k):
        """The starts of the solves at step k with ``bases``; the result
        equals the one without."""
        starts.clear()
        got = trajectory_metric(est_k, truth, params, k, bases)
        seen = list(starts)
        assert got == trajectory_metric(est_k, truth, params, k)
        return seen

    assert score(1, est) == [None]
    for k in range(2, 6):
        (start,) = score(k, est)
        assert start is not None
    assert len(bases) == 1
    # step 6 skipped: the stored basis is two steps old
    assert score(7, est) == [None]
    (start,) = score(8, est)
    assert start is not None
    # a third estimate joins the cluster
    extra = Track(("e", 2), 3, truth[0].positions[2:] + 0.3)
    assert score(9, est + [extra]) == [None]
    (start,) = score(10, est + [extra])
    assert start is not None


@needs_highs
def test_rejected_warm_start_is_solved_cold():
    rng = np.random.default_rng(2)
    est, truth = _crossing_pair(rng, 6)
    cost, _ = metric._cluster_costs(est, truth, TrajMetricParams(), 1, 6)
    model = metric._model(2, 2, 6)
    status = metric._highs.HighsBasisStatus
    bad = ([status.kLower] * 3, [status.kBasic] * 2)  # the wrong size
    x_cold, basic_cold = metric._highs_solve(cost, model)
    x, basic_got = metric._highs_solve(cost, model, bad)
    assert np.array_equal(x, x_cold) and np.array_equal(basic_got, basic_cold)


def test_scipy_fallback_gives_identical_breakdowns(monkeypatch):
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(40):
        k = int(rng.integers(2, 25))
        truth = [_walk(rng, ("t", j), int(rng.integers(1, k)), k, (3.0 * j, 0.0)).clipped(k)
                 for j in range(int(rng.integers(1, 4)))]
        est = [Track(("e", i), tr.start, tr.positions + rng.normal(0.0, 2.0, size=tr.positions.shape))
               for i, tr in enumerate(truth)]
        est.append(_walk(rng, ("e", "x"), 1, k, (1.0, 1.0)))
        params = TrajMetricParams(gamma=float(rng.choice([0.0, 1.0, 2.0])))
        cases.append((est, truth, params, k))

    def run_all():
        out = []
        for est, truth, params, k in cases:
            bases = {}
            out.append([trajectory_metric(est, truth, params, j, bases) for j in range(1, k + 1)])
        return out

    direct = run_all()
    calls = []

    def fallback(*args):
        calls.append(1)
        return metric._scipy_solve(*args)

    monkeypatch.setattr(metric, "linprog", fallback)
    assert run_all() == direct
    assert len(calls) > 100


def test_split_may_tie_flags_capped_pairs_next_to_a_match():
    # one estimate, one truth, three steps; the pair is at the cutoff on step 2
    params = TrajMetricParams(p=2.0, c=10.0, gamma=1.0)
    n = m = 1
    T, S = 3, 3
    cost = np.full(T * S + (T - 1), 0.5)
    tag = np.full(len(cost), 3, dtype=np.int8)
    cost[: T * S : S] = [1.0, 100.0, 4.0]
    tag[: T * S] = 0
    matched = np.zeros(len(cost))
    matched[0] = 1.0  # matched on step 1 only: step 2 is next to it
    assert metric._split_may_tie(matched, cost, tag, n, m, T, params)
    apart = np.zeros(len(cost))
    assert not metric._split_may_tie(apart, cost, tag, n, m, T, params)
    assert metric._split_may_tie(apart, cost, tag, n, m, T, TrajMetricParams(gamma=0.0))
    cost[S] = 99.0  # no pair at the cutoff
    assert not metric._split_may_tie(matched, cost, tag, n, m, T, params)
