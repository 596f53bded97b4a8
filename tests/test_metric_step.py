"""The metric's one geometry pass per step and its row-wise LP model,
against the per-cluster grids and the column-wise feed in ``oracles``."""

import numpy as np
import pytest

import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric
from oracles import (
    cluster_alive,
    cluster_distances,
    clusters_by_pairs,
    highs_solve_colwise,
)

needs_highs = pytest.mark.skipif(metric._highs is None, reason="scipy ships no HiGHS module")


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _walk(rng, label, start, end, offset):
    steps = rng.normal(0.0, 1.0, size=(end - start + 1, 2))
    return Track(label, start, np.cumsum(steps, axis=0) + offset)


def _scene(rng, K, c):
    """Truths 1.2c apart on the x axis, each with a follower that starts
    and ends at random steps, and one estimate that walks from the first
    truth to the last: clusters that form, grow and keep pairs that never
    come within c."""
    n_truth = int(rng.integers(1, 4))
    truth, est = [], []
    for j in range(n_truth):
        start = int(rng.integers(1, min(3, K) + 1))
        truth.append(_walk(rng, ("t", j), start, K, (1.2 * c * j, 0.0)))
        begin = int(rng.integers(start, K + 1))
        end = int(rng.integers(begin, K + 1))
        noise = rng.normal(0.0, 0.2 * c, size=(end - begin + 1, 2))
        est.append(Track(("e", j), begin, truth[j].positions[begin - start : end - start + 1] + noise))
    share = np.linspace(0.0, 1.0, K)[:, None]
    path = (1.0 - share) * truth[0].positions[0] + share * truth[-1].positions[-1]
    est.append(Track(("e", "walk"), 1, path + rng.normal(0.0, 1.0, size=path.shape)))
    return est, truth


def test_cluster_slices_of_the_step_geometry_match_per_cluster_grids():
    rng = np.random.default_rng(13)
    params = TrajMetricParams()
    for _ in range(60):
        K = int(rng.integers(1, 15))
        est, truth = _scene(rng, K, params.c)
        for k in range(1, K + 1):
            est_k = [t for t in (tr.clipped(k) for tr in est) if t is not None]
            truth_k = [t for t in (tr.clipped(k) for tr in truth) if t is not None]
            dist, e_alive, t_alive = metric._geometry(est_k, truth_k, k)
            clusters = metric._clusters((dist < params.c).any(axis=0))
            assert clusters == clusters_by_pairs(est_k, truth_k, params.c)
            for eidx, tidx in clusters:
                ce, ct = [est_k[i] for i in eidx], [truth_k[j] for j in tidx]
                t0 = min(tr.start for tr in ce + ct)
                T = k - t0 + 1
                got = dist[t0 - 1 :, eidx][:, :, tidx]
                assert _bits(got) == _bits(cluster_distances(ce, ct, t0, T))
                assert _bits(e_alive[t0 - 1 :, eidx]) == _bits(cluster_alive(ce, t0, T))
                assert _bits(t_alive[t0 - 1 :, tidx]) == _bits(cluster_alive(ct, t0, T))


@needs_highs
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_rowwise_model_solves_as_the_colwise_feed(monkeypatch, gamma):
    """Every LP of scored runs, cold and warm: HiGHS fed the rows of
    `metric._model` returns the x and basic variables, bit for bit, that it
    returns fed their column-wise conversion."""
    solves = []

    def both(cost, model, start=None):
        x, basic = metric._highs_solve(cost, model, start)
        x_col, basic_col = highs_solve_colwise(cost, model, start)
        assert _bits(x) == _bits(x_col)
        assert np.array_equal(basic, basic_col)
        solves.append(start is not None)
        return x, basic

    monkeypatch.setattr(metric, "linprog", both)
    rng = np.random.default_rng(17)
    params = TrajMetricParams(gamma=gamma)
    dropped = 0
    for _ in range(24):
        K = int(rng.integers(4, 12))
        est, truth = _scene(rng, K, params.c)
        bases = {}
        for k in range(1, K + 1):
            trajectory_metric(est, truth, params, k, bases)
            dropped += sum(len(pairs) < len(e) * len(t) for (e, t, _), (_, pairs, *_) in bases.items())
    assert sum(solves) > 30 and solves.count(False) > 15
    assert dropped > 10
