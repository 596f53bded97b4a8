import math
from dataclasses import replace

import numpy as np
import pytest

from trpmbm.filter import BernoulliTree, BranchSlot, LocalHyp, truncate_window
from trpmbm.gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    condition,
    gate_loglik,
    innovation,
    l_scan_truncate,
    last_states,
    spawn,
    survive,
    transition,
)
from oracles import check_component, component_from_moments, condition_joint_gaussian
from tables import posterior

# one-item calls of the stacked kernels


def _survive_one(c, F, d, Q, L=10**6):
    means, covs = last_states([c])
    moved_means, moved_covs = transition(means, covs, F, np.asarray(d)[None], Q)
    (out,) = survive([c], moved_means, moved_covs, F, L)
    return out


def _spawn_one(c, F, d, Q):
    means, covs = last_states([c])
    moved_means, moved_covs = transition(means, covs, F, np.asarray(d)[None], Q)
    (out,) = spawn(moved_means, moved_covs)
    return out


def _truncate_one(c, L):
    (out,) = l_scan_truncate([c], L)
    return out


def _condition_one(c, H, S, innovations):
    item = np.zeros(len(innovations), dtype=int)
    means, (cov,) = condition([c], H, S[None], item, innovations)
    return means, cov


def _rand_component(rng, length, nx=2):
    n = length * nx
    A = rng.normal(size=(n, n))
    cov = A @ A.T + 0.5 * np.eye(n)
    return GaussianBranchComponent(rng.normal(size=n), cov, nx)


def _update_one(c, z, H, R):
    """Condition ``c`` on one measurement through the gate/update kernel."""
    zhat, S = innovation(last_states([c]), H, R)
    innov = np.asarray(z, dtype=float) - zhat[:, None, :]
    _, ((loglik,),) = gate_loglik(S, innov, math.inf)
    (mean,), cov = _condition_one(c, H, S[0], innov[0])
    return replace(c, mean=mean, cov=cov), float(loglik)


def _gated(z, c, H, R, threshold):
    zhat, S = innovation(last_states([c]), H, R)
    ((inside,),), _ = gate_loglik(S, np.asarray(z, dtype=float) - zhat[:, None, :], threshold)
    return bool(inside)


def test_predict_augment_reference_value():
    c = component_from_moments([2.0], [[1.0]], 1)
    out = _survive_one(c, np.array([[1.0]]), np.array([0.0]), np.array([[0.5]]))
    assert np.allclose(out.mean, [2.0, 2.0])
    assert np.allclose(out.cov, [[1.0, 1.0], [1.0, 1.5]])


def test_predict_augment_cv_step():
    from trpmbm.models import default_scenario

    cfg = default_scenario()
    c = component_from_moments([0.0, 1.0, 0.0, 1.0], np.eye(4), 4)
    out = _survive_one(c, cfg.survival.F, np.zeros(4), cfg.survival.Q)
    assert np.allclose(out.mean[4:], [1.0, 1.0, 1.0, 1.0])


def test_predict_augment_preserves_existing_marginal():
    rng = np.random.default_rng(3)
    c = _rand_component(rng, 3)
    out = _survive_one(c, rng.normal(size=(2, 2)), rng.normal(size=2), np.eye(2))
    n = len(c.mean)
    assert np.array_equal(out.mean[:n], c.mean)
    assert np.allclose(out.cov[:n, :n], c.cov, atol=1e-12)


def test_spawn_reference_value():
    c = component_from_moments([0.0, 3.0], [[1.0, 0.0], [0.0, 2.0]], 1)
    out = _spawn_one(c, np.array([[1.0]]), np.array([5.0]), np.array([[0.5]]))
    assert np.allclose(out.mean, [8.0])
    assert np.allclose(out.cov, [[2.5]])


def test_spawn_perpendicular_offset():
    from trpmbm.models import default_scenario, perp_unit

    cfg = default_scenario()
    x = np.array([0.0, 1.0, 0.0, 0.0])
    d2 = cfg.modes[1].offset_at(x)
    assert np.allclose(d2, [0.0, 0.0, 5.0, 0.0])
    assert np.allclose(np.linalg.norm(perp_unit(x)), 1.0)


def test_update_scalar_kalman():
    c = component_from_moments([0.0], [[1.0]], 1)
    out, loglik = _update_one(c, np.array([0.0]), np.array([[1.0]]), np.array([[1.0]]))
    assert np.allclose(out.mean, [0.0])
    assert np.allclose(out.cov, [[0.5]])
    # predictive variance is HPH'+R = 2
    assert math.exp(loglik) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 2.0), abs=1e-12)


def test_update_matches_joint_conditioning():
    rng = np.random.default_rng(7)
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    R = np.array([[0.3, 0.1], [0.1, 0.4]])
    for _ in range(25):
        length = int(rng.integers(1, 5))
        c = _rand_component(rng, length)
        z = rng.normal(size=2) * 3
        lifted = np.zeros((2, 2 * length))
        lifted[:, -2:] = H
        want_mean, want_cov, want_ll = condition_joint_gaussian(c.mean, c.cov, lifted, R, z)
        got, loglik = _update_one(c, z, H, R)
        assert np.allclose(got.mean, want_mean, atol=1e-10)
        assert np.allclose(got.cov, want_cov, atol=1e-10)
        assert loglik == pytest.approx(want_ll, abs=1e-10)
    # several measurements at once, general H and R, nz in {1, 2}
    for _ in range(40):
        nz = int(rng.integers(1, 3))
        length = int(rng.integers(1, 5))
        c = _rand_component(rng, length)
        H = rng.normal(size=(nz, 2))
        A = rng.normal(size=(nz, nz))
        R = A @ A.T + 0.1 * np.eye(nz)
        Z = rng.normal(size=(3, nz)) * 3
        (zhat,), (S,) = innovation(last_states([c]), H, R)
        (inside,), (logliks,) = gate_loglik(S[None], (Z - zhat)[None], math.inf)
        means, cov = _condition_one(c, H, S, Z - zhat)
        assert list(np.flatnonzero(inside)) == [0, 1, 2]
        lifted = np.zeros((nz, 2 * length))
        lifted[:, -2:] = H
        for z, mean, loglik in zip(Z, means, logliks):
            want_mean, want_cov, want_ll = condition_joint_gaussian(c.mean, c.cov, lifted, R, z)
            assert np.allclose(mean, want_mean, atol=1e-10)
            assert np.allclose(cov, want_cov, atol=1e-10)
            assert loglik == pytest.approx(want_ll, abs=1e-10)


def test_update_shifts_past_states_through_cross_covariance():
    c = component_from_moments([0.0, 0.0], [[1.0, 0.8], [0.8, 1.0]], 1)
    out, _ = _update_one(c, np.array([2.0]), np.array([[1.0]]), np.array([[0.1]]))
    assert out.mean[0] > 1.0  # smoothing-while-filtering


def test_update_degenerate_prior_keeps_mean():
    c = component_from_moments([4.0], [[0.0]], 1)
    out, _ = _update_one(c, np.array([9.0]), np.array([[1.0]]), np.array([[1.0]]))
    assert out.mean[0] == pytest.approx(4.0, abs=1e-6)


def test_likelihood_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        # 1-d
        var_p, var_r = rng.uniform(0.1, 3, size=2)
        mean = rng.normal()
        z = rng.normal()
        c = component_from_moments([mean], [[var_p]], 1)
        _, ll = _update_one(c, np.array([z]), np.array([[1.0]]), np.array([[var_r]]))
        s = var_p + var_r
        want = -0.5 * (z - mean) ** 2 / s - 0.5 * math.log(2 * math.pi * s)
        assert ll == pytest.approx(want, abs=1e-12)
        assert math.exp(ll) >= 0.0
        # 2-d diagonal
        c2 = component_from_moments([0.0, 0.0, mean, 0.0], np.diag([1.0, 1.0, var_p, 1.0]), 4)
        H = np.array([[0.0, 0.0, 1.0, 0.0]])
        _, ll2 = _update_one(c2, np.array([z]), H, np.array([[var_r]]))
        assert ll2 == pytest.approx(want, abs=1e-12)


def test_lscan_reference_and_idempotence():
    c = component_from_moments([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], 1)
    t = _truncate_one(c, 1)
    assert np.allclose(t.full_cov(), [[1.0, 0.0], [0.0, 1.0]])
    assert _truncate_one(t, 1) is t
    assert _truncate_one(c, 2) is c
    with pytest.raises(ValueError):
        _truncate_one(c, 0)


def test_lscan_preserves_current_marginal():
    rng = np.random.default_rng(5)
    for length, L in [(4, 2), (5, 1), (6, 3)]:
        c = _rand_component(rng, length)
        t = _truncate_one(c, L)
        assert t.length == length
        nx = c.nx
        keep = L * nx
        assert np.allclose(t.mean[-keep:], c.mean[-keep:], atol=1e-12)
        assert np.allclose(t.cov[-keep:, -keep:], c.cov[-keep:, -keep:], atol=1e-12)
        assert np.allclose(t.full_mean(), c.full_mean(), atol=1e-12)


def test_lscan_density_shares_untouched_object():
    c = component_from_moments([1.0], [[1.0]], 1)
    assert l_scan_truncate([c], 5)[0] is c
    d = BranchDensity({3: EndCase(1.0, c)})
    tree = BernoulliTree(3, (BranchSlot((1,), (LocalHyp(0.0, 0.5, d, frozenset()),)),))
    post = posterior(3, (), (tree,), (0.0, ((0,),)))
    assert truncate_window(post, 5).trees[0].slots[0].hyps[0].density is d


def test_gate_reference_cases():
    c = component_from_moments([0.0], [[0.0]], 1)
    H = np.array([[1.0]])
    assert _gated(np.array([0.0]), c, H, np.array([[1.0]]), 15.0)
    # scalar S=1, innovation 4 -> distance 16 > 15
    assert not _gated(np.array([4.0]), c, H, np.array([[1.0]]), 15.0)
    assert _gated(np.array([3.8]), c, H, np.array([[1.0]]), 15.0)


def test_operations_keep_covariances_symmetric():
    rng = np.random.default_rng(13)
    c = _rand_component(rng, 2)
    for _ in range(12):
        c = _survive_one(c, rng.normal(size=(2, 2)), rng.normal(size=2), np.eye(2) * 0.1)
        c, _ = _update_one(c, rng.normal(size=2), np.eye(2), np.eye(2))
        c = _truncate_one(c, 3)
        assert np.abs(c.cov - c.cov.T).max() < 1e-9
        for block in c.frozen_covs:
            assert np.abs(block - block.T).max() < 1e-9
        assert np.linalg.eigvalsh(c.cov).min() > -1e-9


def test_component_check_and_innovation():
    c = component_from_moments(np.zeros(4), np.eye(4), 2)
    check_component(c)
    (zhat,), (S,) = innovation(last_states([c]), np.eye(2), np.eye(2))
    assert np.allclose(zhat, [0.0, 0.0])
    assert np.allclose(S, 2 * np.eye(2))
