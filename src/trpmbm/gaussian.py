"""Gaussian densities over branch state sequences and their Kalman algebra.

A branch's states form one long jointly-Gaussian vector.  To keep matrix
sizes bounded, states older than the last L steps are split off into
"frozen" chunks: their marginals are kept but they are treated as
independent of the live window and are never touched again.  All
operations here work on the live window only, are pure (inputs are never
mutated) and resymmetrise covariances on the way out.

A component holds states only: a branch's genealogy marks live with its
slot (``trpmbm.filter``).  Every kernel works on a stack of N components at
once; components of different live lengths go through one stacked pass per
length.
``last_states`` stacks the moments of the last states (``Moments``) and
``transition`` moves them one step (F m + d, F P F' + Q, symmetrised);
``survive`` appends the moved state to each live window and cuts it to the
last L states, and ``spawn`` starts single-state branches from the moved
moments.  ``l_scan_truncate`` is the same cut for components that did not
move.

Every measurement update goes through one kernel: ``innovation`` stacks
the predicted measurements and innovation covariances of N last-state
moments (``last_states`` of N components), ``gate_loglik`` gates and
scores all of them against every measurement at once, and ``condition``
conditions the live windows on their gated measurements.  ``innovation``
holds the one jitter policy: it adds JITTER * I once to each S that is not
positive definite.

Stacked products keep the bits of the per-component ones:
``np.matmul(F, means[:, :, None])`` gives those of ``F @ m`` per row, and
every stored mean and covariance is a copied row, so it owns its data and
does not keep the whole stack alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

JITTER = 1e-9
_LOG2PI = math.log(2.0 * math.pi)


def _sym(P: np.ndarray) -> np.ndarray:
    """Symmetrised matrix, or stack of matrices."""
    return (P + P.swapaxes(-1, -2)) / 2.0


def _rows(stack: np.ndarray) -> list[np.ndarray]:
    """The items of a stack as arrays that own their data."""
    return list(map(np.ndarray.copy, stack))


@dataclass(frozen=True)
class GaussianBranchComponent:
    """Gaussian over the state sequence of one branch ending at a known step.

    ``mean``/``cov`` cover the live window; earlier states sit in
    ``frozen_means``/``frozen_covs`` chunks, ordered oldest first.
    """

    mean: np.ndarray
    cov: np.ndarray
    nx: int
    frozen_means: tuple[np.ndarray, ...] = ()
    frozen_covs: tuple[np.ndarray, ...] = ()

    @property
    def length(self) -> int:
        n = sum(fm.shape[0] for fm in self.frozen_means) + self.mean.shape[0]
        return n // self.nx

    @property
    def live_length(self) -> int:
        return self.mean.shape[0] // self.nx

    @property
    def last_mean(self) -> np.ndarray:
        return self.mean[-self.nx:]

    def with_live(self, mean: np.ndarray, cov: np.ndarray) -> GaussianBranchComponent:
        """This component with new live-window moments."""
        return GaussianBranchComponent(mean, cov, self.nx, self.frozen_means, self.frozen_covs)

    def full_mean(self) -> np.ndarray:
        return np.concatenate([*self.frozen_means, self.mean])

    def full_cov(self) -> np.ndarray:
        n = self.length * self.nx
        out = np.zeros((n, n))
        at = 0
        for fc in self.frozen_covs:
            m = fc.shape[0]
            out[at : at + m, at : at + m] = fc
            at += m
        out[at:, at:] = self.cov
        return out


def _by_live_length(comps: Sequence[GaussianBranchComponent]) -> list[list[int]]:
    """Indices of the components, grouped by live-window length."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comps):
        groups.setdefault(c.mean.shape[0], []).append(i)
    return list(groups.values())


def _windowed(
    group: Sequence[GaussianBranchComponent], means: np.ndarray, covs: np.ndarray, L: int
) -> list[GaussianBranchComponent]:
    """Components with stacked live moments (G, n), (G, n, n), the live
    states older than the last L frozen off into one more chunk each.

    The frozen chunk and the live part are each resymmetrised; the group's
    earlier chunks are kept.
    """
    nx = group[0].nx
    cut = max(0, means.shape[1] // nx - L) * nx
    frozen = [(c.frozen_means, c.frozen_covs) for c in group]
    if cut:
        chunks = zip(_rows(means[:, :cut]), _rows(_sym(covs[:, :cut, :cut])))
        frozen = [(fm + (m,), fc + (P,)) for (fm, fc), (m, P) in zip(frozen, chunks)]
        means, covs = means[:, cut:], _sym(covs[:, cut:, cut:])
    return [
        GaussianBranchComponent(m, P, nx, fm, fc)
        for m, P, (fm, fc) in zip(_rows(means), _rows(covs), frozen)
    ]


class Moments(NamedTuple):
    """Stacked moments of single states: means (N, nx), covariances (N, nx, nx)."""

    means: np.ndarray
    covs: np.ndarray


def last_states(comps: Sequence[GaussianBranchComponent]) -> Moments:
    """The moments of the components' last states."""
    nx = comps[0].nx
    means = np.stack([c.mean[-nx:] for c in comps])
    covs = np.stack([c.cov[-nx:, -nx:] for c in comps])
    return Moments(means, covs)


def transition(
    means: np.ndarray, covs: np.ndarray, F: np.ndarray, offsets: np.ndarray, Q: np.ndarray
) -> Moments:
    """One motion step of stacked states: F m + d per row and F P F' + Q,
    symmetrised, so that ``spawn`` stores it as it is."""
    return Moments(np.matmul(F, means[:, :, None])[..., 0] + offsets, _sym(F @ covs @ F.T + Q))


def survive(
    comps: Sequence[GaussianBranchComponent],
    means: np.ndarray,
    covs: np.ndarray,
    F: np.ndarray,
    L: int,
) -> list[GaussianBranchComponent]:
    """Append each component's surviving next state, then keep the last L
    states of the live window.

    ``means``/``covs`` are the moved last states from ``transition``.  The
    marginal over the existing states is untouched; the cross terms of the
    new state against the live window are P[:, last] F'.
    """
    out: list = [None] * len(comps)
    for idx in _by_live_length(comps):
        group = [comps[i] for i in idx]
        P = np.stack([c.cov for c in group])
        n, nx = P.shape[1], group[0].nx
        cross = P[:, :, n - nx :] @ F.T
        full = np.empty((len(group), n + nx, n + nx))
        full[:, :n, :n] = P
        full[:, :n, n:] = cross
        full[:, n:, :n] = cross.swapaxes(1, 2)
        full[:, n:, n:] = covs[idx]
        mean = np.concatenate([np.stack([c.mean for c in group]), means[idx]], axis=1)
        for i, c in zip(idx, _windowed(group, mean, _sym(full), L)):
            out[i] = c
    return out


def spawn(means: np.ndarray, covs: np.ndarray) -> list[GaussianBranchComponent]:
    """Single-state components of spawned branches.

    ``means``/``covs`` are the parents' last states moved by the spawning
    mode's ``transition``.
    """
    nx = means.shape[1]
    return [GaussianBranchComponent(m, P, nx) for m, P in zip(_rows(means), _rows(covs))]


def l_scan_truncate(
    comps: Sequence[GaussianBranchComponent], L: int
) -> list[GaussianBranchComponent]:
    """Freeze live states older than the last L: drop their cross terms.

    Components whose window already fits come back as the same objects.
    """
    if L < 1:
        raise ValueError(f"window must be >= 1, got {L}")
    out = list(comps)
    long = [i for i, c in enumerate(comps) if c.live_length > L]
    for at in _by_live_length([comps[i] for i in long]):
        idx = [long[j] for j in at]
        group = [comps[i] for i in idx]
        means = np.stack([c.mean for c in group])
        covs = np.stack([c.cov for c in group])
        for i, c in zip(idx, _windowed(group, means, covs, L)):
            out[i] = c
    return out


def innovation(states: Moments, H: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted measurements (N, nz) and innovation covariances (N, nz, nz),
    one row per row of last-state ``Moments``.  Each S that is not positive
    definite gets JITTER * I.
    """
    means, covs = states
    zhat = np.matmul(H, means[:, :, None])[..., 0]
    S = _sym(H @ covs @ H.T + R)
    if S.shape[1:] == (2, 2):  # the 2x2 closed forms below divide by this det
        a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
        definite = (a > 0.0) & (a * c - b * b > 0.0)
    else:
        definite = np.linalg.eigvalsh(S)[:, 0] > 0.0
    S[~definite] += JITTER * np.eye(S.shape[1])
    return zhat, S


def gate_loglik(
    S: np.ndarray, innovations: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gate mask and log N(nu; 0, S) of (N, M, nz) innovations, both (N, M).

    Row n of ``innovations`` holds every measurement's innovation against
    component n, whose S[n] is positive definite, as ``innovation`` returns
    it.  A pair is inside when its squared Mahalanobis distance is <=
    threshold.  2x2 takes the closed form, anything else goes through
    Cholesky.
    """
    nz = S.shape[1]
    if nz == 2:
        a, b, c = S[:, 0, 0, None], S[:, 0, 1, None], S[:, 1, 1, None]
        det = a * c - b * b
        u, v = innovations[..., 0], innovations[..., 1]
        d2 = (c * u * u - 2.0 * b * u * v + a * v * v) / det
        half_logdet = 0.5 * np.fromiter(map(math.log, det[:, 0].tolist()), float, len(det))[:, None]
    else:
        L = np.linalg.cholesky(S)
        white = np.linalg.solve(L, innovations.swapaxes(1, 2))
        d2 = (white**2).sum(axis=1)
        half_logdet = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)[:, None]
    return d2 <= threshold, -0.5 * d2 - half_logdet - 0.5 * nz * _LOG2PI


def condition(
    comps: Sequence[GaussianBranchComponent],
    H: np.ndarray,
    S: np.ndarray,
    item: np.ndarray,
    innovations: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Condition live windows on measurements of their last states.

    ``S[i]`` is the innovation covariance of ``comps[i]``, and row p of the
    (P, nz) ``innovations`` belongs to ``comps[item[p]]``.  Returns one
    posterior mean per innovation row and one covariance per component,
    which all of its rows share.  The cross covariances inside the live
    window make this a fixed-interval smoothing update for the recent past;
    frozen chunks stay fixed by construction.
    """
    if S.shape[1:] == (2, 2):
        a, b, d = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
        adj = np.stack([np.stack([d, -b], axis=1), np.stack([-b, a], axis=1)], axis=1)
        S_inv = adj / (a * d - b * b)[:, None, None]
    else:
        S_inv = np.linalg.inv(S)
    item = np.asarray(item, dtype=np.intp)
    means: list = [None] * len(item)
    covs: list = [None] * len(comps)
    member = np.empty(len(comps), dtype=np.intp)
    for idx in _by_live_length(comps):
        group = [comps[i] for i in idx]
        P = np.stack([c.cov for c in group])
        K = P[:, :, -group[0].nx :] @ H.T @ S_inv[idx]
        for i, cov in zip(idx, _rows(_sym(P - K @ S[idx] @ K.swapaxes(1, 2)))):
            covs[i] = cov
        member[idx] = np.arange(len(idx))
        rows = np.flatnonzero(np.isin(item, idx))
        g = member[item[rows]]
        M = np.stack([c.mean for c in group])
        updated = M[g] + np.matmul(K[g], innovations[rows][:, :, None])[..., 0]
        for p, mean in zip(rows.tolist(), _rows(updated)):
            means[p] = mean
    return means, covs


class EndCase(NamedTuple):
    """Probability that the branch ended at a given step, with its Gaussian."""

    beta: float
    comp: GaussianBranchComponent


@dataclass(frozen=True)
class BranchDensity:
    """Mixture over branch end times: step kappa -> (beta, Gaussian component)."""

    components: dict[int, EndCase]

    def beta(self, kappa: int) -> float:
        case = self.components.get(kappa)
        return case.beta if case is not None else 0.0

    def beta_total(self) -> float:
        return sum(case.beta for case in self.components.values())

    def most_likely_end(self) -> int:
        # ties broken toward the latest end time
        return max(self.components, key=lambda k: (self.components[k].beta, k))


@dataclass(frozen=True)
class PPPComponent:
    """One intensity term for undetected trees: weight, start time, component.

    The genealogy is all ones (alive since birth, never spawned).
    """

    log_weight: float
    start_time: int
    comp: GaussianBranchComponent
