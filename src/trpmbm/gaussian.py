"""Gaussian densities over branch state sequences and their Kalman algebra.

A branch's states form one long jointly-Gaussian vector.  To keep matrix
sizes bounded, states older than the last L steps are split off into
"frozen" chunks: their marginals are kept but they are treated as
independent of the live window and are never touched again.  All
operations here work on the live window only, are pure (inputs are never
mutated) and resymmetrise covariances on the way out.

Every measurement update goes through one kernel: ``innovation`` stacks
the predicted measurements and innovation covariances of N components,
``gate_loglik`` gates and scores all of them against every measurement at
once, and ``condition`` conditions one component's live window on its
gated measurements.  ``innovation`` holds the one jitter policy: it adds
JITTER * I once to each S that is not positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .trees import Genealogy

JITTER = 1e-9
_LOG2PI = math.log(2.0 * math.pi)


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


@dataclass(frozen=True)
class GaussianBranchComponent:
    """Gaussian over the state sequence of one branch ending at a known step.

    ``genealogy`` is the alive part of the branch's marks (tree-relative, no
    trailing zeros).  ``mean``/``cov`` cover the live window; earlier states
    sit in ``frozen_means``/``frozen_covs`` chunks, ordered oldest first.
    """

    genealogy: Genealogy
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
        return GaussianBranchComponent(
            self.genealogy, mean, cov, self.nx, self.frozen_means, self.frozen_covs
        )

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


def predict_augment_survive(
    c: GaussianBranchComponent, F: np.ndarray, d: np.ndarray, Q: np.ndarray
) -> GaussianBranchComponent:
    """Append the surviving next state: mark 1, one more n_x block.

    The marginal over the existing states is untouched; the new block is
    the usual Kalman-predicted moment with cross terms against the live
    window.
    """
    nx = c.nx
    if F.shape != (nx, nx):
        raise ValueError(f"transition matrix {F.shape} does not match n_x={nx}")
    P = c.cov
    last = slice(P.shape[0] - nx, P.shape[0])
    new_mean = np.concatenate([c.mean, F @ c.mean[last] + d])
    cross = P[:, last] @ F.T
    corner = F @ P[last, last] @ F.T + Q
    top = np.hstack([P, cross])
    bottom = np.hstack([cross.T, corner])
    new_cov = _sym(np.vstack([top, bottom]))
    return GaussianBranchComponent(
        c.genealogy + (1,), new_mean, new_cov, nx, c.frozen_means, c.frozen_covs
    )


def spawn_component(
    c: GaussianBranchComponent,
    F: np.ndarray,
    d: np.ndarray,
    Q: np.ndarray,
    mode: int,
) -> GaussianBranchComponent:
    """Single-state component for a branch spawned with ``mode`` >= 2.

    Only the last state of the parent participates; the child's genealogy
    is the parent's alive marks plus the spawning mode.
    """
    if mode < 2:
        raise ValueError(f"spawning modes start at 2, got {mode}")
    nx = c.nx
    if F.shape != (nx, nx):
        raise ValueError(f"transition matrix {F.shape} does not match n_x={nx}")
    P = c.cov
    last = slice(P.shape[0] - nx, P.shape[0])
    mean = F @ c.mean[last] + d
    cov = _sym(F @ P[last, last] @ F.T + Q)
    return GaussianBranchComponent(c.genealogy + (mode,), mean, cov, nx)


def innovation(
    comps: Sequence[GaussianBranchComponent], H: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted measurements (N, nz) and innovation covariances (N, nz, nz).

    One row per component, for its last state.  Each S that is not
    positive definite gets JITTER * I.
    """
    nx = comps[0].nx
    means = np.stack([c.mean[-nx:] for c in comps])
    covs = np.stack([c.cov[-nx:, -nx:] for c in comps])
    zhat = np.matmul(H, means[:, :, None])[..., 0]
    S = H @ covs @ H.T + R
    S = (S + S.swapaxes(1, 2)) / 2.0
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
        half_logdet = np.array([[0.5 * math.log(x)] for x in det[:, 0].tolist()])
    else:
        L = np.linalg.cholesky(S)
        white = np.linalg.solve(L, innovations.swapaxes(1, 2))
        d2 = (white**2).sum(axis=1)
        half_logdet = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)[:, None]
    return d2 <= threshold, -0.5 * d2 - half_logdet - 0.5 * nz * _LOG2PI


def condition(
    c: GaussianBranchComponent, H: np.ndarray, S: np.ndarray, innovations: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Condition the live window on measurements of the last state.

    Returns one posterior mean per innovation row and the covariance they
    share.  The cross covariances inside the live window make this a
    fixed-interval smoothing update for the recent past; frozen chunks stay
    fixed by construction.
    """
    if S.shape == (2, 2):
        a, b, d = S[0, 0], S[0, 1], S[1, 1]
        S_inv = np.array([[d, -b], [-b, a]]) / (a * d - b * b)
    else:
        S_inv = np.linalg.inv(S)
    K = c.cov[:, -c.nx :] @ H.T @ S_inv
    cov = _sym(c.cov - K @ S @ K.T)
    return [c.mean + K @ nu for nu in innovations], cov


def l_scan_truncate_component(
    c: GaussianBranchComponent, L: int
) -> GaussianBranchComponent:
    """Freeze live states older than the last L: drop their cross terms."""
    if L < 1:
        raise ValueError(f"window must be >= 1, got {L}")
    w = c.live_length
    if w <= L:
        return c
    cut = (w - L) * c.nx
    frozen_mean = c.mean[:cut].copy()
    frozen_cov = _sym(c.cov[:cut, :cut].copy())
    return GaussianBranchComponent(
        c.genealogy,
        c.mean[cut:].copy(),
        _sym(c.cov[cut:, cut:].copy()),
        c.nx,
        c.frozen_means + (frozen_mean,),
        c.frozen_covs + (frozen_cov,),
    )


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


def l_scan_truncate(d: BranchDensity, L: int) -> BranchDensity:
    """Apply the window truncation to every end-time component.

    Returns the input object itself when nothing needed truncating.
    """
    new = {}
    changed = False
    for k, case in d.components.items():
        comp = l_scan_truncate_component(case.comp, L)
        changed = changed or comp is not case.comp
        new[k] = EndCase(case.beta, comp)
    if not changed:
        return d
    return BranchDensity(new)


@dataclass(frozen=True)
class PPPComponent:
    """One intensity term for undetected trees: weight, start time, component.

    The genealogy is all ones (alive since birth, never spawned).
    """

    log_weight: float
    start_time: int
    comp: GaussianBranchComponent

