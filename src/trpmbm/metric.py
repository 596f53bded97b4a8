"""Distance between two sets of position tracks, with an error breakdown.

The distance is the optimum of a linear program over per-step soft
assignments between the two track sets.  Matched pairs pay the cutoff-
capped p-th power of their position error, unmatched alive tracks pay half
the cutoff cost per step, and changes of assignment between consecutive
steps pay half the switch penalty per changed entry (a full track switch
changes two entries).  The p-th power objective is normalised by the
evaluation step before taking the p-th root.

Tracks that never come within the cutoff of each other cannot profitably
be matched, so the LP decomposes over connected interaction clusters;
isolated tracks contribute in closed form.  A cluster of one estimate and
one truth is solved in closed form too when the switch penalty is positive:
matching the pair never costs more than its two dummies (min(d, c)^p <= c^p
when both are alive, equal costs otherwise), is strictly cheaper at the
step with d < c that formed the cluster, and any departure from it pays
switches, so the unique optimum matches the pair at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .trees import TreeTrajectory, first_own_generation, unique_id


@dataclass(frozen=True)
class TrajMetricParams:
    """Exponent p >= 1, cutoff c > 0 and switch penalty gamma >= 0, all finite."""

    p: float = 2.0
    c: float = 10.0
    gamma: float = 1.0

    def __post_init__(self):
        finite = all(math.isfinite(v) for v in (self.p, self.c, self.gamma))
        if not (finite and self.p >= 1 and self.c > 0 and self.gamma >= 0):
            raise ValueError(
                f"metric needs finite p >= 1, c > 0, gamma >= 0; got {self}"
            )


@dataclass(frozen=True)
class MetricBreakdown:
    total: float
    localisation: float
    missed: float
    false: float
    switch: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.total, self.localisation, self.missed, self.false, self.switch)


@dataclass(frozen=True)
class Track:
    """A labeled position track alive on a contiguous step interval."""

    label: object
    start: int
    positions: np.ndarray  # (length, 2)

    @property
    def end(self) -> int:
        return self.start + len(self.positions) - 1

    def clipped(self, k: int) -> "Track | None":
        if self.start > k:
            return None
        if self.end <= k:
            return self
        return Track(self.label, self.start, self.positions[: k - self.start + 1])


def branches_as_tracks(trees: list[TreeTrajectory]) -> list[Track]:
    """One track per branch; the label pairs the tree index with the branch id."""
    tracks = []
    for ti, tree in enumerate(trees):
        for br in tree.branches:
            own = first_own_generation(br.genealogy)
            start = tree.start_time + own - 1
            tracks.append(
                Track((ti, unique_id(br.genealogy)), start, br.states[:, [0, 2]])
            )
    return tracks


def _grid(tracks: list[Track], t0: int, T: int) -> np.ndarray:
    """(T, len(tracks), 2) positions on steps t0..t0+T-1, NaN where not alive."""
    out = np.full((T, len(tracks), 2), np.nan)
    for i, tr in enumerate(tracks):
        out[tr.start - t0 : tr.end - t0 + 1, i] = tr.positions
    return out


def _distances(est: list[Track], truth: list[Track], t0: int, T: int) -> np.ndarray:
    """(T, n, m) est-truth distances per step, NaN where either is not alive."""
    diff = _grid(est, t0, T)[:, :, None] - _grid(truth, t0, T)[:, None]
    return np.hypot(diff[..., 0], diff[..., 1])


def _alive(tracks: list[Track], t0: int, T: int) -> np.ndarray:
    """(T, len(tracks)) mask of the tracks alive on steps t0..t0+T-1."""
    steps = np.arange(t0, t0 + T)[:, None]
    starts = np.array([tr.start for tr in tracks], dtype=int)
    ends = np.array([tr.end for tr in tracks], dtype=int)
    return (starts <= steps) & (steps <= ends)


def _clusters(est: list[Track], truth: list[Track], c: float, k: int):
    """Connected components of the est-truth interaction graph on steps 1..k."""
    n, m = len(est), len(truth)
    parent = list(range(n + m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # a pair interacts when both are alive and closer than c at some step
    close = (_distances(est, truth, 1, k) < c).any(axis=0)
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(close))):
        ri, rj = find(i), find(n + j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in range(m):
        groups.setdefault(find(n + j), ([], []))[1].append(j)
    return list(groups.values())


# LP variable layout of a cluster with n estimates, m truths and T steps:
# step t holds W[i, j] at t*S + i*m + j, the est dummies W[i, m] at
# t*S + n*m + i and the truth dummies W[n, j] at t*S + n*m + n + j, with
# S = n*m + n + m; the switch variable of pair (i, j) between steps t and
# t+1 follows at T*S + t*n*m + i*m + j.


def _cluster_costs(
    est: list[Track], truth: list[Track], params: TrajMetricParams, t0: int, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """LP cost vector and component tags (0 loc, 1 missed, 2 false, 3 switch)."""
    p, c = params.p, params.c
    half = c**p / 2.0
    n, m = len(est), len(truth)
    ae = _alive(est, t0, T)[:, :, None]
    at = _alive(truth, t0, T)[:, None, :]
    both = ae & at
    pair_cost = np.where(ae | at, half, 0.0)
    # math.pow per entry: numpy's vectorised power may round differently
    pair_cost[both] = np.fromiter(
        map(math.pow, np.minimum(_distances(est, truth, t0, T)[both], c).tolist(), repeat(p)),
        float,
    )
    pair_tag = np.where(at & ~ae, 1, np.where(ae & ~at, 2, 0))

    S = n * m + n + m
    cost = np.full(T * S + (T - 1) * n * m, params.gamma**p / 2.0)
    tag = np.full(len(cost), 3, dtype=np.int8)
    w_cost = cost[: T * S].reshape(T, S)
    w_tag = tag[: T * S].reshape(T, S)
    w_cost[:, : n * m] = pair_cost.reshape(T, n * m)
    w_tag[:, : n * m] = pair_tag.reshape(T, n * m)
    dummy_alive = np.hstack([ae[:, :, 0], at[:, 0, :]])
    w_cost[:, n * m :] = np.where(dummy_alive, half, 0.0)
    w_tag[:, n * m :] = np.where(dummy_alive, [2] * n + [1] * m, 0)
    return cost, tag


def _constraints(n: int, m: int, T: int) -> dict:
    """Constraint arguments of ``linprog`` for the cluster LP, matrices in CSR.

    A single step has no switch variables and so no inequalities.
    """
    S = n * m + n + m
    n_var = T * S + (T - 1) * n * m
    pair = np.arange(n * m).reshape(n, m)
    # equality: every est row (pairs, then its dummy) and every truth
    # column (pairs, then its dummy) sums to one at every step
    est_rows = np.hstack([pair, n * m + np.arange(n)[:, None]])
    truth_cols = np.hstack([pair.T, n * m + n + np.arange(m)[:, None]])
    step_cols = np.concatenate([est_rows.ravel(), truth_cols.ravel()])
    step_rows = np.concatenate([np.repeat(np.arange(n), m + 1), n + np.repeat(np.arange(m), n + 1)])
    steps = np.arange(T)[:, None]
    A_eq = sparse.coo_matrix(
        (
            np.ones(T * len(step_cols)),
            ((steps * (n + m) + step_rows).ravel(), (steps * S + step_cols).ravel()),
        ),
        shape=(T * (n + m), n_var),
    ).tocsr()
    out = {"A_eq": A_eq, "b_eq": np.ones(T * (n + m))}

    # inequalities: e >= |W_{t+1} - W_t| on real pairs, two rows per switch
    q = np.arange((T - 1) * n * m)
    if len(q):
        w0 = (q // (n * m)) * S + q % (n * m)
        e = T * S + q
        cols = np.column_stack([w0 + S, w0, e, w0, w0 + S, e]).ravel()
        out["A_ub"] = sparse.coo_matrix(
            (np.tile([1.0, -1.0, -1.0], 2 * len(q)), (np.repeat(np.arange(2 * len(q)), 3), cols)),
            shape=(2 * len(q), n_var),
        ).tocsr()
        out["b_ub"] = np.zeros(2 * len(q))
    return out


def _cluster_objective(
    est: list[Track], truth: list[Track], params: TrajMetricParams, k: int
) -> np.ndarray:
    """Optimal (localisation, missed, false, switch) p-power cost of a cluster."""
    n, m = len(est), len(truth)
    t0 = min(tr.start for tr in est + truth)
    T = k - t0 + 1
    cost, tag = _cluster_costs(est, truth, params, t0, T)
    if n == m == 1 and params.gamma > 0:
        # the unique optimum matches the pair at every step (module docstring)
        x = np.zeros(len(cost))
        x[: T * 3 : 3] = 1.0
    else:
        res = linprog(cost, **_constraints(n, m, T), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"metric LP failed: {res.message}")
        x = res.x
    contrib = cost * x
    return np.array([contrib[tag == comp].sum() for comp in range(4)])


def trajectory_metric(
    est: list[Track],
    truth: list[Track],
    params: TrajMetricParams = TrajMetricParams(),
    k: int | None = None,
) -> MetricBreakdown:
    """Distance between two labeled track sets evaluated at step ``k``.

    Tracks are truncated to steps 1..k; genealogy plays no role here (the
    caller already flattened branches to tracks).
    """
    if k is None:
        ends = [t.end for t in est + truth]
        k = max(ends) if ends else 1
    if k < 1:
        raise ValueError(f"evaluation step must be >= 1, got {k}")
    for tr in est + truth:
        if tr.start < 1:
            raise ValueError(f"track {tr.label!r} starts before step 1")

    est_k = [t for t in (tr.clipped(k) for tr in est) if t is not None]
    truth_k = [t for t in (tr.clipped(k) for tr in truth) if t is not None]

    p = params.p
    half = params.c**p / 2.0
    parts = np.zeros(4)  # loc, missed, false, switch (p-power costs)
    for eidx, tidx in _clusters(est_k, truth_k, params.c, k):
        ce = [est_k[i] for i in eidx]
        ct = [truth_k[j] for j in tidx]
        if ce and ct:
            parts += _cluster_objective(ce, ct, params, k)
        elif ct:
            parts[1] += half * sum(len(t.positions) for t in ct)
        else:
            parts[2] += half * sum(len(t.positions) for t in ce)

    scaled = parts / k
    total = float(scaled.sum() ** (1.0 / p))
    loc, miss, false, switch = (float(v ** (1.0 / p)) for v in scaled)
    return MetricBreakdown(total, loc, miss, false, switch)
