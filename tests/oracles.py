"""Independent brute-force reference implementations used by the tests.

Everything here favours exhaustive enumeration over cleverness so it can
serve as ground truth for the production code paths: assignments are
enumerated as injections, the trajectory metric as a search over hard
per-step matchings, the branching-tree prediction as an explicit sum over
every joint transition outcome, and Gaussian updates as plain joint-
Gaussian conditioning.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.optimize import linprog
from scipy.special import logsumexp

from trpmbm.assignment import _solve, hungarian, murty_kbest
from trpmbm.filter import (
    LOG_FLOOR,
    BernoulliTree,
    BranchSlot,
    LocalHyp,
    Posterior,
    _birth_tree,
    _log,
    _merged,
    _new_trees,
    _rebuilt,
    _runs,
    prune,
)
from trpmbm.gaussian import (
    JITTER,
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    PPPComponent,
    condition,
    gate_loglik,
    innovation,
    last_states,
)
from trpmbm.models import NX, PERP_FALLBACK, SPEED_EPS, no_spawning


# ---------------------------------------------------------------------------
# Assignment: exhaustive enumeration over injections rows -> columns, and
# Murty k-best with every child solved
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_table(n_rows: int, n_cols: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n_cols), n_rows))
    return np.array(perms, dtype=int).reshape(len(perms), n_rows)


def enumerate_assignments(cost: np.ndarray, K: int) -> list[tuple[tuple[int, ...], float]]:
    """All feasible assignments sorted by (cost, columns), truncated to K."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows == 0:
        return [((), 0.0)]
    table = _perm_table(n_rows, n_cols)
    totals = cost[np.arange(n_rows), table].sum(axis=1)
    ok = np.isfinite(totals)
    pairs = sorted(
        ((float(t), tuple(int(c) for c in row)) for t, row in zip(totals[ok], table[ok])),
    )
    return [(cols, t) for t, cols in pairs[:K]]


def murty_every_child(cost: np.ndarray, K: int) -> list[tuple[np.ndarray, float]]:
    """Murty k-best that solves every child as soon as its parent is extracted.

    The ranked-assignment reference for ``trpmbm.assignment.murty_kbest``:
    children enter the queue keyed by their parent's total, which is always
    the queue minimum, so each one is solved right away.
    """
    cost = np.asarray(cost, dtype=float)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    n_rows, n_cols = cost.shape
    first = hungarian(cost)
    if K == 1 or n_rows == 0:
        return [first]

    out: list[tuple[np.ndarray, float]] = []
    counter = itertools.count()
    # solved node: (total, tiebreak, True, fixed_pairs, fixed_cost, matrix,
    #               rows, cols, sub_assignment)
    # lazy child:  (bound, tiebreak, False, fixed_pairs, fixed_cost, matrix,
    #               rows, cols, (parent_sub, t))
    heap = [
        (
            first[1],
            next(counter),
            True,
            (),
            0.0,
            cost,
            np.arange(n_rows),
            np.arange(n_cols),
            first[0],
        )
    ]

    while heap and len(out) < K:
        total, _, solved, fixed, fixed_cost, matrix, rows, cols, tail = heapq.heappop(
            heap
        )
        if not solved:
            sub, t = tail
            col_mask = np.ones(len(cols), dtype=bool)
            col_mask[sub[:t]] = False
            child = matrix[t:][:, col_mask]
            child[0, int(col_mask[: sub[t]].sum())] = np.inf
            best = _solve(child)
            if best is None:
                continue
            child_fixed = fixed + tuple(
                (int(rows[i]), int(cols[sub[i]])) for i in range(t)
            )
            child_fixed_cost = fixed_cost + float(matrix[np.arange(t), sub[:t]].sum())
            heapq.heappush(
                heap,
                (
                    child_fixed_cost + best[1],
                    next(counter),
                    True,
                    child_fixed,
                    child_fixed_cost,
                    child,
                    rows[t:],
                    cols[col_mask],
                    best[0],
                ),
            )
            continue

        sub = tail
        full = np.empty(n_rows, dtype=int)
        for r, c in fixed:
            full[r] = c
        full[rows] = cols[sub]
        out.append((full, total))
        if len(out) == K:
            break
        for t in range(len(rows)):
            heapq.heappush(
                heap,
                (total, next(counter), False, fixed, fixed_cost, matrix, rows, cols, (sub, t)),
            )
    return out


# ---------------------------------------------------------------------------
# Trajectory metric: dynamic programming over hard matching sequences
# ---------------------------------------------------------------------------


def _all_matchings(n: int, m: int) -> list[frozenset]:
    out = []
    for r in range(min(n, m) + 1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.permutations(range(m), r):
                out.append(frozenset(zip(rows, cols)))
    return out


def metric_by_enumeration(est, truth, params, k: int) -> float:
    """Optimal integral assignment-sequence cost of the trajectory metric."""
    p, c, gamma = params.p, params.c, params.gamma
    half = c**p / 2.0
    est = [t for t in (tr.clipped(k) for tr in est) if t is not None]
    truth = [t for t in (tr.clipped(k) for tr in truth) if t is not None]
    n, m = len(est), len(truth)
    matchings = _all_matchings(n, m)

    def alive(tr, t):
        return tr.start <= t <= tr.end

    def step_cost(pi, t):
        total = 0.0
        rows = {i for i, _ in pi}
        cols = {j for _, j in pi}
        for i, j in pi:
            ai, aj = alive(est[i], t), alive(truth[j], t)
            if ai and aj:
                d = np.hypot(
                    *(est[i].positions[t - est[i].start] - truth[j].positions[t - truth[j].start])
                )
                total += min(d, c) ** p
            elif ai or aj:
                total += half
        for i in range(n):
            if i not in rows and alive(est[i], t):
                total += half
        for j in range(m):
            if j not in cols and alive(truth[j], t):
                total += half
        return total

    best = {pi: step_cost(pi, 1) for pi in matchings}
    for t in range(2, k + 1):
        best = {
            pi: step_cost(pi, t)
            + min(prev + (gamma**p / 2.0) * len(q ^ pi) for q, prev in best.items())
            for pi in matchings
        }
    return (min(best.values()) / k) ** (1.0 / p)


def clusters_by_pairs(est, truth, c: float):
    """Interaction clusters by a pairwise overlap test and union-find.

    Reference for ``trpmbm.metric._clusters``: the same groups in the same
    order (first appearance over estimates, then truths).
    """
    n, m = len(est), len(truth)
    parent = list(range(n + m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def interacts(a, b):
        lo, hi = max(a.start, b.start), min(a.end, b.end)
        if lo > hi:
            return False
        pa = a.positions[lo - a.start : hi - a.start + 1]
        pb = b.positions[lo - b.start : hi - b.start + 1]
        return bool((np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1]) < c).any())

    for i in range(n):
        for j in range(m):
            if interacts(est[i], truth[j]):
                ra, rb = find(i), find(n + j)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in range(m):
        groups.setdefault(find(n + j), ([], []))[1].append(j)
    return list(groups.values())


def lp_by_loops(est, truth, params, k: int):
    """Cost vector, component tags, A_eq and A_ub of one cluster's metric LP.

    Entry-by-entry assembly with explicit index functions: the reference
    for the vectorised assembly in ``trpmbm.metric``.
    """
    p, c, gamma = params.p, params.c, params.gamma
    half = c**p / 2.0
    n, m = len(est), len(truth)
    t0 = min(tr.start for tr in est + truth)
    T = k - t0 + 1
    per_step = n * m + n + m
    n_w = T * per_step
    n_e = (T - 1) * n * m
    n_var = n_w + n_e

    def w_index(t, i, j):
        # j == m is the est dummy column; i == n the truth dummy row
        base = t * per_step
        if i < n and j < m:
            return base + i * m + j
        if i < n:  # est dummy
            return base + n * m + i
        return base + n * m + n + j

    def e_index(t, i, j):
        return n_w + t * n * m + i * m + j

    cost = np.zeros(n_var)
    # component tags: 0 loc, 1 missed, 2 false, 3 switch
    tag = np.zeros(n_var, dtype=np.int8)
    for t in range(T):
        step = t0 + t
        ae = [tr.start <= step <= tr.end for tr in est]
        at = [tr.start <= step <= tr.end for tr in truth]
        for i in range(n):
            for j in range(m):
                idx = w_index(t, i, j)
                if ae[i] and at[j]:
                    d = np.hypot(
                        *(est[i].positions[step - est[i].start] - truth[j].positions[step - truth[j].start])
                    )
                    cost[idx] = min(d, c) ** p
                    tag[idx] = 0
                elif at[j]:
                    cost[idx] = half
                    tag[idx] = 1
                elif ae[i]:
                    cost[idx] = half
                    tag[idx] = 2
        for i in range(n):
            if ae[i]:
                idx = w_index(t, i, m)
                cost[idx] = half
                tag[idx] = 2
        for j in range(m):
            if at[j]:
                idx = w_index(t, n, j)
                cost[idx] = half
                tag[idx] = 1
    if T > 1:
        cost[n_w:] = gamma**p / 2.0
        tag[n_w:] = 3

    # equality: rows and columns of every step sum to one
    rows, cols, vals = [], [], []
    eq = 0
    for t in range(T):
        for i in range(n):
            for j in range(m + 1):
                rows.append(eq)
                cols.append(w_index(t, i, j))
                vals.append(1.0)
            eq += 1
        for j in range(m):
            for i in range(n + 1):
                rows.append(eq)
                cols.append(w_index(t, i, j))
                vals.append(1.0)
            eq += 1
    A_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(eq, n_var)).tocsr()

    # inequalities: e >= |W_{t+1} - W_t| on real pairs
    rows, cols, vals = [], [], []
    ub = 0
    for t in range(T - 1):
        for i in range(n):
            for j in range(m):
                w0, w1, e = w_index(t, i, j), w_index(t + 1, i, j), e_index(t, i, j)
                rows += [ub, ub, ub]
                cols += [w1, w0, e]
                vals += [1.0, -1.0, -1.0]
                ub += 1
                rows += [ub, ub, ub]
                cols += [w0, w1, e]
                vals += [1.0, -1.0, -1.0]
                ub += 1
    A_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(ub, n_var)).tocsr() if ub else None
    return cost, tag, A_eq, A_ub


def dense_solution(est, truth, params, k: int):
    """The loop-assembled LP over every est-truth pair, far ones included,
    solved by ``linprog``: (cost, tag, A_eq, A_ub, x)."""
    cost, tag, A_eq, A_ub = lp_by_loops(est, truth, params, k)
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=None if A_ub is None else np.zeros(A_ub.shape[0]),
        A_eq=A_eq,
        b_eq=np.ones(A_eq.shape[0]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return cost, tag, A_eq, A_ub, res.x


def parts_by_lp(est, truth, params, k: int) -> np.ndarray:
    """(localisation, missed, false, switch) of the loop-assembled LP, solved by HiGHS."""
    cost, tag, _, _, x = dense_solution(est, truth, params, k)
    parts = np.zeros(4)
    contrib = cost * x
    for comp in range(4):
        parts[comp] = contrib[tag == comp].sum()
    return parts


def cluster_grid(tracks, t0: int, T: int) -> np.ndarray:
    """(T, len(tracks), 2) positions on steps t0..t0+T-1, NaN where not alive."""
    out = np.full((T, len(tracks), 2), np.nan)
    for i, tr in enumerate(tracks):
        out[tr.start - t0 : tr.end - t0 + 1, i] = tr.positions
    return out


def cluster_distances(est, truth, t0: int, T: int) -> np.ndarray:
    """(T, n, m) est-truth distances per step, NaN where either is not
    alive, from one cluster's own grids: the reference for its slice of
    ``trpmbm.metric._geometry``."""
    diff = cluster_grid(est, t0, T)[:, :, None] - cluster_grid(truth, t0, T)[:, None]
    return np.hypot(diff[..., 0], diff[..., 1])


def cluster_alive(tracks, t0: int, T: int) -> np.ndarray:
    """(T, len(tracks)) mask of the tracks alive on steps t0..t0+T-1."""
    steps = np.arange(t0, t0 + T)[:, None]
    starts = np.array([tr.start for tr in tracks], dtype=int)
    ends = np.array([tr.end for tr in tracks], dtype=int)
    return (starts <= steps) & (steps <= ends)


def highs_solve_colwise(cost, model, start=None):
    """``trpmbm.metric._highs_solve`` with the model fed to HiGHS column by
    column, as ``scipy.optimize.linprog`` feeds it: the CSR arrays of
    ``metric._model`` converted by scipy's ``.tocsc()`` and passed as
    ``kColwise``."""
    from trpmbm.metric import _HIGHS_OPTIONS, _highs

    indptr, indices, values, lhs, rhs = model
    n_col = len(cost)
    A = sparse.csr_matrix((values, indices, indptr), shape=(len(rhs), n_col)).tocsc()

    def run(start):
        highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
        highs.passModel(
            n_col, len(rhs), len(values),
            int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize), 0.0,
            cost, np.zeros(n_col), np.full(n_col, np.inf), lhs, rhs,
            A.indptr, A.indices, A.data, np.zeros(n_col, dtype=np.int32),
        )  # fmt: skip
        if start is not None:
            basis = _highs.HighsBasis()
            basis.col_status, basis.row_status = start
            if highs.setBasis(basis) != _highs.HighsStatus.kOk:
                return None
        highs.run()
        return highs

    highs = None if start is None else run(start)
    if highs is None or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        highs = run(None)
    assert highs.getModelStatus() == _highs.HighsModelStatus.kOptimal
    return np.array(highs.getSolution().col_value), highs.getBasicVariables()[1]


# ---------------------------------------------------------------------------
# Branching-tree prediction: exhaustive joint transition enumeration
# ---------------------------------------------------------------------------


def enumerate_predicted_marginals(slots, model, new_gen: int):
    """Exact per-output-slot Bernoulli marginals of the predicted tree.

    The joint over all prior branch outcomes is expanded explicitly, each
    outcome is pushed through every transition mode, and the resulting
    joint is marginalised.  Output order matches the prediction rule:
    survived slots first, then the spawn of every slot per mode.
    """
    n = len(slots)
    n_modes = len(model.spawn)

    def prior_outcomes(slot):
        out = [(1.0 - slot.r, None)]
        if slot.density is not None and slot.r > 0.0:
            for kappa, case in slot.density.components.items():
                for seq, p in case.dist.items():
                    w = slot.r * case.beta * p
                    if w > 0.0:
                        out.append((w, (kappa, case.genealogy, seq)))
        return out

    # marginals[si] maps (genealogy, states) -> prob of output slot si
    marginals = [dict() for _ in range(n * (1 + n_modes))]
    for j, slot in enumerate(slots):
        for w, state in prior_outcomes(slot):
            if w == 0.0:
                continue
            # survival channel
            if state is None:
                survive_opts = [(1.0, None)]
            else:
                kappa, gen, seq = state
                if kappa < new_gen - 1:
                    survive_opts = [(1.0, (gen, seq))]
                else:
                    x = seq[-1]
                    survive_opts = [(1.0 - model.survive_prob[x], (gen, seq))]
                    for y in range(model.n_states):
                        pr = model.survive_prob[x] * model.survive_kernel[y, x]
                        if pr > 0.0:
                            survive_opts.append((pr, (gen + (1,), seq + (y,))))
            for pr, outcome in survive_opts:
                if outcome is not None:
                    key = outcome
                    marginals[j][key] = marginals[j].get(key, 0.0) + w * pr
            # spawning channels act on the same prior outcome independently
            for mi, (prob, kernel) in enumerate(model.spawn):
                si = n * (1 + mi) + j
                if state is None:
                    continue
                kappa, gen, seq = state
                if kappa < new_gen - 1:
                    continue
                x = seq[-1]
                for y in range(model.n_states):
                    pr = prob[x] * kernel[y, x]
                    if pr > 0.0:
                        key = (gen + (mi + 2,), (y,))
                        marginals[si][key] = marginals[si].get(key, 0.0) + w * pr
    return marginals


# ---------------------------------------------------------------------------
# Gaussian conditioning
# ---------------------------------------------------------------------------


def condition_joint_gaussian(mean, cov, H_full, R, z):
    """Posterior of x given z = H_full x + v, v ~ N(0, R), by block algebra."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    S = H_full @ cov @ H_full.T + R
    cross = cov @ H_full.T
    gain = cross @ np.linalg.inv(S)
    post_mean = mean + gain @ (np.asarray(z) - H_full @ mean)
    post_cov = cov - gain @ S @ gain.T
    resid = np.asarray(z) - H_full @ mean
    loglik = (
        -0.5 * resid @ np.linalg.solve(S, resid)
        - 0.5 * np.log(np.linalg.det(S))
        - 0.5 * len(resid) * np.log(2 * np.pi)
    )
    return post_mean, post_cov, float(loglik)


def gauss_logpdf(x, mean, cov) -> float:
    """log N(x; mean, cov) via Cholesky."""
    L = np.linalg.cholesky(cov)
    diff = solve_triangular(L, np.asarray(x, dtype=float) - mean, lower=True)
    return float(
        -0.5 * diff @ diff
        - np.log(np.diag(L)).sum()
        - 0.5 * len(x) * np.log(2.0 * np.pi)
    )


# ---------------------------------------------------------------------------
# Gaussian branch components
# ---------------------------------------------------------------------------


def component_from_moments(mean, cov, nx) -> GaussianBranchComponent:
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianBranchComponent(mean, (cov + cov.T) / 2.0, nx)


def check_component(c: GaussianBranchComponent) -> None:
    """Raise if a component's moments are not whole states."""
    for m, P in ((c.mean, c.cov), *zip(c.frozen_means, c.frozen_covs)):
        if len(m) == 0 or len(m) % c.nx or P.shape != (len(m), len(m)):
            raise ValueError(f"moments {m.shape}, {P.shape} are not whole states of {c.nx}")


def innovation_one(c: GaussianBranchComponent, H, R) -> tuple[np.ndarray, np.ndarray]:
    """Predicted measurement and jittered innovation covariance of one component.

    The per-component reference for the stacked ``trpmbm.gaussian.innovation``.
    """
    nx = c.nx
    last = slice(len(c.mean) - nx, len(c.mean))
    zhat = H @ c.mean[last]
    S = H @ c.cov[last, last] @ H.T + R
    S = (S + S.T) / 2.0
    if S.shape == (2, 2):
        definite = S[0, 0] > 0.0 and S[0, 0] * S[1, 1] - S[0, 1] * S[0, 1] > 0.0
    else:
        definite = np.linalg.eigvalsh(S)[0] > 0.0
    return zhat, S if definite else S + JITTER * np.eye(len(S))


def gate_loglik_one(S, innovations, threshold) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``innovations`` inside the gate of one S and their log N(nu; 0, S).

    The per-component reference for the stacked ``trpmbm.gaussian.gate_loglik``.
    """
    if S.shape == (2, 2):
        a, b, c = S[0, 0], S[0, 1], S[1, 1]
        det = a * c - b * b
        u, v = innovations[:, 0], innovations[:, 1]
        d2 = (c * u * u - 2.0 * b * u * v + a * v * v) / det
        half_logdet = 0.5 * math.log(det)
    else:
        L = np.linalg.cholesky(S)
        white = solve_triangular(L, innovations.T, lower=True)
        d2 = (white**2).sum(axis=0)
        half_logdet = float(np.log(np.diag(L)).sum())
    rows = np.flatnonzero(d2 <= threshold)
    log2pi = math.log(2.0 * math.pi)
    return rows, -0.5 * d2[rows] - half_logdet - 0.5 * S.shape[0] * log2pi


def merged_by_dict(log_w, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows merged by a dict over row tuples, then sorted and normalised.

    The loop reference for ``trpmbm.filter._merged``: equal rows' weights are
    summed with ``np.logaddexp`` in arrival order.
    """
    merged: dict = {}
    for w, row in zip(log_w.tolist(), rows.tolist()):
        key = tuple(row)
        merged[key] = np.logaddexp(merged[key], w) if key in merged else w
    keys = sorted(merged)
    logs = np.array([merged[key] for key in keys])
    logs -= logsumexp(logs)
    return logs, np.array(keys, dtype=np.intp).reshape(len(keys), rows.shape[1])


# ---------------------------------------------------------------------------
# Global-hypothesis formation from the association record kept as dicts:
# the reference for ``trpmbm.filter.form_hypotheses``
# ---------------------------------------------------------------------------


def record_as_dicts(maps) -> tuple[dict, dict]:
    """The array association record as two dicts keyed by (column, hyp).

    ``miss_logfactor`` holds every row's log missed-detection factor, and
    ``det_meas`` maps each row that gates a measurement to
    ``{measurement: (child index, log ratio)}``; both in row order.
    """
    miss_logfactor, det_meas = {}, {}
    for d, key in enumerate(zip(maps.col.tolist(), maps.hyp.tolist())):
        miss_logfactor[key] = maps.log_miss[d].item()
        gated = np.flatnonzero(maps.child[d] >= 0).tolist()
        if gated:
            det_meas[key] = {m: (int(maps.child[d, m]), maps.log_ratio[d, m]) for m in gated}
    return miss_logfactor, det_meas


def form_hypotheses_by_dicts(post, miss_logfactor, det_meas, new_tree_logw, m_k, cfg):
    """``form_hypotheses`` reading the dict record entry by entry: each
    group's cost matrix and each solution's picks are filled in loops."""
    n_hyp = cfg.filters.n_hyp
    keys = list(miss_logfactor)
    match = post.sel[:, [c for c, _ in keys]] == np.array([b for _, b in keys], np.intp)
    miss = np.where(match, [miss_logfactor[key] for key in keys], 0.0)
    baselines = np.hstack([np.zeros((len(miss), 1)), miss]).cumsum(axis=1)[:, -1]
    det_keys = [j for j, key in enumerate(keys) if key in det_meas]
    det = match[:, det_keys]
    order, starts = _runs(det)

    child_w, child_sel = [], []
    for lo, hi in zip(starts, [*starts[1:], len(order)]):
        members = order[lo:hi]
        cols = [keys[det_keys[j]] for j in np.flatnonzero(det[members[0]])]
        n_cols = len(cols)
        free = sorted({m for key in cols for m in det_meas[key]})
        free_pos = {m: i for i, m in enumerate(free)}
        n_free = len(free)
        forced_cost = -sum(new_tree_logw[m] for m in range(m_k) if m not in free_pos)
        C = np.full((n_free, n_cols + n_free), np.inf)
        for ci, key in enumerate(cols):
            for m, (_, logratio) in det_meas[key].items():
                C[free_pos[m], ci] = -logratio
        for i, m in enumerate(free):
            C[i, n_cols + i] = -new_tree_logw[m]

        weights = post.log_w[members].tolist()
        k_want = [max(1, math.ceil(n_hyp * math.exp(w))) for w in weights]
        solutions = (
            murty_kbest(C, max(k_want)) if n_free else [(np.zeros(0, dtype=int), 0.0)]
        )
        picks = np.tile(np.array([b for _, b in cols], post.sel.dtype), (len(solutions), 1))
        new = np.ones((len(solutions), m_k), dtype=post.sel.dtype)
        for s, (assignment, _) in enumerate(solutions):
            for row_pos, col_pos in enumerate(assignment):
                if col_pos < n_cols:
                    m = free[row_pos]
                    new[s, m] = 0
                    picks[s, col_pos] = det_meas[cols[col_pos]][m][0]
        costs = np.array([cost for _, cost in solutions])

        take = np.minimum(k_want, len(solutions))
        parent = np.repeat(members, take)
        sol = np.concatenate([np.arange(t) for t in take])
        rows = post.sel[parent]
        rows[:, [c for c, _ in cols]] = picks[sol]
        child_sel.append(np.hstack([rows, new[sol]]))
        child_w.append(post.log_w[parent] + baselines[parent] - (forced_cost + costs[sol]))

    log_w, sel = _merged(np.concatenate(child_w), np.vstack(child_sel))
    return Posterior(post.step, post.ppp, post.trees, log_w, sel)


# ---------------------------------------------------------------------------
# Prediction and conditioning one component at a time: the references for
# the stacked kernels of ``trpmbm.gaussian`` and the stacked passes of
# ``trpmbm.filter.predict`` and the new-tree block of ``update``
# ---------------------------------------------------------------------------


def _sym(P):
    return (P + P.T) / 2.0


def perp_unit_one(x):
    """Unit vector perpendicular to the heading of one state [px, vx, py, vy]."""
    vx, vy = float(x[1]), float(x[3])
    speed = math.hypot(vx, vy)
    if speed < SPEED_EPS:
        return PERP_FALLBACK.copy()
    return np.array([-vy, 0.0, vx, 0.0]) / speed


def offset_one(mode, x):
    """A motion mode's offset at one state."""
    if mode.perp_scale is not None:
        return mode.perp_scale * perp_unit_one(x)
    if mode.offset is not None:
        return mode.offset
    return np.zeros(mode.F.shape[0])


def predict_augment_survive(c, F, d, Q):
    """Append the surviving next state: mark 1, one more n_x block."""
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
    return GaussianBranchComponent(new_mean, new_cov, nx, c.frozen_means, c.frozen_covs)


def spawn_component(c, F, d, Q):
    """Single-state component for a branch spawned from ``c``'s last state."""
    nx = c.nx
    if F.shape != (nx, nx):
        raise ValueError(f"transition matrix {F.shape} does not match n_x={nx}")
    P = c.cov
    last = slice(P.shape[0] - nx, P.shape[0])
    mean = F @ c.mean[last] + d
    cov = _sym(F @ P[last, last] @ F.T + Q)
    return GaussianBranchComponent(mean, cov, nx)


def l_scan_truncate_component(c, L):
    """Freeze live states older than the last L: drop their cross terms."""
    if L < 1:
        raise ValueError(f"window must be >= 1, got {L}")
    w = c.live_length
    if w <= L:
        return c
    cut = (w - L) * c.nx
    return GaussianBranchComponent(
        c.mean[cut:].copy(),
        _sym(c.cov[cut:, cut:].copy()),
        c.nx,
        c.frozen_means + (c.mean[:cut].copy(),),
        c.frozen_covs + (_sym(c.cov[:cut, :cut].copy()),),
    )


def condition_one(c, H, S, innovations):
    """One component's live window conditioned on each innovation row:
    the posterior means and the covariance they share."""
    if S.shape == (2, 2):
        a, b, d = S[0, 0], S[0, 1], S[1, 1]
        S_inv = np.array([[d, -b], [-b, a]]) / (a * d - b * b)
    else:
        S_inv = np.linalg.inv(S)
    K = c.cov[:, -c.nx :] @ H.T @ S_inv
    cov = _sym(c.cov - K @ S @ K.T)
    return [c.mean + K @ nu for nu in innovations], cov


def tree_predict(tree, cfg, k):
    """One Bernoulli tree advanced to step k, one component at a time, and
    the parent slot of each appended spawn slot (no window cut)."""
    surv = cfg.survival
    p_s = surv.prob
    new_slots, spawnable = [], []
    any_change = False
    for ji, slot in enumerate(tree.slots):
        hyps, alive, changed = [], False, False
        for h in slot.hyps:
            prev = h.density.components.get(k - 1) if h.density is not None else None
            if prev is None or prev.beta == 0.0:
                hyps.append(h)
                continue
            if h.r > 0.0:
                alive = True
            cases = dict(h.density.components)
            if p_s < 1.0:
                cases[k - 1] = EndCase(prev.beta * (1.0 - p_s), prev.comp)
            else:
                del cases[k - 1]
            if p_s > 0.0:
                moved = predict_augment_survive(
                    prev.comp, surv.F, offset_one(surv, prev.comp.last_mean), surv.Q
                )
                cases[k] = EndCase(prev.beta * p_s, moved)
            hyps.append(LocalHyp(h.log_w, h.r, BranchDensity(cases), h.assoc))
            changed = True
        if alive:
            spawnable.append(ji)
        any_change = any_change or changed
        new_slots.append(slot if not changed else BranchSlot(slot.branch_id, tuple(hyps)))

    parent_of = []
    for mark, mode in enumerate(cfg.spawn_modes, start=2):
        for ji in spawnable:
            slot = tree.slots[ji]
            pad = (k - 1 - tree.start_time + 1) - len(slot.branch_id)
            child_id = slot.branch_id + (1,) * pad + (mark,)
            hyps = []
            for h in slot.hyps:
                prev = h.density.components.get(k - 1) if h.density is not None else None
                if prev is None:
                    hyps.append(LocalHyp(0.0, 0.0, None, frozenset()))
                    continue
                r_new = h.r * mode.prob * prev.beta
                last = prev.comp.last_mean
                predicted_mean = surv.F @ last + offset_one(surv, last)
                child = spawn_component(prev.comp, mode.F, offset_one(mode, predicted_mean), mode.Q)
                density = BranchDensity({k: EndCase(1.0, child)})
                hyps.append(LocalHyp(0.0, r_new, density, frozenset()))
            new_slots.append(BranchSlot(child_id, tuple(hyps)))
            parent_of.append(ji)
    if not any_change and not parent_of:
        return tree, parent_of
    return BernoulliTree(tree.start_time, tuple(new_slots)), parent_of


def predict_by_component(post, cfg, kind="trpmbm"):
    """``trpmbm.filter.predict`` followed by a window cut of every
    component, one component at a time."""
    k = post.step + 1
    trees, cols, start = [], [], 0
    for tree in post.trees:
        new, parents = tree_predict(tree, cfg, k)
        trees.append(new)
        cols += range(start, start + len(tree.slots))
        cols += (start + p for p in parents)
        start += len(tree.slots)
    sel = post.sel[:, cols]
    if kind == "trmbm":
        ppp = ()
        birth = _birth_tree(cfg, k)
        if birth.slots:
            trees.append(birth)
            sel = np.hstack([sel, np.zeros((len(sel), len(birth.slots)), sel.dtype)])
    else:
        surv = cfg.survival
        out = []
        if surv.prob > 0.0:
            log_ps = math.log(surv.prob)
            for c in post.ppp:
                last = c.comp.last_mean
                moved = predict_augment_survive(c.comp, surv.F, offset_one(surv, last), surv.Q)
                out.append(PPPComponent(c.log_weight + log_ps, c.start_time, moved))
        for b in cfg.births:
            weight = math.log(b.weight) if b.weight > 0.0 else -math.inf
            mean, cov = np.asarray(b.mean, float), np.asarray(b.cov, float)
            comp = GaussianBranchComponent(mean, cov, NX)
            out.append(PPPComponent(weight, k, comp))
        ppp = tuple(out)

    L = cfg.filters.lscan
    ppp = tuple(
        PPPComponent(c.log_weight, c.start_time, l_scan_truncate_component(c.comp, L)) for c in ppp
    )
    cut_trees = []
    for tree in trees:
        slots = []
        for slot in tree.slots:
            hyps = []
            for h in slot.hyps:
                if h.density is not None:
                    cases = {
                        kappa: EndCase(case.beta, l_scan_truncate_component(case.comp, L))
                        for kappa, case in h.density.components.items()
                    }
                    h = LocalHyp(h.log_w, h.r, BranchDensity(cases), h.assoc)
                hyps.append(h)
            slots.append(BranchSlot(slot.branch_id, tuple(hyps)))
        cut_trees.append(BernoulliTree(tree.start_time, tuple(slots)))
    return Posterior(k, ppp, tuple(cut_trees), post.log_w, sel)


def new_trees_by_measurement(ppp, Z, cfg, k):
    """The new-tree block of ``trpmbm.filter.update``, one measurement at a
    time: (r, best term or None, conditioned component or None, log-weight)
    per measurement."""
    meas = cfg.measurement
    m_k = Z.shape[0]
    p_d = meas.p_detect
    log_p_d = math.log(p_d) if p_d > 0.0 else -math.inf
    clutter = meas.clutter_density
    log_clutter = math.log(clutter) if clutter > 0.0 else -math.inf
    ppp_loglik = np.full((len(ppp), m_k), -np.inf)
    live = [qi for qi, c in enumerate(ppp) if np.isfinite(c.log_weight)]
    row_of = {}
    if live and m_k:
        zhat, ppp_S = innovation(last_states([ppp[qi].comp for qi in live]), meas.H, meas.R)
        ppp_innov = Z - zhat[:, None, :]
        inside, loglik = gate_loglik(ppp_S, ppp_innov, cfg.filters.gate)
        for row, qi in enumerate(live):
            gated = inside[row]
            ppp_loglik[qi, gated] = ppp[qi].log_weight + log_p_d + loglik[row, gated]
        row_of = {qi: row for row, qi in enumerate(live)}
    out = []
    for m in range(m_k):
        col = ppp_loglik[:, m]
        total = float(logsumexp(col)) if len(col) else -np.inf
        log_w2 = max(float(np.logaddexp(log_clutter, total)), LOG_FLOOR)
        if np.isfinite(total):
            best = max(range(len(ppp)), key=lambda q: (col[q], ppp[q].start_time, q))
            row = row_of[best]
            (mean,), cov = condition_one(
                ppp[best].comp, meas.H, ppp_S[row], ppp_innov[row, m : m + 1]
            )
            comp = ppp[best].comp.with_live(mean, cov)
            out.append((float(math.exp(total - log_w2)), best, comp, log_w2))
        else:
            out.append((0.0, None, None, log_w2))
    return out


# ---------------------------------------------------------------------------
# End-time rules in the forms update's missed detection and prune's
# alive-end cut first had: the references for `trpmbm.filter._missed`,
# the rule on table rows
# ---------------------------------------------------------------------------


def missed_by_update(density, k, p_d):
    """The end-time mixture of a missed local hypothesis: beta(k) scaled by
    1 - p_D, the mixture renormalised and zero ends dropped; None when
    detection was certain or no end is left."""
    beta_k = density.beta(k)
    norm = 1.0 - p_d * beta_k
    if norm <= 0.0:
        return None
    cases = {}
    for kappa, case in density.components.items():
        beta = case.beta / norm
        if kappa == k:
            beta = case.beta * (1.0 - p_d) / norm
        if beta > 0.0:
            cases[kappa] = EndCase(beta, case.comp)
    return BranchDensity(cases) if cases else None


def alive_cut_by_prune(density, k):
    """The mixture without its end at k, renormalised; None when no other
    end is left."""
    beta_k = density.beta(k)
    rest = {
        kappa: EndCase(case.beta / (1.0 - beta_k), case.comp)
        for kappa, case in density.components.items()
        if kappa != k
    }
    return BranchDensity(rest) if rest else None


# ---------------------------------------------------------------------------
# The measurement update that built the detected hypothesis of every gated
# pair: the reference for formation building only the picked ones, and,
# after ``predict_by_component``'s spawned slots of records, for the
# spawned slots that ``trpmbm.filter`` holds as arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EagerRecord:
    """The association record of ``update_eager``: ``child`` indexes the
    built detected hypotheses."""

    col: np.ndarray
    hyp: np.ndarray
    log_miss: np.ndarray
    log_ratio: np.ndarray
    child: np.ndarray
    new_tree_logw: np.ndarray


def update_eager(post, Z, cfg):
    """``trpmbm.filter.update`` building every detected hypothesis, behind
    the missed block of its slot in (row, measurement) order, from a
    posterior of built slots."""
    k = post.step
    meas = cfg.measurement
    Z = np.asarray(Z, dtype=float).reshape(-1, meas.H.shape[0])
    m_k = Z.shape[0]
    p_d = meas.p_detect
    new_trees, new_tree_logw = _new_trees(post.ppp, Z, cfg, k)
    if p_d >= 1.0:
        ppp = ()
    else:
        thin = _log(1.0 - p_d)
        ppp = tuple(PPPComponent(c.log_weight + thin, c.start_time, c.comp) for c in post.ppp)

    slots = [slot for tree in post.trees for slot in tree.slots]
    columns = [slot.hyps for slot in slots]
    keys, log_miss, detectable = [], [], []
    for col, predicted in enumerate(columns):
        hyps = None
        for bi, h in enumerate(predicted):
            beta_k = h.density.beta(k) if h.density is not None and h.r > 0.0 else 0.0
            detectable_mass = h.r * beta_k * p_d
            if detectable_mass <= 0.0:
                continue
            if hyps is None:
                hyps = columns[col] = list(predicted)
            miss_factor = 1.0 - detectable_mass
            density = missed_by_update(h.density, k, p_d)
            r_miss = h.r * (1.0 - beta_k * p_d) / miss_factor if density is not None else 0.0
            hyps[bi] = LocalHyp(h.log_w + _log(miss_factor), r_miss, density, h.assoc)
            keys.append((col, bi))
            log_miss.append(max(_log(miss_factor), LOG_FLOOR))
            detectable.append((hyps, h, beta_k))

    log_ratio = np.full((len(detectable), m_k), -np.inf)
    child = np.full((len(detectable), m_k), -1, dtype=post.sel.dtype)
    if detectable and m_k:
        comps = [h.density.components[k].comp for _, h, _ in detectable]
        zhat, S = innovation(last_states(comps), meas.H, meas.R)
        innov = Z - zhat[:, None, :]
        inside, loglik = gate_loglik(S, innov, cfg.filters.gate)
        rows = np.flatnonzero(inside.any(axis=1))
        item, gated = np.nonzero(inside[rows])
        means, covs = condition(
            [comps[row] for row in rows], meas.H, S[rows], item, innov[rows[item], gated]
        )
        means = iter(means)
        for row, cov_post in zip(rows.tolist(), covs):
            hyps, h, beta_k = detectable[row]
            gated = np.flatnonzero(inside[row])
            comp_k = comps[row]
            log_base = h.log_w + _log(h.r) + _log(beta_k) + _log(p_d)
            log_det = log_base + loglik[row, gated]
            log_ratio[row, gated] = log_det - (h.log_w + log_miss[row])
            child[row, gated] = np.arange(len(hyps), len(hyps) + len(gated))
            for m, mean, log_w in zip(gated.tolist(), means, log_det.tolist()):
                density = BranchDensity({k: EndCase(1.0, comp_k.with_live(mean, cov_post))})
                hyps.append(LocalHyp(log_w, 1.0, density, h.assoc | {(k, m)}))

    rebuilt = [
        slot if hyps is slot.hyps else BranchSlot(slot.branch_id, tuple(hyps))
        for slot, hyps in zip(slots, columns)
    ]
    trees = _rebuilt(post.trees, dict(enumerate(rebuilt)))
    cols, bis = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    record = EagerRecord(cols, bis, np.array(log_miss), log_ratio, child, new_tree_logw)
    return Posterior(k, ppp, trees + tuple(new_trees), post.log_w, post.sel), record


def step_eager(post, Z, cfg, kind="trpmbm"):
    """``trpmbm.filter.step`` with every local hypothesis built: spawned
    slots of records, every gated pair's detected hypothesis, and the
    formation reference reading that record."""
    if kind == "tpmbm" and cfg.n_modes > 1:
        cfg = no_spawning(cfg)
    Z = np.asarray(Z, dtype=float).reshape(-1, cfg.measurement.H.shape[0])
    upd, record = update_eager(predict_by_component(post, cfg, kind), Z, cfg)
    formed = form_hypotheses_by_dicts(
        upd, *record_as_dicts(record), record.new_tree_logw, len(Z), cfg
    )
    return prune(formed, cfg)
