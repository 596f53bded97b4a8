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

The same argument, one level down, drops pairs inside a cluster.  Take a
pair that is never within c at a step where both tracks are alive.  At
every step, matching it costs what its two dummies cost: c^p against
c^p/2 + c^p/2 when both are alive, c^p/2 against c^p/2 + 0 when one is,
0 against 0 when neither is.  Moving its mass onto the dummies keeps every
row and column sum, leaves the other pairs' switch terms alone and zeroes
its own, so some optimum leaves the pair at zero throughout.  A cluster's
LP therefore has columns only for its kept pairs, those within c at some
step (the ``close`` mask that formed the clusters): their W at every step,
their switch variables and the switch rows on them.  The dummies and the
equality rows stay whole.  The optimum is the one over every pair.  Its
split can differ only where that optimum is not unique: where the LP over
every pair matched a dropped pair, which the kept-pairs LP books as
missed + false at c^p/2 each instead of localisation at c^p, or where a
kept pair at distance >= c ties with its dummies and the two LPs' pivoting
paths break the tie differently.  The parts are summed over the layout of
every pair, with zeros at the dropped columns, so elsewhere they keep the
bits of that sum.

The other clusters are solved by HiGHS, called directly through the
module scipy ships (``scipy.optimize._highspy``) with the model and
options that ``scipy.optimize.linprog(method="highs")`` would pass, so a
cold solve gives linprog's result bit for bit.  The model goes in
row-wise, as it is built; linprog passes the same matrix column-wise, and
HiGHS solves the two alike.  A caller that scores every step of a run
keeps a dict of the final bases (`trajectory_metric`'s ``bases``).  A
cluster that holds exactly one of the LP clusters of k-1 whole, with the
same first step, then starts its dual simplex from that cluster's basis,
mapped onto its own layout by track label: the same tracks, the same
tracks in another order, or more tracks that joined them.  A pair column
goes by its (estimate, truth) labels: a pair kept for the first time
starts nonbasic, and one no longer kept drops out.  The old tracks' part
of the new step starts as their part of the step before ended, and the
solve needs a few pivots instead of a solve from scratch.  Where the
optimum it reaches may tie with one of another split, the LP is solved
cold again.  Without the private module, ``linprog`` itself solves every
LP cold.

Most steps need no solve at all: the cluster has the same labels, first
step and kept pairs as one of k-1, and that cluster's optimum, its last
step repeated with a zero switch between the two, is still optimal.  A
lower bound proves it.  Restricted to one step t, a feasible point of the
cluster's LP is a feasible point of step t's assignment LP: with the
kept pairs W, an (n+m) x (m+n) doubly stochastic matrix holds W in its
estimate x truth block, each estimate's dummy on the diagonal of the
estimate x estimate-dummy block, each truth's dummy on the diagonal of
the truth-dummy x truth block, and W transposed, at zero cost, in the
truth-dummy x estimate-dummy block; every other entry is forbidden.  The
vertices of that polytope are permutations, so its optimum A_t is the
one `linear_sum_assignment` finds.  Switches cost >= 0, so no feasible
point costs less than LB = sum_t A_t, and the extended optimum, which is
feasible, is optimal where it costs no more than LB (to a relative
1e-12).  It is then taken as the solution (`_certified`), its entry keeps
the predecessor's basis for the next LP that HiGHS solves, and only the
`_split_may_tie` test can still send the LP to HiGHS.  A_t depends on
step t's costs alone, so the bases entry keeps the LP costs and each A_t,
and only the new step and the steps whose costs changed get a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.optimize
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from .trees import TreeTrajectory, first_own_generation, unique_id

try:  # HiGHS as scipy ships it; the module is private, so it may move
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None


@dataclass(frozen=True)
class TrajMetricParams:
    """Exponent p >= 1, cutoff c > 0 and switch penalty gamma >= 0, all
    finite, and so are c**p and gamma**p, which the costs are made of."""

    p: float = 2.0
    c: float = 10.0
    gamma: float = 1.0

    def __post_init__(self):
        finite = all(math.isfinite(v) for v in (self.p, self.c, self.gamma))
        valid = finite and self.p >= 1 and self.c > 0 and self.gamma >= 0
        try:
            valid = valid and all(math.isfinite(x**self.p) for x in (self.c, self.gamma))
        except OverflowError:
            valid = False
        if not valid:
            raise ValueError(
                f"metric needs finite p >= 1, c > 0, gamma >= 0, c**p, gamma**p; got {self}"
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


def _geometry(est: list[Track], truth: list[Track], k: int):
    """Steps 1..k of two track sets that end by k: the (k, n, m) est-truth
    distances, NaN where either is not alive, and the (k, n) and (k, m)
    alive masks."""
    steps = np.arange(1, k + 1)[:, None]

    def grid(tracks):
        out = np.full((2, k, len(tracks)), np.nan)
        for i, tr in enumerate(tracks):
            out[:, tr.start - 1 : tr.end, i] = tr.positions.T
        return out

    def alive(tracks):
        starts = np.array([tr.start for tr in tracks], dtype=int)
        ends = np.array([tr.end for tr in tracks], dtype=int)
        return (starts <= steps) & (steps <= ends)

    (ex, ey), (tx, ty) = grid(est), grid(truth)
    dx = ex[:, :, None] - tx[:, None]
    return np.hypot(dx, ey[:, :, None] - ty[:, None], out=dx), alive(est), alive(truth)


def _clusters(close: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected components of the est-truth interaction graph whose edges
    are the (n, m) mask ``close``."""
    n, m = close.shape
    parent = list(range(n + m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

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


# Variable layout of a cluster with n estimates, m truths and T steps, over
# all n*m pairs: step t holds W[i, j] at t*S + i*m + j, the est dummies
# W[i, m] at t*S + n*m + i and the truth dummies W[n, j] at
# t*S + n*m + n + j, with S = n*m + n + m; the switch variable of pair
# (i, j) between steps t and t+1 follows at T*S + t*n*m + i*m + j.  Costs,
# tags and the parts are kept in this layout, built from the cluster's
# slice of the step's `_geometry`, its rows from the cluster's first step
# on.  The LP itself has columns for its kept pairs only, the flat indices
# i*m + j in ``pairs`` (ascending): step t holds them at t*S' + q for the
# q-th kept pair, then the dummies, with S' = len(pairs) + n + m, and the
# switch variables follow at T*S' + t*len(pairs) + q (`_columns`).  Its
# constraint rows go to HiGHS as built, row by row (`_model`).


def _cluster_costs(
    geometry: tuple[np.ndarray, np.ndarray, np.ndarray],
    close: np.ndarray,
    params: TrajMetricParams,
) -> tuple[np.ndarray, np.ndarray]:
    """LP cost vector and component tags (0 loc, 1 missed, 2 false, 3 switch)
    over all pairs, from the cluster's (distances, est alive, truth alive)
    ``geometry``.  A pair outside the (n, m) mask ``close`` is never within
    c, so it costs c^p wherever both are alive."""
    p, c = params.p, params.c
    half = c**p / 2.0
    dist, e_alive, t_alive = geometry
    T, n, m = dist.shape
    ae = e_alive[:, :, None]
    at = t_alive[:, None, :]
    both = ae & at
    near = both & close
    pair_cost = np.where(ae | at, half, 0.0)
    pair_cost[both] = math.pow(c, p)
    # math.pow per entry: numpy's vectorised power may round differently
    pair_cost[near] = np.fromiter(
        map(math.pow, np.minimum(dist[near], c).tolist(), repeat(p)), float
    )
    pair_tag = np.where(at & ~ae, 1, np.where(ae & ~at, 2, 0))

    S = n * m + n + m
    cost = np.full(T * S + (T - 1) * n * m, params.gamma**p / 2.0)
    tag = np.full(len(cost), 3, dtype=np.int8)
    w_cost = cost[: T * S].reshape(T, S)
    w_tag = tag[: T * S].reshape(T, S)
    w_cost[:, : n * m] = pair_cost.reshape(T, n * m)
    w_tag[:, : n * m] = pair_tag.reshape(T, n * m)
    dummy_alive = np.hstack([e_alive, t_alive])
    w_cost[:, n * m :] = np.where(dummy_alive, half, 0.0)
    w_tag[:, n * m :] = np.where(dummy_alive, [2] * n + [1] * m, 0)
    return cost, tag


def _columns(n: int, m: int, T: int, pairs: np.ndarray) -> np.ndarray:
    """Index in the all-pairs layout of each column of the LP that keeps
    ``pairs``."""
    nm = n * m
    S = nm + n + m
    step = np.concatenate([pairs, nm + np.arange(n + m)])
    steps = np.arange(T)[:, None]
    return np.concatenate([(steps * S + step).ravel(), (T * S + steps[:-1] * nm + pairs).ravel()])


def _model(n: int, m: int, T: int, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The LP of a cluster that keeps ``pairs`` as HiGHS takes it:
    ``[A_ub; A_eq]`` in CSR arrays (indptr, column indices, values) and the
    row bounds (lhs, rhs).

    The inequalities come first, two per switch variable (none at a single
    step): e >= |W_{t+1} - W_t| on kept pairs.  Then the equalities: every
    est row (kept pairs, then its dummy) and every truth column (kept pairs,
    then its dummy) sums to one at every step.  Each row lists its columns
    ascending.
    """
    P = len(pairs)
    S = P + n + m
    q = np.arange((T - 1) * P)
    w0 = (q // P) * S + q % P
    e = T * S + q
    pi, pj = np.divmod(pairs, m)
    slot = np.arange(P)
    # per est (truth) track, its kept pairs ascending and then its dummy
    est_cols = np.concatenate([slot, P + np.arange(n)])
    est_of = np.concatenate([pi, np.arange(n)])
    truth_cols = np.concatenate([slot, P + n + np.arange(m)])
    truth_of = np.concatenate([pj, np.arange(m)])
    step_cols = np.concatenate([
        est_cols[np.lexsort((est_cols, est_of))],
        truth_cols[np.lexsort((truth_cols, truth_of))],
    ])  # fmt: skip
    # rows W_{t+1} - W_t - e <= 0 and W_t - W_{t+1} - e <= 0 (w0 < w0 + S < e)
    switch_cols = np.column_stack([w0, w0 + S, e, w0, w0 + S, e]).ravel()
    cols = np.concatenate([switch_cols, (np.arange(T)[:, None] * S + step_cols).ravel()])
    switch_vals = np.tile([-1.0, 1.0, -1.0, 1.0, -1.0, -1.0], len(q))
    vals = np.concatenate([switch_vals, np.ones(T * len(step_cols))])
    step_len = np.concatenate([np.bincount(pi, minlength=n), np.bincount(pj, minlength=m)]) + 1
    row_len = np.concatenate([np.full(2 * len(q), 3), np.tile(step_len, T)])
    indptr = np.zeros(len(row_len) + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    n_ub, n_eq = 2 * len(q), T * (n + m)
    lhs = np.concatenate([np.full(n_ub, -np.inf), np.ones(n_eq)])
    rhs = np.concatenate([np.zeros(n_ub), np.ones(n_eq)])
    return indptr, cols.astype(np.int32), vals, lhs, rhs


def _highs_solve(cost, model, start=None):
    """Optimal x of the cluster LP through HiGHS, and its basic variables.

    ``start`` is a (column, row) basis status pair to begin the dual simplex
    from; a rejected or failed warm start is solved again cold.  The basic
    variables come as HiGHS lists them: column j as j, row i as -1-i.
    """
    indptr, indices, values, lhs, rhs = model
    n_col = len(cost)
    for begin in (start, None) if start is not None else (None,):
        highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
        highs.passModel(
            n_col, len(rhs), len(values),
            int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
            cost, np.zeros(n_col), np.full(n_col, np.inf), lhs, rhs,
            indptr, indices, values, np.zeros(n_col, dtype=np.int32),
        )  # fmt: skip
        if begin is not None:
            basis = _highs.HighsBasis()
            basis.col_status, basis.row_status = begin
            if highs.setBasis(basis) != _highs.HighsStatus.kOk:
                continue
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return np.array(highs.getSolution().col_value), highs.getBasicVariables()[1]
    raise RuntimeError(f"metric LP failed: {highs.modelStatusToString(status)}")


def _scipy_solve(cost, model, start=None):
    """``_highs_solve`` through ``scipy.optimize.linprog``, always cold."""
    indptr, indices, values, lhs, rhs = model
    A = sparse.csr_array((values, indices, indptr), shape=(len(rhs), len(cost)))
    n_ub = int(np.isneginf(lhs).sum())
    ub = {"A_ub": A[:n_ub], "b_ub": rhs[:n_ub]} if n_ub else {}
    res = scipy.optimize.linprog(
        cost, **ub, A_eq=A[n_ub:], b_eq=rhs[n_ub:], bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"metric LP failed: {res.message}")
    return res.x, None


_LOWER, _BASIC, _UPPER = range(3)  # `_mapped_start`'s codes of the HiGHS basis statuses

if _highs is not None:
    # linprog(method="highs")'s options: presolve, dual simplex, default tolerances, no output
    _HIGHS_OPTIONS = _highs.HighsOptions()
    _HIGHS_OPTIONS.presolve = "on"
    _HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    _HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _HIGHS_OPTIONS.output_flag = False
    _HIGHS_OPTIONS.log_to_console = False
    _status = _highs.HighsBasisStatus
    _STATUSES = np.array([_status.kLower, _status.kBasic, _status.kUpper], dtype=object)
    linprog = _highs_solve
else:
    linprog = _scipy_solve


def _mapped_start(
    prev: dict, est: tuple, truth: tuple, t0: int, T: int, pairs: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The basis to start the LP of the cluster with labels ``est`` and
    ``truth``, first step t0, T steps, kept pairs ``pairs`` and costs
    ``cost`` from, as int8 codes (`_LOWER`, `_BASIC`, `_UPPER`) of its
    columns and rows, or None for a cold solve.

    The start is the stored basis of the one cluster in ``prev`` whose
    labels all lie in this one, if it has the same t0 and T-1 steps, of
    which the basis covers T_b (`trajectory_metric`).  Its W pairs, dummies
    and switch columns, its switch rows and its equality rows keep their
    statuses at the indices of the same labels in this layout; a pair is
    named by its (estimate, truth) labels, and one that is no longer kept
    drops out.  Where its last step holds one basic variable per equality
    row, the old tracks' part of steps T_b..T-1 repeats that step: a pair
    matched at T_b-1 starts matched up to T-1.  Every other column starts
    nonbasic at zero and every other row basic (the columns and rows of
    tracks that joined, of pairs kept for the first time, and otherwise the
    steps from T_b on), except that a track starts on its dummy at the steps
    where it is not alive, where the dummy costs nothing.  Nonbasic rows sit
    at their upper side: the switch rows have no other, and either side is
    the value of an equality row.  The start need not be feasible or
    nonsingular; HiGHS repairs it.  Nothing is mapped where a label repeats,
    here or in the predecessor, or where two clusters of k-1 lie in this
    one.
    """
    est_at = {label: i for i, label in enumerate(est)}
    truth_at = {label: j for j, label in enumerate(truth)}
    inside = [
        key
        for key in prev
        if est_at.keys() >= set(key[0]) and truth_at.keys() >= set(key[1])
    ]
    if len(inside) != 1:
        return None
    (old_est, old_truth, old_t0), (T_prev, old_pairs, basic, *_, T_b) = inside[0], prev[inside[0]]
    labels = (est, truth, old_est, old_truth)
    if any(len(set(ls)) < len(ls) for ls in labels) or old_t0 != t0 or T_prev != T - 1:
        return None
    pe = np.array([est_at[label] for label in old_est])
    pt = np.array([truth_at[label] for label in old_truth])
    n, m, P = len(est), len(truth), len(pairs)
    S = P + n + m
    n_ub = 2 * (T - 1) * P
    n_col, n_row = T * S + (T - 1) * P, n_ub + T * (n + m)
    # an old pair's place among the kept pairs, if it is still kept
    oi, oj = np.divmod(old_pairs, len(old_truth))
    flat = pe[oi] * m + pt[oj]
    slot = np.minimum(np.searchsorted(pairs, flat), P - 1)
    kept = pairs[slot] == flat
    # an old step's columns and equality rows at their new places in a step
    step_cols = np.concatenate([slot, P + pe, P + n + pt])
    step_kept = np.concatenate([kept, np.ones(len(pe) + len(pt), dtype=bool)])
    step_rows = n_ub + np.concatenate([pe, n + pt])
    old_steps = np.arange(T_b)[:, None]
    switch = (np.arange(T_b - 1)[:, None] * P + slot).ravel()
    switch_kept = np.tile(kept, T_b - 1)
    col_of = np.concatenate([(old_steps * S + step_cols).ravel(), T * S + switch])
    row_of = np.concatenate([
        np.column_stack([2 * switch, 2 * switch + 1]).ravel(),
        (old_steps * (n + m) + step_rows).ravel(),
    ])  # fmt: skip
    # the columns and rows of old pairs no longer kept go to a sink past the end
    col_of[~np.concatenate([np.tile(step_kept, T_b), switch_kept])] = n_col
    row_of[: 2 * len(switch)][~np.repeat(switch_kept, 2)] = n_row
    col_status = np.full(n_col + 1, _LOWER, dtype=np.int8)
    col_status[col_of[basic[basic >= 0]]] = _BASIC
    row_status = np.full(n_row + 1, _BASIC, dtype=np.int8)
    row_status[row_of] = _UPPER
    row_status[row_of[-1 - basic[basic < 0]]] = _BASIC
    placed = np.zeros(len(row_status), dtype=bool)
    placed[row_of] = True
    # the old tracks' part of steps T_b..T-1 repeats their part of step T_b-1
    step_cols = step_cols[step_kept]
    last_cols = col_status[(T_b - 1) * S + step_cols]
    last_rows = row_status[(T_b - 1) * (n + m) + step_rows]
    if (last_cols == _BASIC).sum() + (last_rows == _BASIC).sum() == len(step_rows):
        later = np.arange(T_b, T)[:, None]
        col_status[later * S + step_cols] = last_cols
        row_status[later * (n + m) + step_rows] = last_rows
        placed[later * (n + m) + step_rows] = True
    # a track sits on its dummy, at zero cost, at the steps it is not alive
    steps = np.arange(T)[:, None]
    dummies = (steps * S + P + np.arange(n + m)).ravel()
    rows = (n_ub + steps * (n + m) + np.arange(n + m)).ravel()
    idle = (cost[dummies] == 0.0) & ~placed[rows]
    col_status[dummies[idle]] = _BASIC
    row_status[rows[idle]] = _UPPER
    return col_status[:-1], row_status[:-1]


def _statuses(codes: tuple[np.ndarray, np.ndarray]) -> tuple[list, list]:
    """Column and row codes of a start as the HiGHS basis status lists."""
    return _STATUSES[codes[0]].tolist(), _STATUSES[codes[1]].tolist()


def _step_bounds(
    n: int, m: int, pairs: np.ndarray, blocks: np.ndarray, known: tuple | None = None
) -> np.ndarray:
    """Each step's assignment optimum A_t, from the (T, S') step blocks of
    the costs of the LP that keeps ``pairs``; the steps whose block equals
    the first rows of ``known``'s (blocks, A_t) keep their A_t.

    A step alone is an (n+m) x (m+n) assignment: estimates then truth
    dummies as rows, truths then estimate dummies as columns; a kept pair,
    an estimate's own dummy and a truth's own dummy at their costs, the
    truth-dummy x estimate-dummy filler at zero, every other entry
    forbidden (module docstring).
    """
    P = len(pairs)
    pi, pj = np.divmod(pairs, m)
    est, truth = np.arange(n), np.arange(m)
    grid = np.full((n + m, m + n), np.inf)
    grid[n:, m:] = 0.0
    bounds = np.empty(len(blocks))
    fresh = np.ones(len(blocks), dtype=bool)
    if known is not None:
        old_blocks, old_bounds = known
        fresh[: len(old_blocks)] = (blocks[: len(old_blocks)] != old_blocks).any(axis=1)
        bounds[: len(old_blocks)] = old_bounds
    for t in np.flatnonzero(fresh).tolist():
        block = blocks[t]
        grid[pi, pj] = block[:P]
        grid[est, m + est] = block[P : P + n]
        grid[n + truth, truth] = block[P + n :]
        rows, cols = linear_sum_assignment(grid)
        bounds[t] = grid[rows, cols].sum()
    return bounds


def _certified(entry: tuple | None, n: int, m: int, T: int, pairs: np.ndarray, cost: np.ndarray):
    """The k-1 optimum of a cluster's ``bases`` entry ``entry``, extended by
    one step, where the step bounds prove it optimal for the LP with T
    steps, kept pairs ``pairs`` and costs ``cost`` (module docstring), else
    None; and the bounds A_t, None where ``entry`` is missing or has not
    T-1 steps and the same kept pairs."""
    if entry is None or entry[0] != T - 1 or not np.array_equal(entry[1], pairs):
        return None, None
    T_prev, _, _, old_x, old_cost, old_bounds, _ = entry
    P = len(pairs)
    S = P + n + m
    known = None if old_bounds is None else (old_cost[: T_prev * S].reshape(T_prev, S), old_bounds)
    bounds = _step_bounds(n, m, pairs, cost[: T * S].reshape(T, S), known)
    lower = bounds.sum()
    # the k-1 optimum, its last step repeated, no switch between the two
    steps = old_x[: T_prev * S]
    x = np.concatenate([steps, steps[-S:], old_x[T_prev * S :], np.zeros(P)])
    return (x if cost @ x <= lower + 1e-12 * abs(lower) else None), bounds


def _split_may_tie(x, cost, tag, close: np.ndarray, T: int, params: TrajMetricParams) -> bool:
    """Whether the optimum ``x`` may share its cost with an optimum of
    another split, which a cold solve could pick instead.

    Matching a pair at distance >= c costs c^p, as much as leaving both to
    their dummies.  At the first or last step of a matched stretch the
    switches cost the same either way (at any step when gamma = 0), so the
    split between localisation and missed/false is a tie that the solver's
    pivoting path breaks.  Costs within a relative 1e-6 of c^p count too:
    the simplex stops within its tolerances.  ``x``, ``cost`` and ``tag``
    are in the all-pairs layout; only the pairs in the (n, m) mask
    ``close`` have columns, so only they are tested.
    """
    n, m = close.shape
    S, nm = n * m + n + m, n * m
    capped = (
        (tag[: T * S].reshape(T, S)[:, :nm] == 0)
        & (cost[: T * S].reshape(T, S)[:, :nm] >= (1.0 - 1e-6) * params.c**params.p)
        & close.ravel()
    )
    if params.gamma == 0:
        return bool(capped.any())
    matched = x[: T * S].reshape(T, S)[:, :nm] > 0
    near = matched.copy()
    near[1:] |= matched[:-1]
    near[:-1] |= matched[1:]
    return bool((capped & near).any())


def _cluster_objective(
    est: list[Track],
    truth: list[Track],
    params: TrajMetricParams,
    k: int,
    geometry: tuple[np.ndarray, np.ndarray, np.ndarray],
    close: np.ndarray,
    prev: dict | None,
    solved: dict | None,
) -> np.ndarray:
    """Optimal (localisation, missed, false, switch) p-power cost of a cluster.

    ``geometry`` is the cluster's slice of the step's `_geometry`, from its
    first step to k, and ``close`` its (n, m) mask of the pairs within c at
    some step: the LP keeps those pairs only (module docstring).  ``prev``
    holds the entries of the clusters solved at k-1 (`trajectory_metric`'s
    ``bases``): the LP takes the extended optimum of its own key where
    `_certified` proves it optimal, and otherwise starts HiGHS from one of
    their bases where `_mapped_start` maps it onto this cluster.
    ``solved`` collects the entries of this step.
    """
    n, m = len(est), len(truth)
    T = len(geometry[0])
    t0 = k - T + 1
    cost, tag = _cluster_costs(geometry, close, params)
    x = np.zeros(len(cost))
    if n == m == 1 and params.gamma > 0:
        # the unique optimum matches the pair at every step (module docstring)
        x[: T * 3 : 3] = 1.0
    else:
        key = (tuple(tr.label for tr in est), tuple(tr.label for tr in truth), t0)
        pairs = np.flatnonzero(close)
        cols = _columns(n, m, T, pairs)
        lp_cost = cost[cols]
        entry = prev.get(key) if prev else None
        x_lp, bounds = _certified(entry, n, m, T, pairs, lp_cost)
        model = None
        if x_lp is None:
            start = None if not prev else _mapped_start(prev, *key, T, pairs, lp_cost)
            model = _model(n, m, T, pairs)
            x_lp, basis = linprog(lp_cost, model, None if start is None else _statuses(start))
            T_b, inherited = T, start is not None
        else:  # no HiGHS call: the entry keeps the predecessor's basis and its T_b
            basis, T_b, inherited = entry[2], entry[-1], True
        x[cols] = x_lp
        if inherited and _split_may_tie(x, cost, tag, close, T, params):
            model = _model(n, m, T, pairs) if model is None else model
            x_lp, basis = linprog(lp_cost, model)
            T_b = T
            x[cols] = x_lp
        if solved is not None and basis is not None:
            solved[key] = (T, pairs, basis, x_lp, lp_cost, bounds, T_b)
    # summed in the all-pairs layout: the zeros of dropped pairs keep the
    # order, and so the bits, of a sum over every pair
    contrib = cost * x
    return np.array([contrib[tag == comp].sum() for comp in range(4)])


def trajectory_metric(
    est: list[Track],
    truth: list[Track],
    params: TrajMetricParams,
    k: int,
    bases: dict | None = None,
) -> MetricBreakdown:
    """Distance between two labeled track sets evaluated at step ``k``.

    Tracks are truncated to steps 1..k; genealogy plays no role here (the
    caller already flattened branches to tracks).  ``bases`` is a dict the
    caller keeps across the steps of one run, empty at first.  Afterwards
    it holds an entry for every cluster LP of this step, keyed by its
    estimate labels, truth labels and first step: its number of steps T,
    its kept pairs, a final basis (HiGHS's basic variables, column j as j
    and row i as -1-i), its optimal x and its costs in the LP's layout,
    each step's assignment bound A_t (None where none was needed), and the
    number of steps T_b the basis covers: T after a HiGHS solve, the
    predecessor's T_b where `_certified` took the step.  A cluster of the
    next step with the same key and kept pairs may take its extended
    optimum, and one that holds an entry whole and runs HiGHS starts from
    its basis.  The breakdown is the one without it (module docstring).
    """
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
    solved = None if bases is None else {}
    dist, e_alive, t_alive = _geometry(est_k, truth_k, k)
    close = (dist < params.c).any(axis=0)  # the pairs within c at some step
    for eidx, tidx in _clusters(close):
        ce = [est_k[i] for i in eidx]
        ct = [truth_k[j] for j in tidx]
        if ce and ct:
            first = min(tr.start for tr in ce + ct) - 1
            cut = (dist[first:, eidx][:, :, tidx], e_alive[first:, eidx], t_alive[first:, tidx])
            parts += _cluster_objective(ce, ct, params, k, cut, close[eidx][:, tidx], bases, solved)
        elif ct:
            parts[1] += half * sum(len(t.positions) for t in ct)
        else:
            parts[2] += half * sum(len(t.positions) for t in ce)

    if bases is not None:
        bases.clear()
        bases.update(solved)

    scaled = parts / k
    total = float(scaled.sum() ** (1.0 / p))
    loc, miss, false, switch = (float(v ** (1.0 / p)) for v in scaled)
    return MetricBreakdown(total, loc, miss, false, switch)
