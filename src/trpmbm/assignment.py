"""Optimal and k-best assignment over rectangular cost matrices.

Rows are measurements, columns are association targets; every row must be
assigned to exactly one column, one column takes at most one row (rows <=
columns).  Forbidden pairs carry np.inf.  The k-best enumeration (Murty)
uses binary-partition subproblems around each extracted solution, each
solved with the C assignment solver from scipy.  A subproblem is solved
only when a cheap lower bound on its optimum (each free row at its
cheapest allowed column, the row-minimum relaxation) reaches the front of
the queue, so most subproblems behind the last returned solution are never
solved (Miller, Stone & Cox, "Optimizing Murty's ranked assignment
method", IEEE TAES 1997).
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np
from scipy.optimize import linear_sum_assignment


class InfeasibleAssignmentError(ValueError):
    """No complete assignment of rows to columns exists."""


def _solve(cost: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Best assignment of a matrix, or None when infeasible."""
    if cost.shape[0] == 0:
        return np.zeros(0, dtype=int), 0.0
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return None
    total = cost[rows, cols]
    if not np.isfinite(total).all():
        return None
    assignment = np.empty(cost.shape[0], dtype=int)
    assignment[rows] = cols
    return assignment, float(total.sum())


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost one-to-one assignment of every row to a column.

    Returns (assignment, cost) where assignment[r] is the column of row r.
    Raises InfeasibleAssignmentError if some row cannot be covered, naming
    a blocked row when one has no finite entry at all.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {cost.shape}")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns ({n_rows} > {n_cols})")
    result = _solve(cost)
    if result is None:
        blocked = np.flatnonzero(~np.isfinite(cost).any(axis=1))
        if blocked.size:
            raise InfeasibleAssignmentError(f"row {blocked[0]} has no finite entry")
        raise InfeasibleAssignmentError(
            "rows cannot be jointly assigned to distinct columns"
        )
    return result


@functools.lru_cache(maxsize=64)
def _below_diagonal(n: int) -> np.ndarray:
    """Read-only mask of the entries (i, t) with i > t of an n x n matrix."""
    mask = np.tri(n, n, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _child_bounds(
    matrix: np.ndarray, sub: np.ndarray, fixed_cost: float
) -> np.ndarray:
    """Lower bounds on the children of a node's best assignment ``sub``.

    Child t pins rows i < t to sub[i], forbids sub[t] to row t and leaves
    the later rows free over the columns not pinned.  Its optimum is at
    least the pinned cost plus, for row t, the cheapest column outside
    sub[:t+1] and, for every later row, the cheapest column outside
    sub[:t] (each row on its own, columns shared).  With the columns
    reordered as sub followed by the unused ones, those minima are suffix
    minima of each row, so all n bounds cost O(n * columns).  The bounds
    are lowered by a small relative margin so that rounding can never lift
    one above the total its child is solved to; inf marks an infeasible
    child.
    """
    n = len(sub)
    unused = np.ones(matrix.shape[1], dtype=bool)
    unused[sub] = False
    # columns in the order sub, then the unused ones, then one inf column;
    # suffix_min[i, j] is the cheapest entry of row i in columns >= j
    permuted = np.concatenate(
        [matrix[:, sub], matrix[:, unused], np.full((n, 1), np.inf)], axis=1
    )
    suffix_min = np.minimum.accumulate(permuted[:, ::-1], axis=1)[:, ::-1]
    chosen = permuted.diagonal()  # matrix[i, sub[i]]
    own = suffix_min.diagonal(1)
    later = np.where(_below_diagonal(n), suffix_min[:, :n], 0.0)
    bounds = fixed_cost + (np.cumsum(chosen) - chosen) + own + later.sum(axis=0)
    scale = abs(fixed_cost) + np.cumsum(np.abs(chosen)) + np.abs(own)
    scale += np.abs(later).sum(axis=0)
    finite = np.isfinite(bounds)
    bounds[finite] -= 1e-9 * scale[finite]
    return bounds


_SOLVED, _TURNS, _BOUNDED = 0, 1, 2


def murty_kbest(cost: np.ndarray, K: int) -> list[tuple[np.ndarray, float]]:
    """The min(K, #feasible) cheapest assignments in nondecreasing cost order.

    The first entry equals hungarian(cost).  Nodes partition the solution
    space on the best assignment's row order, so no duplicates can occur.

    The queue replays the plain method, in which an extracted node's
    children take their turns in row order right away (keyed by the
    node's total) and each is solved on its turn.  Here a child's turn
    only queues it under its lower bound (``_child_bounds``); it is solved
    (on a matrix shrunk by the pinned rows and columns) when that bound
    surfaces, and never when the bound is infinite.  Queue order numbers
    (the tiebreak between equal keys) are handed out in the plain method's
    order, and a turn whose bound lies below the node's total ends the run
    of turns, because that child could come out before the next turn.  So
    the solutions and their order, ties included, are those of the plain
    method.

    Solved nodes live in a table: per node, the pinned rows' cost, the
    matrix of the free rows over the free columns (a copy: a child forbids
    one entry of it), those rows' and columns' indices in ``cost``, a
    full-length assignment holding the pinned rows' columns and the best
    assignment of the free rows; an extracted node's children's bounds are
    kept by node.  A queue entry is ``(key, order, kind, node, turn)``:

    * ``_SOLVED``: key is the node's total;
    * ``_TURNS``: key is the node's total, turn its next child;
    * ``_BOUNDED``: key is the bound of child ``turn`` of the node.
    """
    cost = np.asarray(cost, dtype=float)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    n_rows, n_cols = cost.shape
    first = hungarian(cost)
    if K == 1 or n_rows == 0:
        return [first]

    out: list[tuple[np.ndarray, float]] = []
    # (fixed_cost, matrix, rows, cols, pinned, sub) per node; node 0 is the root
    root = (0.0, cost, np.arange(n_rows), np.arange(n_cols), np.empty(n_rows, dtype=int), first[0])
    nodes, bounds = [root], {}
    heap = [(first[1], 0, _SOLVED, 0, 0)]
    handed_out = 1  # queue order numbers used so far

    while heap and len(out) < K:
        key, order, kind, node, turn = heapq.heappop(heap)
        if kind == _SOLVED:
            fixed_cost, matrix, rows, cols, pinned, sub = nodes[node]
            full = pinned.copy()
            full[rows] = cols[sub]
            out.append((full, key))
            if len(out) == K:
                break
            bounds[node] = _child_bounds(matrix, sub, fixed_cost).tolist()
            heapq.heappush(heap, (key, handed_out, _TURNS, node, 0))
            handed_out += len(sub)
        elif kind == _TURNS:
            node_bounds = bounds[node]
            for t in range(turn, len(node_bounds)):
                bound = node_bounds[t]
                if bound == math.inf:
                    continue
                heapq.heappush(heap, (bound, handed_out, _BOUNDED, node, t))
                handed_out += 1
                if bound < key and t + 1 < len(node_bounds):
                    heapq.heappush(heap, (key, order + t + 1 - turn, _TURNS, node, t + 1))
                    break
        else:
            fixed_cost, matrix, rows, cols, pinned, sub = nodes[node]
            t = turn
            col_mask = np.ones(len(cols), dtype=bool)
            col_mask[sub[:t]] = False
            child = matrix[t:][:, col_mask]
            child[0, int(col_mask[: sub[t]].sum())] = np.inf
            best = _solve(child)
            if best is None:
                continue
            child_pinned = pinned.copy()
            child_pinned[rows[:t]] = cols[sub[:t]]
            child_fixed_cost = fixed_cost + float(matrix[np.arange(t), sub[:t]].sum())
            nodes.append((child_fixed_cost, child, rows[t:], cols[col_mask], child_pinned, best[0]))
            heapq.heappush(heap, (child_fixed_cost + best[1], order, _SOLVED, len(nodes) - 1, 0))
    return out
