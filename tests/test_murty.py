"""The bounded Murty k-best against the every-child reference."""

import numpy as np
import pytest

import trpmbm.assignment
from trpmbm.assignment import murty_kbest
from oracles import murty_every_child


def _association_matrix(rng, n_rows, ties=False):
    """A cost matrix shaped like the ones ``form_hypotheses`` builds.

    A sparse gated block (measurements x detectable hypotheses, inf where
    the gate failed) sits next to a diagonal new-tree block.  Some rows gate
    nothing, so only their new-tree column is open.  With ``ties``, costs
    are multiples of 0.1 and some rows repeat an earlier one, as co-located
    measurements do: many totals then tie, and sums of the same terms in
    another order round apart.
    """
    n_gated = int(rng.integers(0, n_rows + 4))
    gated = rng.normal(size=(n_rows, n_gated)) * 3
    gated[rng.random(size=gated.shape) < rng.uniform(0.3, 0.9)] = np.inf
    forced = rng.random(n_rows) < 0.2
    gated[forced] = np.inf
    new_tree = np.full((n_rows, n_rows), np.inf)
    np.fill_diagonal(new_tree, rng.normal(size=n_rows) * 3 + 2)
    C = np.hstack([gated, new_tree])
    if not ties:
        return C
    C = np.round(10 * C) / 10
    for i in range(1, n_rows):
        if rng.random() < 0.2:
            j = int(rng.integers(0, i))
            C[i, :n_gated] = C[j, :n_gated]
            C[i, n_gated + i] = C[j, n_gated + j]
    return C


def _counting(monkeypatch):
    calls = [0]
    solve = trpmbm.assignment.linear_sum_assignment

    def counted(cost):
        calls[0] += 1
        return solve(cost)

    monkeypatch.setattr(trpmbm.assignment, "linear_sum_assignment", counted)
    return calls


def test_murty_matches_every_child_reference(monkeypatch):
    calls = _counting(monkeypatch)
    rng = np.random.default_rng(5)
    ours = theirs = 0
    for trial in range(150):
        n_rows = int(rng.integers(1, 26))
        C = _association_matrix(rng, n_rows, ties=trial % 3 == 2)
        K = int(rng.integers(1, 101))
        calls[0] = 0
        want = murty_every_child(C, K)
        theirs += calls[0]
        reference_calls = calls[0]
        calls[0] = 0
        got = murty_kbest(C, K)
        ours += calls[0]
        assert calls[0] <= reference_calls, trial
        assert len(got) == len(want), trial
        for (ga, gc), (wa, wc) in zip(got, want):
            assert np.array_equal(ga, wa), trial
            assert gc == wc, trial
    # the bound leaves most children unsolved
    assert ours * 2 < theirs


def test_murty_infeasible_children_are_skipped(monkeypatch):
    # every row has one open column: the best assignment is the only one
    calls = _counting(monkeypatch)
    C = np.full((4, 7), np.inf)
    C[np.arange(4), [5, 0, 2, 6]] = [1.0, -2.0, 0.5, 3.0]
    out = murty_kbest(C, 10)
    assert len(out) == 1
    assert list(out[0][0]) == [5, 0, 2, 6] and out[0][1] == 2.5
    assert calls[0] == 1
    # rows competing for one column beyond the first
    C = np.array([[0.0, 1.0, np.inf], [np.inf, 0.0, np.inf], [2.0, np.inf, 0.0]])
    want = murty_every_child(C, 10)
    got = murty_kbest(C, 10)
    assert [(list(a), c) for a, c in got] == [(list(a), c) for a, c in want]


@pytest.mark.parametrize("K", [1, 2, 7])
def test_murty_exact_ties_keep_reference_order(K):
    # identical rows and columns: many assignments share one total
    C = np.array([[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 5.0]])
    got = murty_kbest(C, K)
    want = murty_every_child(C, K)
    assert [(list(a), c) for a, c in got] == [(list(a), c) for a, c in want]


@pytest.mark.parametrize("K", [1, 2, 50])
def test_murty_leaves_the_cost_alone_and_returns_separate_assignments(K):
    # a node that viewed its parent's matrix instead of copying it would
    # write a child's forbidden entry into the caller's matrix
    rng = np.random.default_rng(23)
    for trial in range(60):
        C = _association_matrix(rng, int(rng.integers(1, 16)), ties=True)
        before = C.copy()
        got = [a for a, _ in murty_kbest(C, K)]
        assert C.tobytes() == before.tobytes(), trial
        for i, a in enumerate(got):
            assert not np.shares_memory(a, C), trial
            assert not any(np.shares_memory(a, b) for b in got[i + 1 :]), trial
