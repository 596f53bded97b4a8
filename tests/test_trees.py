import numpy as np
import pytest

from trpmbm.trees import (
    Branch,
    GenealogyError,
    TreeTrajectory,
    branch_length,
    enumerate_branch_ids,
    genealogy_for,
    max_branch_length,
    max_branches,
    parse_trees,
    targets_at_time,
    trees_to_text,
    unique_id,
    validate_genealogy,
    validate_tree,
)


def test_branch_length_reference_values():
    assert branch_length((1, 1, 1, 0, 0, 0)) == 3
    assert branch_length((1, 2, 1, 1, 1, 1)) == 5
    assert branch_length((1, 2, 1, 1, 2, 1)) == 2
    assert branch_length((1,)) == 1


def test_branch_length_rejects_bad_genealogies():
    with pytest.raises(GenealogyError):
        branch_length(())
    with pytest.raises(GenealogyError):
        branch_length((2, 1))
    with pytest.raises(GenealogyError):
        branch_length((1, 0, 1))  # revives after death
    with pytest.raises(GenealogyError):
        branch_length((1, 4), n_modes=3)


def test_unique_id():
    assert unique_id((1, 2, 1, 1, 2, 1)) == (1, 2, 1, 1, 2)
    assert unique_id((1, 1, 1, 0, 0)) == (1,)
    assert unique_id((1,)) == (1,)


def test_max_branches():
    assert max_branches(1, 7) == 1
    assert max_branches(2, 3) == 3
    assert max_branches(6, 3) == 243
    # arbitrary-precision integers: a horizon-sized count does not overflow
    assert max_branches(100, 3) == 3**99
    with pytest.raises(ValueError):
        max_branches(0, 3)
    with pytest.raises(ValueError):
        max_branches(3, 0)


def test_enumerate_branch_ids_small():
    assert list(enumerate_branch_ids(2, 3)) == [(1,), (1, 2), (1, 3)]


def test_enumerate_branch_ids_is_lazy():
    it = enumerate_branch_ids(60, 3)  # 3**59 ids: must not materialise
    assert next(it) == (1,)
    assert next(it) is not None


@pytest.mark.parametrize("nu,rho", [(1, 3), (2, 2), (3, 3), (5, 2), (6, 3)])
def test_enumeration_count_and_order(nu, rho):
    ids = list(enumerate_branch_ids(nu, rho))
    assert len(ids) == max_branches(nu, rho)
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_reference_genealogy_reconstruction():
    # spawned at generation 5, alive one or two steps
    assert max_branch_length(6, (1, 2, 1, 1, 2)) == 2
    assert genealogy_for(6, (1, 2, 1, 1, 2), 1) == (1, 2, 1, 1, 2, 0)
    assert genealogy_for(6, (1, 2, 1, 1, 2), 2) == (1, 2, 1, 1, 2, 1)
    assert max_branch_length(6, (1,)) == 6
    assert genealogy_for(3, (1,), 2) == (1, 1, 0)


@pytest.mark.parametrize("nu,rho", [(3, 2), (4, 3), (5, 2)])
def test_id_length_roundtrip(nu, rho):
    for bid in enumerate_branch_ids(nu, rho):
        lmax = max_branch_length(nu, bid)
        assert 1 <= lmax <= nu
        for length in range(1, lmax + 1):
            marks = genealogy_for(nu, bid, length)
            assert branch_length(marks) == length
            assert unique_id(marks) == bid


def _example_tree():
    return TreeTrajectory(
        1,
        [
            Branch((1, 1, 1, 0, 0, 0), np.zeros((3, 4))),
            Branch((1, 2, 1, 1, 1, 1), np.ones((5, 4))),
            Branch((1, 2, 1, 1, 2, 1), np.full((2, 4), 2.0)),
        ],
    )


def test_validate_tree_accepts_reference_tree():
    assert validate_tree(_example_tree(), n_modes=3) == []


def test_validate_tree_reports_orphan_spawn():
    tree = TreeTrajectory(1, [Branch((1, 2, 1), np.zeros((2, 4)))])
    report = validate_tree(tree)
    assert any("no parent" in r for r in report)
    assert any("main branch" in r for r in report)


def test_validate_tree_reports_duplicate_ids():
    tree = TreeTrajectory(
        1,
        [
            Branch((1, 1, 1), np.zeros((3, 4))),
            Branch((1, 1, 0), np.zeros((2, 4))),
        ],
    )
    report = validate_tree(tree)
    assert any("duplicate id" in r for r in report)


def test_validate_tree_reports_length_mismatch():
    tree = TreeTrajectory(1, [Branch((1, 1), np.zeros((3, 4)))])
    assert any("states" in r for r in validate_tree(tree))


def test_validate_tree_reports_non_finite_states():
    states = np.array([[0.0, 1.0, 0.0, 1.0], [np.inf, 1.0, 0.0, 1.0], [np.nan] * 4])
    tree = TreeTrajectory(1, [Branch((1, 1, 1), states)])
    assert validate_tree(tree) == ["branch 0: states must be finite"]


def test_targets_at_time():
    dead = TreeTrajectory(4, [Branch((1, 1, 0), np.array([[1.0] * 4, [2.0] * 4]))])
    assert targets_at_time(dead, 6) == []
    got = targets_at_time(dead, 5)
    assert len(got) == 1 and got[0][0] == 2.0
    with pytest.raises(ValueError):
        targets_at_time(dead, 7)
    with pytest.raises(ValueError):
        targets_at_time(dead, 3)

    tree = _example_tree()
    at_end = targets_at_time(tree, 6)
    assert len(at_end) == 2  # the first branch died at generation 3
    # a spawned branch owns no state before its spawning generation
    at_start = targets_at_time(tree, 1)
    assert len(at_start) == 1


def test_spawned_branch_state_window():
    tree = TreeTrajectory(10, [Branch((1, 1, 1), np.array([[i] * 4 for i in range(3)], float))])
    spawned = TreeTrajectory(
        10,
        [
            Branch((1, 1, 1), np.array([[i] * 4 for i in range(3)], float)),
            Branch((1, 2, 1), np.array([[7.0] * 4, [8.0] * 4])),
        ],
    )
    assert len(targets_at_time(tree, 10)) == 1
    vals = sorted(x[0] for x in targets_at_time(spawned, 11))
    assert vals == [1.0, 7.0]


def test_text_roundtrip():
    trees = [_example_tree(), TreeTrajectory(2, [Branch((1, 1, 1, 1, 0), np.random.default_rng(0).normal(size=(4, 4)))])]
    text = trees_to_text(trees)
    back = parse_trees(text)
    assert len(back) == 2
    for a, b in zip(trees, back):
        assert a.start_time == b.start_time
        for x, y in zip(a.branches, b.branches):
            assert x.genealogy == y.genealogy
            assert np.array_equal(x.states, y.states)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_trees("3; 1,1\n")
    with pytest.raises(ValueError):
        parse_trees("3; 1; 0 0 0 0\n4; 1; 0 0 0 0\n")  # mixed start times, one block


def test_validate_genealogy_bounds():
    assert validate_genealogy([1, 2, 0]) == (1, 2, 0)
    with pytest.raises(GenealogyError):
        validate_genealogy([1, -1])


def test_sampled_trees_satisfy_constraints():
    from trpmbm.models import default_scenario, sample_ground_truth
    from dataclasses import replace

    cfg = replace(default_scenario(), horizon=60)
    total = 0
    for seed in range(260):
        for tree in sample_ground_truth(cfg, seed=seed):
            assert validate_tree(tree, cfg.n_modes) == []
            total += 1
    assert total >= 1000
