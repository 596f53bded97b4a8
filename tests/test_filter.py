import json
import math
from dataclasses import replace

import numpy as np
import pytest

from trpmbm import filter as flt
from trpmbm.filter import (
    BernoulliTree,
    BranchSlot,
    LocalHyp,
    Posterior,
    check_posterior,
    estimate,
    form_hypotheses,
    initial_posterior,
    posterior_to_dict,
    predict,
    prune,
    step,
    update,
)
from trpmbm.gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    PPPComponent,
)
from trpmbm.models import default_scenario, no_spawning, sample_ground_truth, sample_measurement_sequence
from trpmbm.trees import targets_at_time

from oracles import gauss_logpdf, innovation_one
from tables import posterior

CFG = default_scenario()


def _component(mean, scale=1.0):
    mean = np.asarray(mean, dtype=float)
    n = len(mean)
    return GaussianBranchComponent(mean, scale * np.eye(n), 4)


def ppp_predict(ppp, cfg, k):
    """``predict`` on a posterior with intensity terms only: the
    survival-thinned terms, then the births."""
    empty = Posterior(k - 1, ppp, (), np.zeros(1), np.zeros((1, 0), dtype=np.int32))
    return predict(empty, cfg).ppp


def _predict_tree(tree, cfg, k):
    """``predict`` on a one-tree posterior: the advanced tree and, for each
    appended slot, the slot it was spawned from (read off the copied
    columns of a row that holds each slot's own index)."""
    row = np.arange(len(tree.slots), dtype=np.int32)[None]
    pred = predict(Posterior(k - 1, (), (tree,), np.zeros(1), row), cfg)
    return pred.trees[0], pred.sel[0, len(tree.slots) :].tolist()


def _one_branch_tree(r, beta_cases, start=1, log_w=0.0, assoc=frozenset()):
    density = BranchDensity(beta_cases)
    slot = BranchSlot((1,), (LocalHyp(log_w, r, density, assoc),))
    return BernoulliTree(start, (slot,))


def test_ppp_predict_thins_and_adds_birth():
    comp = PPPComponent(0.0, 1, _component(np.zeros(4)))
    out = ppp_predict((comp,), CFG, 2)[:1]  # the thinned term precedes the births
    assert math.exp(out[0].log_weight) == pytest.approx(0.99, abs=1e-12)

    births = ppp_predict((), CFG, 5)
    assert len(births) == 1
    assert math.exp(births[0].log_weight) == pytest.approx(0.08, abs=1e-12)
    assert births[0].start_time == 5


def test_trmbm_prediction_keeps_intensity_empty():
    post = initial_posterior()
    pred = predict(post, CFG, kind="trmbm")
    assert pred.ppp == ()
    assert len(pred.trees) == 1  # the birth Bernoulli tree
    assert pred.trees[0].slots[0].hyps[0].r == pytest.approx(0.08)
    assert all(g.selection[-1] == (0,) for g in pred.hypotheses)


def test_tree_predict_beta_split_and_spawn():
    cases = {2: EndCase(1.0, _component(np.array([0.0, 1.0, 0.0, 1.0])))}
    tree = _one_branch_tree(0.8, cases, start=1)
    out, parents = _predict_tree(tree, CFG, 3)
    assert parents == [0, 0]
    surv = out.slots[0].hyps[0]
    assert surv.r == 0.8
    assert surv.density.beta(2) == pytest.approx(0.01, abs=1e-12)
    assert surv.density.beta(3) == pytest.approx(0.99, abs=1e-12)
    # two spawning modes, slot ids extend the parent's alive marks
    assert [s.branch_id for s in out.slots] == [(1,), (1, 1, 2), (1, 1, 3)]
    for mode_slot in out.slots[1:]:
        h = mode_slot.hyps[0]
        assert h.r == pytest.approx(0.8 * 0.01 * 1.0, abs=1e-15)
        case = h.density.components[3]
        assert case.beta == 1.0
        assert list(h.density.components) == [3] and case.comp.length == 1


def test_tree_predict_spawned_existence_formula():
    cases = {
        1: EndCase(0.5, _component(np.zeros(4))),
        2: EndCase(0.5, _component(np.array([0.0, 1.0, 0.0, 1.0]))),
    }
    tree = _one_branch_tree(0.8, cases)
    out, _ = _predict_tree(tree, CFG, 3)
    assert out.slots[1].hyps[0].r == pytest.approx(0.8 * 0.01 * 0.5, abs=1e-15)


def test_frozen_branch_spawns_nothing():
    # all end-time mass strictly before the previous step: no spawn slots
    cases = {1: EndCase(1.0, _component(np.zeros(4)))}
    tree = _one_branch_tree(0.9, cases)
    out, parents = _predict_tree(tree, CFG, 3)
    assert parents == []
    assert len(out.slots) == 1
    assert out.slots[0].hyps[0] is tree.slots[0].hyps[0]


def test_predict_hands_back_the_trees_it_does_not_move():
    # at step 3: a tree that ended at step 2, a tree whose only end case at
    # step 3 has beta 0, and a live tree
    ended = _one_branch_tree(0.9, {2: EndCase(1.0, _component(np.zeros(4)))})
    dead_end = _one_branch_tree(
        0.9,
        {
            2: EndCase(1.0, _component(np.zeros(4))),
            3: EndCase(0.0, _component(np.array([0.0, 1.0, 0.0, 1.0]))),
        },
    )
    live = _one_branch_tree(0.8, {3: EndCase(1.0, _component(np.array([5.0, 1.0, 5.0, 1.0])))})
    post = posterior(3, (), (ended, dead_end, live), (0.0, ((0,), (0,), (0,))))
    out = predict(post, CFG)
    assert out.trees[0] is ended
    assert out.trees[1] is dead_end
    assert out.trees[2] is not live
    assert [s.branch_id for s in out.trees[2].slots] == [(1,), (1, 1, 1, 2), (1, 1, 1, 3)]
    assert out.sel.tolist() == [[0, 0, 0, 0, 0]]
    assert check_posterior(out) == []


def test_update_missed_detection_reference_values():
    tree = _one_branch_tree(0.5, {1: EndCase(1.0, _component([300.0, 3, 170, 1]))})
    post = posterior(1, (), (tree,), (0.0, ((0,),)))
    upd, maps = update(post, np.zeros((0, 2)), CFG)
    h = upd.trees[0].slots[0].hyps[0]
    assert math.exp(h.log_w) == pytest.approx(0.55, abs=1e-12)
    assert h.r == pytest.approx(0.05 / 0.55, abs=1e-12)
    assert (maps.col.tolist(), maps.hyp.tolist()) == ([0], [0])
    assert maps.log_miss[0] == pytest.approx(math.log(0.55), abs=1e-12)


def test_update_detection_confirms_existence():
    comp = _component([300.0, 3, 170, 1])
    tree = _one_branch_tree(0.5, {1: EndCase(1.0, comp)})
    post = posterior(1, (), (tree,), (0.0, ((0,),)))
    z = np.array([[300.0, 170.0]])
    upd, maps = update(post, z, CFG)
    assert (maps.col.tolist(), maps.hyp.tolist()) == ([0], [0])
    assert maps.child[0, 0] >= 0
    # formation builds the detected hypothesis that a row picks
    formed = form_hypotheses(upd, maps, 1, CFG)
    det = formed.trees[0].slots[0].hyps[formed.sel[:, 0].max()]
    assert det.r == 1.0
    assert det.density.beta(1) == 1.0
    assert det.assoc == {(1, 0)}
    # detected weight = w * r * beta * pD * N(z)
    zhat, S = innovation_one(comp, CFG.measurement.H, CFG.measurement.R)
    want = math.log(0.5) + math.log(0.9) + gauss_logpdf(z[0], zhat, S)
    assert det.log_w == pytest.approx(want, abs=1e-9)


def test_update_weight_identity():
    # missed + sum(detected) == w (1 - r beta pD) + w r beta pD sum N(z)
    rng = np.random.default_rng(4)
    comp = _component([295.0, 3, 168, 1])
    w, r = 0.37, 0.81
    tree = _one_branch_tree(r, {1: EndCase(1.0, comp)}, log_w=math.log(w))
    post = posterior(1, (), (tree,), (0.0, ((0,),)))
    Z = np.array([[295.0, 168.0], [301.0, 166.0], [900.0, 900.0]])
    upd, maps = update(post, Z, CFG)
    # formation builds the detected hypotheses that rows pick: here both
    # gated ones, behind the missed one
    slot = form_hypotheses(upd, maps, len(Z), CFG).trees[0].slots[0]
    missed_w = math.exp(slot.hyps[0].log_w)
    det_ws = [
        math.exp(h.log_w)
        for h in slot.hyps[len(upd.trees[0].slots[0].hyps) :]
    ]
    zhat, S = innovation_one(comp, CFG.measurement.H, CFG.measurement.R)
    gated_lik = sum(
        math.exp(gauss_logpdf(z, zhat, S))
        for z in Z
        if (z - zhat) @ np.linalg.solve(S, z - zhat) <= CFG.filters.gate
    )
    lhs = missed_w + sum(det_ws)
    rhs = w * (1 - r * 0.9) + w * r * 0.9 * gated_lik
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert len(det_ws) == 2  # the far measurement is outside the gate


def test_update_near_singular_innovation_stays_finite():
    # exact position knowledge and a vanishing R: S underflows to a singular
    # matrix, and the jitter policy must hold for gating and the gain alike
    cfg = replace(CFG, measurement=replace(CFG.measurement, R=1e-200 * np.eye(2)))
    comp = GaussianBranchComponent(np.array([300.0, 3, 170, 1]), np.diag([0.0, 1, 0, 1]), 4)
    tree = _one_branch_tree(0.5, {1: EndCase(1.0, comp)})
    ppp = (PPPComponent(math.log(0.08), 1, comp),)
    post = posterior(1, ppp, (tree,), (0.0, ((0,),)))
    z = np.array([[300.0, 170.0]])
    upd, maps = update(post, z, cfg)
    assert (maps.col.tolist(), maps.hyp.tolist()) == ([0], [0])
    assert maps.child[0, 0] >= 0
    for t in upd.trees:
        for h in t.slots[0].hyps:
            if h.density is not None:
                c = h.density.components[1].comp
                assert np.isfinite(c.mean).all() and np.isfinite(c.cov).all()
    assert check_posterior(form_hypotheses(upd, maps, 1, cfg), current_step_measurements=1) == []


def test_update_new_tree_existence_ratio():
    birth = ppp_predict((), CFG, 1)
    post = posterior(1, birth, (), (0.0, ()))
    z = np.array([[300.0, 170.0]])
    upd, maps = update(post, z, CFG)
    assert len(upd.trees) == 1
    hyp0, hyp1 = upd.trees[0].slots[0].hyps
    assert hyp0.r == 0.0 and hyp0.log_w == 0.0
    comp = birth[0].comp
    zhat, S = innovation_one(comp, CFG.measurement.H, CFG.measurement.R)
    mass = 0.08 * 0.9 * math.exp(gauss_logpdf(z[0], zhat, S))
    clutter = CFG.measurement.clutter_density
    assert math.exp(hyp1.log_w) == pytest.approx(clutter + mass, rel=1e-12)
    assert hyp1.r == pytest.approx(mass / (clutter + mass), rel=1e-12)
    assert maps.new_tree_logw[0] == pytest.approx(math.log(clutter + mass), abs=1e-9)
    # intensity is thinned by the missed-detection probability
    assert upd.ppp[0].log_weight == pytest.approx(
        birth[0].log_weight + math.log(0.1), abs=1e-12
    )


def test_form_hypotheses_no_measurements_single_child():
    tree = _one_branch_tree(0.5, {1: EndCase(1.0, _component([300.0, 3, 170, 1]))})
    parents = (
        (math.log(0.7), ((0,),)),
        (math.log(0.3), ((0,),)),
    )
    post = posterior(1, (), (tree,), *parents)
    upd, maps = update(post, np.zeros((0, 2)), CFG)
    formed = form_hypotheses(upd, maps, 0, CFG)
    # identical selections merge; weights stay normalised
    assert len(formed.hypotheses) == 1
    assert formed.hypotheses[0].log_w == pytest.approx(0.0, abs=1e-12)


def test_form_hypotheses_detection_vs_new_tree():
    tree = _one_branch_tree(0.5, {1: EndCase(1.0, _component([300.0, 3, 170, 1]))})
    post = posterior(1, (), (tree,), (0.0, ((0,),)))
    z = np.array([[300.0, 170.0]])
    upd, maps = update(post, z, CFG)
    formed = form_hypotheses(upd, maps, 1, CFG)
    assert 1 <= len(formed.hypotheses) <= 2
    total = sum(math.exp(g.log_w) for g in formed.hypotheses)
    assert total == pytest.approx(1.0, abs=1e-12)
    # selections cover: measurement on the branch, or on the new tree
    sels = {g.selection for g in formed.hypotheses}
    assert ((1,), (1,)) in sels or ((1,), (0,)) in sels


def test_form_hypotheses_weights_match_event_enumeration():
    # one branch with two gated measurements: the three children are
    # (missed, detect z0, detect z1); weights follow the event products
    comp = _component([300.0, 3, 170, 1])
    w, r = 1.0, 0.6
    tree = _one_branch_tree(r, {2: EndCase(1.0, comp)}, start=1)
    post = posterior(2, (), (tree,), (0.0, ((0,),)))
    Z = np.array([[299.0, 170.5], [302.0, 169.0]])
    upd, maps = update(post, Z, CFG)
    formed = form_hypotheses(upd, maps, 2, CFG)

    p_d = CFG.measurement.p_detect
    clutter = CFG.measurement.clutter_density
    zhat, S = innovation_one(comp, CFG.measurement.H, CFG.measurement.R)
    lik = [math.exp(gauss_logpdf(z, zhat, S)) for z in Z]
    miss = 1 - r * p_d
    events = {
        "miss": miss * clutter * clutter,
        "det0": r * p_d * lik[0] * clutter,
        "det1": r * p_d * lik[1] * clutter,
    }
    total = sum(events.values())
    got = sorted(math.exp(g.log_w) for g in formed.hypotheses)
    want = sorted(v / total for v in events.values())
    assert got == pytest.approx(want, rel=1e-9)


def test_hypothesis_budget_follows_parent_weight():
    comp = _component([300.0, 3, 170, 1])
    tree = _one_branch_tree(0.6, {2: EndCase(1.0, comp)}, start=1)
    cfg1 = replace(CFG, filters=replace(CFG.filters, n_hyp=1))
    post = posterior(2, (), (tree,), (0.0, ((0,),)))
    Z = np.array([[299.0, 170.5], [302.0, 169.0]])
    upd, maps = update(post, Z, cfg1)
    formed = form_hypotheses(upd, maps, 2, cfg1)
    assert len(formed.hypotheses) == 1  # ceil(1 * weight 1) = 1 child
    assert formed.hypotheses[0].log_w == pytest.approx(0.0, abs=1e-12)


def test_prune_wide_open_thresholds_keep_everything():
    cfg = replace(
        CFG,
        filters=replace(
            CFG.filters,
            gamma_mbm=1e-300,
            gamma_bern=1e-300,
            gamma_ppp=1e-300,
            gamma_alive=1e-300,
            n_hyp=10**6,
        ),
    )
    tree = _one_branch_tree(0.5, {2: EndCase(1.0, _component([300.0, 3, 170, 1]))})
    post = posterior(
        2,
        ppp_predict((), cfg, 2),
        (tree,),
        (math.log(0.6), ((0,),)),
        (math.log(0.4), ((0,),)),
    )
    out = prune(post, cfg)
    assert len(out.ppp) == 1
    assert len(out.trees) == 1
    # identical selections merged, weight renormalised to one
    assert len(out.hypotheses) == 1
    assert out.hypotheses[0].log_w == pytest.approx(0.0, abs=1e-12)


def test_prune_freezes_small_alive_mass():
    cases = {
        1: EndCase(0.9999, _component([1.0, 0, 1, 0])),
        2: EndCase(0.0001 - 1e-9, _component([1.0, 0, 1, 0, 1, 0, 1, 0])),
    }
    cases[2] = EndCase(5e-5, cases[2].comp)
    cases[1] = EndCase(1 - 5e-5, cases[1].comp)
    tree = _one_branch_tree(0.9, cases)
    post = posterior(2, (), (tree,), (0.0, ((0,),)))
    out = prune(post, CFG)
    h = out.trees[0].slots[0].hyps[0]
    assert 2 not in h.density.components
    assert h.density.beta_total() == pytest.approx(1.0, abs=1e-12)
    # frozen branches then spawn nothing on the next prediction
    moved, parents = _predict_tree(out.trees[0], CFG, 3)
    assert parents == []


def test_prune_drops_zero_existence_slots_and_remaps():
    alive = _one_branch_tree(0.9, {1: EndCase(1.0, _component([1.0, 0, 1, 0]))})
    dead_slot = BranchSlot((1,), (LocalHyp(0.0, 1e-9, None, frozenset()),))
    doomed = BernoulliTree(1, (dead_slot,))
    post = posterior(
        1,
        (),
        (alive, doomed),
        (0.0, ((0,), (0,))),
    )
    out = prune(post, CFG)
    assert len(out.trees) == 1
    assert out.hypotheses[0].selection == ((0,),)


def test_prune_remaps_two_slot_tree_and_merges_equal_selections():
    density = BranchDensity({1: EndCase(1.0, _component([1.0, 0, 1, 0]))})
    live = tuple(LocalHyp(-float(bi), 0.9, density, frozenset()) for bi in range(5))
    # every referenced hypothesis of slot 1 has r = 0 once pruned (index 2 is
    # below gamma_bern); the unreferenced index 1 is alive and does not count
    dead = (
        LocalHyp(0.0, 0.0, None, frozenset()),
        LocalHyp(0.0, 0.5, density, frozenset()),
        LocalHyp(0.0, 5e-5, density, frozenset()),
    )
    two_slot = BernoulliTree(1, (BranchSlot((1,), live), BranchSlot((1, 2), dead)))
    one_slot = BernoulliTree(1, (BranchSlot((1,), live[:3]),))
    post = posterior(
        2,
        (),
        (two_slot, one_slot),
        (math.log(0.4), ((1, 0), (0,))),
        (math.log(0.35), ((3, 2), (2,))),
        (math.log(0.25), ((3, 0), (2,))),
    )
    out = prune(post, CFG)
    assert [len(t.slots) for t in out.trees] == [1, 1]
    assert [h.log_w for h in out.trees[0].slots[0].hyps] == [-1.0, -3.0]
    assert [h.log_w for h in out.trees[1].slots[0].hyps] == [0.0, -2.0]
    # the last two hypotheses differ only in the dropped slot: they merge,
    # and the merged one leads although its selection sorts last
    assert [g.selection for g in out.hypotheses] == [((1,), (1,)), ((0,), (0,))]
    assert math.exp(out.hypotheses[0].log_w) == pytest.approx(0.6, abs=1e-12)
    assert math.exp(out.hypotheses[1].log_w) == pytest.approx(0.4, abs=1e-12)
    assert check_posterior(out) == []


def test_prune_hands_back_settled_trees_and_rebuilds_shrunk_slots():
    # both trees ended at step 1, so the alive-end cut at step 2 leaves them
    # alone; every hypothesis of the first tree is referenced by some row,
    # but the second tree's hypothesis 1 by none
    density = BranchDensity({1: EndCase(1.0, _component([1.0, 0, 1, 0]))})
    hyps = (LocalHyp(0.0, 0.9, density, frozenset()), LocalHyp(-1.0, 0.8, density, frozenset()))
    settled = BernoulliTree(1, (BranchSlot((1,), hyps),))
    shrinking = BernoulliTree(1, (BranchSlot((1,), hyps),))
    post = posterior(
        2,
        (),
        (settled, shrinking),
        (math.log(0.6), ((0,), (0,))),
        (math.log(0.4), ((1,), (0,))),
    )
    out = prune(post, CFG)
    assert out.trees[0] is settled
    assert out.trees[1] is not shrinking
    assert out.trees[1].slots[0] is not shrinking.slots[0]
    assert out.trees[1].slots[0].hyps[0] is hyps[0]
    assert len(out.trees[1].slots[0].hyps) == 1
    assert check_posterior(out) == []


def test_estimate_threshold_and_end_time():
    low = _one_branch_tree(0.39, {1: EndCase(1.0, _component([1.0, 0, 2, 0]))})
    beta_mix = {
        1: EndCase(0.3, _component([1.0, 0, 2, 0])),
        2: EndCase(0.7, _component([1.0, 0, 2, 0, 3, 0, 4, 0])),
    }
    high = _one_branch_tree(0.41, beta_mix)
    post = posterior(
        2, (), (low, high), (0.0, ((0,), (0,)))
    )
    est = estimate(post, CFG)
    assert len(est) == 1  # the r=0.39 branch is omitted at threshold 0.4
    branch = est[0].branches[0]
    assert branch.genealogy == (1, 1)  # most likely end time wins
    assert branch.states.shape == (2, 4)
    assert estimate(posterior(1, (), (), (0.0, ())), CFG) == []


def test_step_empty_everything_stays_empty():
    cfg = replace(CFG, births=())
    post = initial_posterior()
    post = step(post, np.zeros((0, 2)), cfg, kind="trpmbm")
    assert post.trees == () and post.ppp == ()
    assert len(post.hypotheses) == 1


def test_step_noiseless_single_target_converges():
    cfg = default_scenario()
    cfg = replace(
        cfg,
        horizon=12,
        modes=(replace(cfg.modes[0], prob=1.0),),
        measurement=replace(
            cfg.measurement, p_detect=1.0, clutter_rate=0.0, R=1e-6 * np.eye(2)
        ),
    )
    truth_x = np.array([100.0, 2.0, 100.0, 1.0])
    post = initial_posterior()
    x = truth_x.copy()
    for k in range(1, 13):
        if k > 1:
            x = cfg.survival.F @ x
        post = step(post, np.array([x[[0, 2]]]), cfg, kind="trpmbm")
    est = estimate(post, cfg)
    assert len(est) == 1
    err = np.abs(est[0].branches[0].states[-1][[0, 2]] - x[[0, 2]]).max()
    assert err < 1e-2


def test_structural_invariants_short_run():
    cfg = replace(default_scenario(), horizon=25)
    truth = sample_ground_truth(cfg, seed=11)
    meas = sample_measurement_sequence(truth, cfg, seed=11)
    post = initial_posterior()
    for k in range(1, cfg.horizon + 1):
        post = step(post, meas[k - 1], cfg, kind="trpmbm", validate=True)
        assert check_posterior(post) == []


def test_mode_reduction_matches_single_mode_exactly():
    cfg = replace(default_scenario(), horizon=15)
    zeroed = replace(
        cfg,
        modes=(cfg.modes[0],) + tuple(replace(m, prob=0.0) for m in cfg.modes[1:]),
    )
    single = no_spawning(cfg)
    truth = sample_ground_truth(cfg, seed=5)
    meas = sample_measurement_sequence(truth, cfg, seed=5)
    post_a, post_b = initial_posterior(), initial_posterior()
    for k in range(1, cfg.horizon + 1):
        post_a = step(post_a, meas[k - 1], zeroed, kind="trpmbm")
        post_b = step(post_b, meas[k - 1], single, kind="trpmbm")
        wa = sorted(g.log_w for g in post_a.hypotheses)
        wb = sorted(g.log_w for g in post_b.hypotheses)
        assert wa == wb
        ea, eb = estimate(post_a, zeroed), estimate(post_b, single)
        assert len(ea) == len(eb)
        for ta, tb in zip(ea, eb):
            assert ta.start_time == tb.start_time
            for ba, bb in zip(ta.branches, tb.branches):
                assert ba.genealogy == bb.genealogy
                assert np.array_equal(ba.states, bb.states)


def test_posterior_snapshot_is_json_ready():
    tree = _one_branch_tree(0.6, {1: EndCase(1.0, _component([1.0, 0, 2, 0]))})
    post = posterior(1, ppp_predict((), CFG, 1), (tree,), (0.0, ((0,),)))
    text = json.dumps(posterior_to_dict(post))
    data = json.loads(text)
    assert data["step"] == 1
    assert data["trees"][0]["slots"][0]["branch_id"] == [1]


def test_step_rejects_unknown_kind():
    with pytest.raises(ValueError):
        step(initial_posterior(), np.zeros((0, 2)), CFG, kind="nope")


@pytest.mark.parametrize("kind", flt.KINDS)
def test_zero_clutter_unexplained_measurement_starts_empty_tree(kind):
    # no clutter and nothing gates the far measurement: its new tree must
    # get a floored weight, not -inf (which normalised every weight to NaN)
    cfg = replace(CFG, measurement=replace(CFG.measurement, clutter_rate=0.0))
    post = step(initial_posterior(), np.array([[1e5, 1e5]]), cfg, kind, validate=True)
    assert all(math.isfinite(g.log_w) for g in post.hypotheses)
    post = step(post, np.zeros((0, 2)), cfg, kind, validate=True)
    assert all(math.isfinite(g.log_w) for g in post.hypotheses)
    assert estimate(post, cfg) == []


@pytest.mark.parametrize("kind", flt.KINDS)
def test_no_detection_and_no_clutter_keeps_weights_finite(kind):
    # scans from the default model fed to a filter that can explain none
    truth = sample_ground_truth(replace(CFG, horizon=12), seed=3)
    meas = sample_measurement_sequence(truth, replace(CFG, horizon=12), seed=3)
    assert sum(len(Z) for Z in meas) > 0
    cfg = replace(
        CFG, measurement=replace(CFG.measurement, p_detect=0.0, clutter_rate=0.0)
    )
    post = initial_posterior()
    for Z in meas:
        post = step(post, Z, cfg, kind, validate=True)
    assert all(math.isfinite(g.log_w) for g in post.hypotheses)


def test_check_posterior_reports_non_finite_weights():
    tree = _one_branch_tree(0.6, {1: EndCase(1.0, _component([1.0, 0, 2, 0]))})
    for log_ws in ([math.nan], [math.nan, 0.0], [0.0, -math.inf], [math.inf]):
        post = posterior(1, (), (tree,), *((w, ((0,),)) for w in log_ws))
        problems = check_posterior(post)
        assert any("not finite" in p for p in problems), log_ws
    ok = posterior(1, (), (tree,), (0.0, ((0,),)))
    assert check_posterior(ok) == []


def test_check_posterior_reports_a_selection_table_that_does_not_fit():
    tree = _one_branch_tree(0.6, {1: EndCase(1.0, _component([1.0, 0, 2, 0]))})
    narrow = Posterior(1, (), (tree, tree), np.zeros(1), np.zeros((1, 1), dtype=np.int32))
    assert check_posterior(narrow) == ["selection table has 1 columns for 2 slots"]
    for bad in (-1, 1):
        post = Posterior(1, (), (tree, tree), np.zeros(1), np.array([[0, bad]], dtype=np.int32))
        assert check_posterior(post) == [
            f"selection row 0 column 1: hyp {bad} not among the slot's 1"
        ]
