"""The stacked Gaussian passes keep the bits of the per-component forms.

`predict` moves, spawns and cuts every end case in one stacked pass, and
`update` conditions its detections and new trees in stacked calls; the
references in `oracles.py` do the same one component at a time.  Every
mean, covariance, weight and selection must be bitwise equal.  Likewise
`form_hypotheses` slices its cost matrices out of `update`'s array
association record, which the reference reads entry by entry as dicts.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import trpmbm.filter
from trpmbm.filter import (
    KINDS,
    BernoulliTree,
    BranchSlot,
    LocalHyp,
    Posterior,
    _new_trees,
    form_hypotheses,
    initial_posterior,
    predict,
    step,
    truncate_window,
    update,
)
from trpmbm.gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    PPPComponent,
    condition,
    innovation,
    last_states,
)
from trpmbm.models import (
    NX,
    default_scenario,
    perp_units,
    sample_ground_truth,
    sample_measurement_sequence,
)
from oracles import (
    condition_one,
    form_hypotheses_by_dicts,
    gate_loglik_one,
    innovation_one,
    new_trees_by_measurement,
    perp_unit_one,
    predict_by_component,
    record_as_dicts,
)

CFG = default_scenario()
STEP = 6  # the posteriors below are at this step


def _spd(rng, n, scale=10.0):
    A = rng.normal(size=(n, n)) * scale
    return (A @ A.T + 0.1 * np.eye(n) + (A @ A.T).T) / 2.0


def _component(rng, live, chunks, slow=False, nx=NX):
    """A component with ``live`` live states and frozen chunks of the given
    state counts; ``slow`` puts its last state at a near-zero speed."""
    mean = rng.normal(size=live * nx) * 50.0
    if slow:
        mean[-nx + 1] = mean[-nx + 3] = 1e-9
    frozen_means = tuple(rng.normal(size=s * nx) for s in chunks)
    frozen_covs = tuple(_spd(rng, s * nx) for s in chunks)
    cov = _spd(rng, live * nx)
    return GaussianBranchComponent(mean, cov, nx, frozen_means, frozen_covs)


def _random_posterior(rng, lscan, max_live, slow_share):
    def comp():
        live = int(rng.integers(1, max_live + 1))
        chunks = [int(s) for s in rng.integers(1, 3, size=rng.integers(0, 3))]
        return _component(rng, live, chunks, slow=rng.random() < slow_share)

    trees = []
    for _ in range(rng.integers(1, 4)):
        slots = []
        for ji in range(rng.integers(1, 3)):
            hyps = []
            for _ in range(rng.integers(1, 4)):
                r = float(rng.choice([0.0, 0.3, 1.0]))
                if rng.random() < 0.2:
                    hyps.append(LocalHyp(-1.0, r, None, frozenset()))
                    continue
                cases = {}
                if rng.random() < 0.5:
                    cases[STEP - 2] = EndCase(0.25, comp())
                if rng.random() < 0.8:
                    cases[STEP - 1] = EndCase(float(rng.choice([0.0, 0.75, 1.0])), comp())
                hyps.append(LocalHyp(float(rng.normal()), r, BranchDensity(cases), frozenset()))
            slots.append(BranchSlot((1,) if ji == 0 else (1, 2), tuple(hyps)))
        trees.append(BernoulliTree(int(rng.integers(1, STEP)), tuple(slots)))
    ppp = tuple(
        PPPComponent(float(rng.normal()) - 3.0, int(rng.integers(1, STEP)), comp())
        for _ in range(rng.integers(0, 4))
    )
    sizes = [len(s.hyps) for t in trees for s in t.slots]
    sel = np.array([[rng.integers(0, n) for n in sizes] for _ in range(2)], dtype=np.int32)
    return Posterior(STEP - 1, ppp, tuple(trees), np.log([0.6, 0.4]), sel)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _ranks(sel):
    """Each entry's rank among the distinct entries of its column."""
    out = np.empty(sel.shape, dtype=np.intp)
    for j, column in enumerate(sel.T):
        out[:, j] = np.unique(column, return_inverse=True)[1]
    return out


def _comp_bits(c):
    return (
        c.nx,
        _bits(c.mean),
        _bits(c.cov),
        tuple(map(_bits, c.frozen_means)),
        tuple(map(_bits, c.frozen_covs)),
    )


def _flat(post):
    """Every number and structure of a posterior, as comparable bytes."""

    def hyp(h):
        density = None
        if h.density is not None:
            density = tuple(
                (kappa, case.beta, _comp_bits(case.comp))
                for kappa, case in h.density.components.items()
            )
        return (h.log_w, h.r, tuple(sorted(h.assoc)), density)

    return (
        post.step,
        tuple((c.log_weight, c.start_time, _comp_bits(c.comp)) for c in post.ppp),
        tuple(
            (t.start_time, tuple((s.branch_id, tuple(map(hyp, s.hyps))) for s in t.slots))
            for t in post.trees
        ),
        _bits(post.log_w),
        _bits(post.sel),
    )


def _live_lengths_at(post, k):
    cases = [c.comp for c in post.ppp]
    cases += [
        h.density.components[k].comp
        for t in post.trees
        for s in t.slots
        for h in s.hyps
        if h.density is not None and k in h.density.components
    ]
    return [c.live_length for c in cases]


def _config(rng, lscan, p_s, n_modes):
    """Dense random transitions: with the default ones (entries 0 and 1)
    any order of the products gives the same bits."""

    def dense(mode):
        F = np.eye(NX) + 0.3 * rng.normal(size=(NX, NX))
        return replace(mode, F=F, Q=_spd(rng, NX, 0.3))

    survival = replace(dense(CFG.modes[0]), prob=p_s, offset=rng.normal(size=NX))
    return replace(
        CFG,
        modes=(survival,) + tuple(map(dense, CFG.modes[1 : 1 + n_modes])),
        filters=replace(CFG.filters, lscan=lscan),
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lscan=st.integers(1, 5),
    p_s=st.sampled_from([0.0, 0.99, 1.0]),
    n_modes=st.integers(0, 2),
    kind=st.sampled_from(KINDS),
    slow_share=st.sampled_from([0.0, 0.5]),
    within=st.booleans(),
)
def test_stacked_predict_matches_per_component_reference(
    seed, lscan, p_s, n_modes, kind, slow_share, within
):
    # live windows of 1 to lscan + 1 states (or at most lscan), frozen
    # chunks, zero-beta and zero-existence cases, near-zero speeds
    rng = np.random.default_rng(seed)
    cfg = _config(rng, lscan, p_s, n_modes)
    post = _random_posterior(rng, lscan, lscan if within else lscan + 1, slow_share)
    pred = predict(post, cfg, kind)
    assert _flat(truncate_window(pred, lscan)) == _flat(predict_by_component(post, cfg, kind))
    # every window that predict grew is cut; one that already fit is kept
    assert all(w <= lscan for w in _live_lengths_at(pred, STEP))
    if within:
        cut = truncate_window(pred, lscan)
        assert all(a is b for a, b in zip(cut.trees, pred.trees))
        assert all(a is b for a, b in zip(cut.ppp, pred.ppp))


@settings(max_examples=100, deadline=None)
@given(
    speeds=st.lists(
        st.tuples(
            st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 1e-9, 5e-7, 2e-6]),
            st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 1e-9, 5e-7, 2e-6]),
        ),
        max_size=8,
    )
)
def test_stacked_perp_units_match_one_state_form(speeds):
    # near-zero speeds take the fallback direction
    X = np.array([[1.0, vx, 2.0, vy] for vx, vy in speeds]).reshape(-1, NX)
    units = perp_units(X)
    assert units.shape == X.shape
    for row, x in zip(units, X):
        assert _bits(row) == _bits(perp_unit_one(x))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    n_pairs=st.integers(0, 12),
    nz=st.sampled_from([1, 2]),
    nx=st.sampled_from([2, 4]),
)
def test_stacked_condition_matches_per_component_reference(seed, n, n_pairs, nz, nx):
    rng = np.random.default_rng(seed)
    comps = [
        _component(rng, int(rng.integers(1, 6)), [], nx=nx) for _ in range(n)
    ]
    H = rng.normal(size=(nz, nx))
    R = _spd(rng, nz, 1.0)
    zhat, S = innovation(last_states(comps), H, R)
    item = np.sort(rng.integers(0, n, size=n_pairs))
    innov = rng.normal(size=(n_pairs, nz)) * 20.0
    means, covs = condition(comps, H, S, item, innov)
    assert len(means) == n_pairs and len(covs) == n
    for i, c in enumerate(comps):
        rows = np.flatnonzero(item == i)
        want_means, want_cov = condition_one(c, H, S[i], innov[rows])
        assert _bits(covs[i]) == _bits(want_cov)
        for p, want in zip(rows, want_means):
            assert _bits(means[p]) == _bits(want)
    # stored moments own their data
    assert all(m.base is None for m in means) and all(P.base is None for P in covs)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_terms=st.integers(0, 4),
    n_twins=st.integers(0, 2),
    n_meas=st.integers(0, 5),
    clutter=st.sampled_from([0.0, 10.0]),
    p_d=st.sampled_from([0.0, 0.9, 1.0]),
    dead=st.booleans(),
)
def test_new_tree_block_matches_per_measurement_reference(
    seed, n_terms, n_twins, n_meas, clutter, p_d, dead
):
    # twins repeat a term's live moments and weight, so their likelihoods
    # tie exactly; their start times tie or not, and their frozen chunks
    # tell which one was picked.  Far measurements give all -inf columns.
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        c = _component(rng, int(rng.integers(1, 4)), [1], nx=NX)
        c = replace(c, mean=c.mean + np.tile([300.0, 0.0, 170.0, 0.0], c.live_length))
        weight = -math.inf if dead and rng.random() < 0.3 else float(rng.normal()) - 2.0
        terms.append(PPPComponent(weight, int(rng.integers(1, 3)), c))
    for _ in range(n_twins if terms else 0):
        twin = terms[rng.integers(0, len(terms))]
        chunk = (rng.normal(size=NX),)
        comp = replace(twin.comp, frozen_means=chunk, frozen_covs=(np.eye(NX),))
        terms.append(PPPComponent(twin.log_weight, int(rng.integers(1, 3)), comp))
    near = rng.normal(size=(n_meas, 2)) * 20.0 + [300.0, 170.0]
    far = rng.random(n_meas) < 0.3
    Z = np.where(far[:, None], 1e5, near)
    cfg = replace(CFG, measurement=replace(CFG.measurement, clutter_rate=clutter, p_detect=p_d))

    trees, log_w = _new_trees(tuple(terms), Z, cfg, STEP)
    want = new_trees_by_measurement(tuple(terms), Z, cfg, STEP)
    assert _bits(log_w) == _bits(np.array([w for *_, w in want]))
    assert len(trees) == n_meas
    for m, (tree, (r, best, comp, log_w2)) in enumerate(zip(trees, want)):
        none, exist = tree.slots[0].hyps
        assert none.r == 0.0 and none.density is None
        assert exist.log_w == log_w2 and exist.r == r and exist.assoc == {(STEP, m)}
        if best is None:
            assert exist.density is None and tree.start_time == STEP
        else:
            assert tree.start_time == terms[best].start_time
            assert _comp_bits(exist.density.components[STEP].comp) == _comp_bits(comp)


_association = dict(
    seed=st.integers(0, 2**32 - 1),
    n_parents=st.integers(1, 5),
    n_equal=st.integers(0, 2),
    n_meas=st.integers(0, 5),
    n_twins=st.integers(0, 2),
    p_d=st.sampled_from([0.0, 0.9, 1.0]),
    n_hyp=st.sampled_from([1, 3, 50]),
)


def _association_case(seed, n_parents, n_equal, n_meas, n_twins, p_d, n_hyp):
    """A posterior at the update's step, measurements and a config.

    Measurements fall near the last states of random local hypotheses or
    far from all; twins repeat a measurement, so their costs tie exactly,
    and equal parents repeat a selection row."""
    rng = np.random.default_rng(seed)
    post = _random_posterior(rng, 3, 3, 0.0)
    sizes = [len(s.hyps) for t in post.trees for s in t.slots]
    sel = np.array([[rng.integers(0, n) for n in sizes] for _ in range(n_parents)], np.int32)
    sel = np.vstack([sel, sel[rng.integers(0, n_parents, size=n_equal)]])
    log_w = np.log(rng.dirichlet(np.ones(len(sel))))
    post = replace(post, log_w=log_w - logsumexp(log_w), sel=sel)
    ends = [
        h.density.components[post.step].comp.mean[-NX:]
        for t in post.trees
        for s in t.slots
        for h in s.hyps
        if h.density is not None and post.step in h.density.components
    ]
    Z = np.full((n_meas, 2), 1e5)
    for m in range(n_meas):
        if ends and rng.random() < 0.8:
            x = ends[rng.integers(0, len(ends))]
            Z[m] = [x[0], x[2]] + rng.normal(size=2) * 5.0
    if n_meas:
        Z = np.vstack([Z, Z[rng.integers(0, n_meas, size=n_twins)]])
    measurement = replace(CFG.measurement, p_detect=p_d)
    cfg = replace(CFG, measurement=measurement, filters=replace(CFG.filters, n_hyp=n_hyp))
    return post, Z, cfg


@settings(max_examples=150, deadline=None)
@given(**_association)
def test_form_hypotheses_matches_dict_record_reference(**case):
    # m_k = 0, p_D = 0 (no row) and far measurements (no gated pair), exact
    # cost ties from twin measurements, and groups of equal parents.  The
    # reference keeps the record's child indices; formation renumbers the
    # ones it builds in the same order
    post, Z, cfg = _association_case(**case)
    upd, maps = update(post, Z, cfg)
    got = form_hypotheses(upd, maps, len(Z), cfg)
    want = form_hypotheses_by_dicts(upd, *record_as_dicts(maps), maps.new_tree_logw, len(Z), cfg)
    assert _bits(got.log_w) == _bits(want.log_w)
    assert _bits(_ranks(got.sel)) == _bits(_ranks(want.sel))


def test_form_hypotheses_matches_dict_record_reference_on_every_group_kind(monkeypatch):
    # one step that always holds a K = 1 group, a K > 1 group wanting more
    # children than it has assignments, a group that gates no measurement
    # and two equal parents, so the stacked pass's ragged indexing meets
    # each of them; the measurement at (500, 0) has a twin, so costs tie
    def hyp(x, y, log_w=0.0):
        comp = GaussianBranchComponent(np.array([x, 1.0, y, -1.0]), 4.0 * np.eye(NX), NX)
        return LocalHyp(log_w, 0.8, BranchDensity({STEP: EndCase(1.0, comp)}), frozenset())

    none = LocalHyp(0.0, 0.0, None, frozenset())
    trees = (
        BernoulliTree(1, (BranchSlot((1,), (none, hyp(0.0, 0.0), hyp(0.0, 8.0, -0.5))),)),
        BernoulliTree(2, (BranchSlot((1,), (none, hyp(500.0, 0.0, 0.3))),)),
    )
    # parents 0 and 1 are equal, and want 15 and 2 of their 3 assignments;
    # parent 2 wants one child; parent 3 selects no detectable hypothesis
    sel = np.array([[1, 0], [1, 0], [2, 1], [0, 0], [1, 1]], np.int32)
    post = Posterior(STEP, (), trees, np.log([0.3, 0.03, 0.01, 0.2, 0.46]), sel)
    Z = np.array([[0.0, 0.0], [500.0, 0.0], [0.0, 8.0], [500.0, 0.0]])
    cfg = replace(CFG, filters=replace(CFG.filters, n_hyp=50))
    upd, maps = update(post, Z, cfg)

    calls = []  # (K, solutions returned) per assignment problem
    murty = trpmbm.filter.murty_kbest

    def recorded(C, K):
        out = murty(C, K)
        calls.append((K, len(out)))
        return out

    monkeypatch.setattr(trpmbm.filter, "murty_kbest", recorded)
    got = form_hypotheses(upd, maps, len(Z), cfg)
    want = form_hypotheses_by_dicts(upd, *record_as_dicts(maps), maps.new_tree_logw, len(Z), cfg)
    # four groups, of which the one without a free measurement has no
    # problem: parents 0-1 (3 assignments), parent 2 and parent 4 (9)
    assert sorted(calls) == [(1, 1), (15, 3), (23, 9)]
    assert _bits(got.log_w) == _bits(want.log_w)
    assert _bits(_ranks(got.sel)) == _bits(_ranks(want.sel))


@settings(max_examples=150, deadline=None)
@given(**_association)
def test_association_record_rows_and_gated_view(**case):
    # det_meas counts the gated pairs that the benchmark reports, and every
    # gated entry that a formed row picks names the child that formation
    # built for it, found through the reference's rows, which keep the
    # record's child indices in the same row order
    post, Z, cfg = _association_case(**case)
    upd, maps = update(post, Z, cfg)
    formed = form_hypotheses(upd, maps, len(Z), cfg)
    want = form_hypotheses_by_dicts(upd, *record_as_dicts(maps), maps.new_tree_logw, len(Z), cfg)
    k, meas = post.step, cfg.measurement
    slots = [s for t in post.trees for s in t.slots]
    new_slots = [s for t in formed.trees for s in t.slots]
    keys = [
        (col, bi)
        for col, slot in enumerate(slots)
        for bi, h in enumerate(slot.hyps)
        if h.density is not None and h.r * h.density.beta(k) * meas.p_detect > 0.0
    ]
    assert list(zip(maps.col.tolist(), maps.hyp.tolist())) == keys
    assert maps.log_ratio.shape == maps.child.shape == (len(keys), len(Z))
    assert np.array_equal(maps.child < 0, np.isneginf(maps.log_ratio))
    n_inside = 0
    for d, (col, bi) in enumerate(keys):
        h = slots[col].hyps[bi]
        zhat, S = innovation_one(h.density.components[k].comp, meas.H, meas.R)
        inside, _ = gate_loglik_one(S, Z - zhat, cfg.filters.gate)
        n_inside += len(inside)
        assert maps.det_meas.get((col, bi), ()) == tuple(inside.tolist())
        for m in inside.tolist():
            picked = want.sel[:, col] == maps.child[d, m]
            if not picked.any():
                continue
            child = new_slots[col].hyps[formed.sel[picked, col][0]]
            assert _bits(child.log_w - (h.log_w + maps.log_miss[d])) == _bits(maps.log_ratio[d, m])
            assert child.assoc == h.assoc | {(k, m)}
    assert sum(len(v) for v in maps.det_meas.values()) == n_inside


def test_predict_output_windows_fit_on_a_filtered_stream():
    cfg = replace(CFG, horizon=10, filters=replace(CFG.filters, lscan=2))
    truth = sample_ground_truth(cfg, seed=4)
    meas = sample_measurement_sequence(truth, cfg, seed=4)
    for kind in KINDS:
        post = initial_posterior()
        for Z in meas:
            pred = predict(post, cfg, kind)
            assert all(w <= 2 for w in _live_lengths_at(pred, pred.step))
            cut = truncate_window(pred, 2)
            assert all(a is b for a, b in zip(cut.trees, pred.trees))
            post = step(post, Z, cfg, kind)
