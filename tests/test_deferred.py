"""Local hypotheses held as table rows give the same posterior as records.

Every slot with alive mass is held (`HeldSlot`): its local hypotheses are
rows of one table per step, which every stage rewrites, and `prune` turns a
slot into records only when it settles.  `update` leaves the detected
hypotheses to `form_hypotheses`, which writes the rows of the ones a formed
row picks.  The references in `oracles.py` build every hypothesis as a
record: `predict_by_component` spawns slots of records and `update_eager`
builds every gated pair's detected hypothesis.  Both paths must prune to
bitwise-equal posteriors.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trpmbm.harness
from trpmbm.filter import (
    KINDS,
    BranchSlot,
    HeldSlot,
    form_hypotheses,
    initial_posterior,
    predict,
    prune,
    step,
    truncate_window,
    update,
)
from trpmbm.harness import FilterSpec, run_filter_on
from trpmbm.metric import branches_as_tracks
from trpmbm.models import (
    NX,
    default_scenario,
    no_spawning,
    sample_ground_truth,
    sample_measurement_sequence,
)

from golden import pinned_stream
from oracles import predict_by_component, step_eager
from test_stacked import _config, _flat, _random_posterior

CFG = default_scenario()


def _slots(post):
    return [s for t in post.trees for s in t.slots]


def _held_slots(post):
    return [s for s in _slots(post) if isinstance(s, HeldSlot)]


def _held_while_alive(post):
    """Every held slot has a hypothesis with alive mass at the step, and
    every other slot is a BranchSlot."""
    return all(
        any(h.density is not None and h.density.beta(post.step) > 0.0 for h in s.hyps)
        if isinstance(s, HeldSlot)
        else isinstance(s, BranchSlot)
        for s in _slots(post)
    )


def _sizes(post):
    """Local hypotheses per slot, without building held slots."""
    return [s.size for s in _slots(post)]


def _variant(cfg, p_d, clutter, births, n_hyp):
    measurement = replace(cfg.measurement, p_detect=p_d, clutter_rate=clutter)
    return replace(
        cfg,
        measurement=measurement,
        births=cfg.births if births else (),
        filters=replace(cfg.filters, n_hyp=n_hyp),
    )


def _scan(rng, post, cfg, n_meas, n_twins):
    """Measurements near the last states at the step of random tracked
    hypotheses of ``post`` (spawned ones included), or far from all; twins
    repeat a measurement, so their costs tie exactly."""
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
            Z[m] = cfg.measurement.H @ x + rng.normal(size=2) * 5.0
    if n_meas:
        Z = np.vstack([Z, Z[rng.integers(0, n_meas, size=n_twins)]])
    return Z


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lscan=st.integers(1, 4),
    p_s=st.sampled_from([0.99, 1.0]),
    n_modes=st.integers(0, 2),
    kind=st.sampled_from(KINDS),
    p_d=st.sampled_from([0.0, 0.9, 1.0]),
    clutter=st.sampled_from([0.0, 10.0]),
    births=st.booleans(),
    n_meas=st.integers(0, 5),
    n_twins=st.integers(0, 2),
    n_hyp=st.sampled_from([1, 3, 50]),
)
def test_step_matches_eager_reference(
    seed, lscan, p_s, n_modes, kind, p_d, clutter, births, n_meas, n_twins, n_hyp
):
    # zero-existence and zero-beta hypotheses, empty scans (m_k = 0), no
    # detection, certain detection, certain survival, no clutter, no births
    rng = np.random.default_rng(seed)
    cfg = _variant(_config(rng, lscan, p_s, n_modes), p_d, clutter, births, n_hyp)
    post = _random_posterior(rng, lscan, lscan, 0.0)
    cfg_k = no_spawning(cfg) if kind == "tpmbm" and cfg.n_modes > 1 else cfg
    Z = _scan(rng, predict_by_component(post, cfg_k, kind), cfg, n_meas, n_twins)

    pred = predict(post, cfg_k, kind)
    upd, maps = update(pred, Z, cfg_k)
    formed = form_hypotheses(upd, maps, len(Z), cfg_k)
    got = prune(formed, cfg_k)
    # the stages built no held slot's records
    assert all("hyps" not in vars(s) for p in (pred, formed) for s in _held_slots(p))
    assert _held_while_alive(got)
    assert _flat(got) == _flat(step_eager(post, Z, cfg, kind))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lscan=st.integers(1, 4),
    p_s=st.sampled_from([0.99, 1.0]),
    n_modes=st.integers(0, 2),
    kind=st.sampled_from(KINDS),
    p_d=st.sampled_from([0.0, 0.9, 1.0]),
    births=st.booleans(),
    n_meas=st.integers(0, 4),
    n_hyp=st.sampled_from([1, 3, 50]),
)
def test_three_steps_in_a_row_match_eager_reference(
    seed, lscan, p_s, n_modes, kind, p_d, births, n_meas, n_hyp
):
    # each pruned posterior, held slots and all, is the next step's input,
    # and each step must match the reference step from that same input
    rng = np.random.default_rng(seed)
    cfg = _variant(_config(rng, lscan, p_s, n_modes), p_d, 10.0, births, n_hyp)
    cfg_k = no_spawning(cfg) if kind == "tpmbm" and cfg.n_modes > 1 else cfg
    post = _random_posterior(rng, lscan, lscan, 0.0)
    for _ in range(3):
        Z = _scan(rng, predict_by_component(post, cfg_k, kind), cfg, n_meas, 1)
        got = step(post, Z, cfg, kind)
        assert _flat(got) == _flat(step_eager(post, Z, cfg, kind))
        post = got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lscan=st.integers(2, 4), n_meas=st.integers(0, 4))
def test_truncate_window_cuts_held_slots_as_it_cuts_records(seed, lscan, n_meas):
    # a shorter window than predict's: the held slots' components are cut
    # in their table, whose last-state moments the update then reads
    rng = np.random.default_rng(seed)
    cfg = _config(rng, lscan, 0.99, 1)
    post = _random_posterior(rng, lscan, lscan, 0.0)
    want = truncate_window(predict_by_component(post, cfg), lscan - 1)
    got = truncate_window(predict(post, cfg), lscan - 1)
    assume(_held_slots(got))
    assert _flat(got) == _flat(want)
    Z = _scan(rng, want, cfg, n_meas, 1)
    (got_upd, got_maps), (want_upd, want_maps) = update(got, Z, cfg), update(want, Z, cfg)
    assert _flat(got_upd) == _flat(want_upd)
    assert np.array_equal(got_maps.log_det, want_maps.log_det)


@pytest.mark.parametrize("kind", ["trpmbm", "trmbm"])
def test_harness_statistics_and_estimate_build_no_held_records(kind, monkeypatch):
    # run_filter_on counts local hypotheses from slot sizes and estimate
    # builds only its picks, from the table: no held slot gets its records
    cfg, truth, stream = pinned_stream()
    posts = []

    def recorded(*args, **kwargs):
        posts.append(step(*args, **kwargs))
        return posts[-1]

    monkeypatch.setattr(trpmbm.harness, "step", recorded)
    run_filter_on(cfg, FilterSpec(kind, 5), stream[:30], branches_as_tracks(truth))
    held = [slot for post in posts for slot in _held_slots(post)]
    assert len(posts) == 30 and held
    assert all("hyps" not in vars(slot) for slot in held)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "variant", ["default", "certain detection", "certain survival", "no clutter", "no births"]
)
def test_validated_filtered_stream_matches_eager_reference(kind, variant):
    # a sampled stream with some scans emptied, step(validate=True) against
    # the reference step from the same posterior
    cfg = replace(CFG, horizon=8)
    truth = sample_ground_truth(cfg, seed=7)
    stream = sample_measurement_sequence(truth, cfg, seed=7)
    stream[3] = stream[3][:0]
    if variant == "certain detection":
        cfg = replace(cfg, measurement=replace(cfg.measurement, p_detect=1.0))
    elif variant == "certain survival":
        cfg = replace(cfg, modes=(replace(cfg.modes[0], prob=1.0),) + cfg.modes[1:])
    elif variant == "no clutter":
        cfg = replace(cfg, measurement=replace(cfg.measurement, clutter_rate=0.0))
    elif variant == "no births":
        cfg = replace(cfg, births=())
    post = initial_posterior()
    for Z in stream:
        got = step(post, Z, cfg, kind, validate=True)
        assert _flat(got) == _flat(step_eager(post, Z, cfg, kind))
        post = got


# mean_local_hyps and max_local_hyps of the harness on the pinned stream's
# first 30 steps, as the filter gave them when it built every hypothesis
PINNED_LOCAL_HYPS = {"trpmbm": (124.83333333333333, 359), "trmbm": (132.0, 300)}


@pytest.mark.parametrize("kind", ["trpmbm", "trmbm"])
def test_pinned_stream_builds_only_kept_hypotheses(kind):
    cfg, truth, stream = pinned_stream()
    cfg = replace(cfg, filters=replace(cfg.filters, lscan=5))
    post, n_held = initial_posterior(), 0
    for Z in stream[:30]:
        pred = predict(post, cfg, kind)
        upd, maps = update(pred, Z, cfg)
        formed = form_hypotheses(upd, maps, len(Z), cfg)
        post = prune(formed, cfg)
        n_held += len(_held_slots(pred))
        assert all("hyps" not in vars(s) for p in (pred, formed) for s in _held_slots(p))
        assert _held_while_alive(post)
        # update builds no detected hypothesis, and every one that formation
        # builds is picked by a formed row
        sizes = _sizes(upd)
        assert sizes == _sizes(pred) + [2] * len(Z)
        for col, (size, slot) in enumerate(zip(sizes, _slots(formed))):
            built = set(range(size, slot.size))
            assert built <= set(formed.sel[:, col].tolist())
    assert n_held > 0
    _, _, stats = run_filter_on(cfg, FilterSpec(kind, 5), stream[:30], branches_as_tracks(truth))
    assert (stats["mean_local_hyps"], stats["max_local_hyps"]) == PINNED_LOCAL_HYPS[kind]
