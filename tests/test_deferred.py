"""Local hypotheses built only where they are kept give the same posterior.

`predict` holds the slots it spawns as arrays (`SpawnedSlot`) until `prune`
builds the ones it keeps, and `update` leaves the detected hypotheses to
`form_hypotheses`, which builds the ones a formed row picks.  The
references in `oracles.py` build every one of them: `predict_by_component`
spawns slots of records and `update_eager` builds every gated pair's
detected hypothesis.  Both paths must prune to bitwise-equal posteriors.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trpmbm.filter import (
    KINDS,
    SpawnedSlot,
    form_hypotheses,
    initial_posterior,
    predict,
    prune,
    step,
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


def _spawned(post):
    return [s for s in _slots(post) if isinstance(s, SpawnedSlot)]


def _sizes(post):
    """Local hypotheses per slot, without building spawned slots."""
    return [len(s.r) if isinstance(s, SpawnedSlot) else len(s.hyps) for s in _slots(post)]


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
    # the stages built no spawned slot's records but those of the slots that
    # formation detects in and that prune keeps
    assert all("hyps" not in vars(s) for p in (pred, formed) for s in _spawned(p))
    assert not _spawned(got)
    assert _flat(got) == _flat(step_eager(post, Z, cfg, kind))


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
    post, n_spawned = initial_posterior(), 0
    for Z in stream[:30]:
        pred = predict(post, cfg, kind)
        upd, maps = update(pred, Z, cfg)
        formed = form_hypotheses(upd, maps, len(Z), cfg)
        post = prune(formed, cfg)
        n_spawned += len(_spawned(pred))
        assert all("hyps" not in vars(s) for p in (pred, formed) for s in _spawned(p))
        assert not _spawned(post)
        # update builds no detected hypothesis, and every one that formation
        # builds is picked by a formed row
        sizes = _sizes(upd)
        assert sizes == _sizes(pred) + [2] * len(Z)
        for col, (size, slot) in enumerate(zip(sizes, _slots(formed))):
            if isinstance(slot, SpawnedSlot):
                continue
            built = set(range(size, len(slot.hyps)))
            assert built <= set(formed.sel[:, col].tolist())
    assert n_spawned > 0
    _, _, stats = run_filter_on(cfg, FilterSpec(kind, 5), stream[:30], branches_as_tracks(truth))
    assert (stats["mean_local_hyps"], stats["max_local_hyps"]) == PINNED_LOCAL_HYPS[kind]
