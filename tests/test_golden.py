"""Step-by-step outputs of the four acceptance filters stay bitwise equal.

The digests in `golden_digests.json` were written by `golden.py`; any change
to hypothesis weights, selections, estimates or their metric breakdowns on
the pinned stream shows up here with the first step that differs.
"""

import json

import pytest

import golden
from trpmbm.trees import branch_length

RECORD = json.loads(golden.PATH.read_text())


def _first_diff(got, want):
    return next((k for k, (a, b) in enumerate(zip(got, want), start=1) if a != b), None)


@pytest.mark.parametrize("kind,lscan", golden.SPECS, ids=[f"{k}-L{l}" for k, l in golden.SPECS])
def test_pinned_stream_matches_recorded_digests(kind, lscan):
    recorded = {name: RECORD[name] for name in golden.versions()}
    if recorded != golden.versions():
        pytest.skip(f"digests recorded with {recorded}; installed {golden.versions()}")
    name = f"{kind}-L{lscan}"
    estimates, got = golden.run_pinned(kind, lscan)
    want = RECORD["digests"][name]
    assert _first_diff(got, want) is None, f"step {_first_diff(got, want)} differs from the recorded digest"
    assert len(got) == len(want) == golden.N_STEPS

    _, truth, _ = golden.pinned_stream()
    got = [golden.metric_digest(b) for b in golden.score(estimates, truth, {})]
    want = RECORD["metric_digests"][name]
    assert _first_diff(got, want) is None, f"step {_first_diff(got, want)}: metric differs from the recorded digest"
    assert len(got) == len(want)


@pytest.mark.parametrize("kind,lscan", golden.SPECS, ids=[f"{k}-L{l}" for k, l in golden.SPECS])
def test_estimated_genealogies_fit_their_trees(kind, lscan):
    # the filter derives each estimated branch's marks from its slot; at
    # every step they must span the tree's horizon and own its states
    cfg, _, _ = golden.pinned_stream()
    estimates, _ = golden.run_pinned(kind, lscan)
    checked = 0
    for k, est in enumerate(estimates, start=1):
        for tree in est:
            for b in tree.branches:
                assert len(b.genealogy) == k - tree.start_time + 1, (k, tree.start_time, b.genealogy)
                assert branch_length(b.genealogy, cfg.n_modes) == len(b.states), (k, b.genealogy)
                checked += 1
    assert checked
