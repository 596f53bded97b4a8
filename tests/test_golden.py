"""Step-by-step outputs of the four acceptance filters stay bitwise equal.

The digests in `golden_digests.json` were written by `golden.py`; any change
to hypothesis weights, selections, estimates or their metric breakdowns on
the pinned stream shows up here with the first step that differs.
"""

import json

import pytest

import golden

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
