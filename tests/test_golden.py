"""Step-by-step outputs of the four acceptance filters stay bitwise equal.

The digests in `golden_digests.json` were written by `golden.py`; any change
to hypothesis weights, selections or estimates on the pinned stream shows
up here with the first step that differs.
"""

import json

import pytest

import golden

RECORD = json.loads(golden.PATH.read_text())


@pytest.mark.parametrize("kind,lscan", golden.SPECS, ids=[f"{k}-L{l}" for k, l in golden.SPECS])
def test_pinned_stream_matches_recorded_digests(kind, lscan):
    recorded = {name: RECORD[name] for name in golden.versions()}
    if recorded != golden.versions():
        pytest.skip(f"digests recorded with {recorded}; installed {golden.versions()}")
    cfg, stream = golden.pinned_stream()
    want = RECORD["digests"][f"{kind}-L{lscan}"]
    got = golden.digests(kind, lscan, cfg, stream)
    first_diff = next((k for k, (a, b) in enumerate(zip(got, want), start=1) if a != b), None)
    assert first_diff is None, f"step {first_diff} differs from the recorded digest"
    assert len(got) == len(want) == golden.N_STEPS
