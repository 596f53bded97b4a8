"""Test-only construction of posteriors from per-tree selections."""

import numpy as np

from trpmbm.filter import Posterior


def posterior(step, ppp, trees, *hyps):
    """A Posterior whose global hypotheses are the (log_w, selection) pairs.

    Each selection is nested like ``GlobalHyp.selection``: per tree, per
    slot, a local-hypothesis index.
    """
    for _, selection in hyps:
        assert [len(s) for s in selection] == [len(t.slots) for t in trees]
    log_w = np.array([w for w, _ in hyps], dtype=float)
    rows = [[bi for s in selection for bi in s] for _, selection in hyps]
    return Posterior(step, ppp, trees, log_w, np.array(rows, dtype=np.int32).reshape(len(hyps), -1))
