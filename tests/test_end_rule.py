"""`trpmbm.filter._missed` is the one end-time rule of `update`'s missed
detections (q = p_D) and `prune`'s alive-end cut (q = 1), on the rows of a
hypothesis table; the references in `oracles.py` keep each stage's own form
of it on records, and every end must match bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trpmbm.filter import LocalHyp, _missed, _table_of
from trpmbm.gaussian import BranchDensity, EndCase, GaussianBranchComponent
from oracles import alive_cut_by_prune, missed_by_update

K = 9  # the step whose end the rules condition on
COMP = GaussianBranchComponent(np.zeros(4), np.eye(4), 4)


def _density(weights, ends_at_k):
    """Ends at the last len(weights) steps up to k, or up to k - 1."""
    last = K if ends_at_k else K - 1
    total = sum(weights)
    kappas = range(last - len(weights) + 1, last + 1)
    return BranchDensity({kappa: EndCase(w / total, COMP) for kappa, w in zip(kappas, weights)})


def _missed_density(density, q):
    """The density of a one-row table after the rule, built back as a record."""
    table = _table_of([LocalHyp(0.0, 1.0, density, frozenset())], K)
    (h,) = _missed(table, np.array([0]), q).records([0])
    return h.density


def _bits(density):
    if density is None:
        return None
    return [(kappa, case.beta.hex(), case.comp) for kappa, case in density.components.items()]


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=6),
    ends_at_k=st.booleans(),
    q=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.just(1.0),
    ),
)
def test_missed_matches_update_and_prune_rules(weights, ends_at_k, q):
    density = _density(weights, ends_at_k)
    got = _bits(_missed_density(density, q))
    assert got == _bits(missed_by_update(density, K, q))
    # prune cuts only ends at k below 1, or a sure end at k with no other
    if q == 1.0 and (density.beta(K) < 1.0 or len(weights) == 1):
        assert got == _bits(alive_cut_by_prune(density, K))


def test_certain_detection_of_a_sure_end_leaves_nothing():
    density = BranchDensity({K: EndCase(1.0, COMP)})
    assert _missed_density(density, 1.0) is None
    assert missed_by_update(density, K, 1.0) is None
    assert alive_cut_by_prune(density, K) is None


def test_ends_left_at_zero_are_dropped():
    # an earlier end with beta 0 beside the end at k: the rule drops it
    density = BranchDensity({K - 1: EndCase(0.0, COMP), K: EndCase(1.0, COMP)})
    got = _bits(_missed_density(density, 0.5))
    assert got == _bits(missed_by_update(density, K, 0.5))
    assert [kappa for kappa, *_ in got] == [K]
