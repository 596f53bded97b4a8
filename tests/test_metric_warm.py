"""The metric's direct HiGHS solve, its warm start across steps and its
fallback to ``scipy.optimize.linprog``."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import trpmbm.metric as metric
from trpmbm.metric import Track, TrajMetricParams, trajectory_metric

needs_highs = pytest.mark.skipif(metric._highs is None, reason="scipy ships no HiGHS module")


def _recording(monkeypatch):
    """Replace ``metric.linprog`` and ``metric._certified`` by wrappers;
    returns the list of the ``start`` arguments of the solves (None for a
    cold solve) and, for each step the certificate took, of the bases
    entry it extended."""
    starts = []
    real_linprog, real_certified = metric.linprog, metric._certified

    def linprog(cost, model, start=None):
        starts.append(start)
        return real_linprog(cost, model, start)

    def certified(entry, *args):
        x, bounds = real_certified(entry, *args)
        if x is not None:
            starts.append(entry)
        return x, bounds

    monkeypatch.setattr(metric, "linprog", linprog)
    monkeypatch.setattr(metric, "_certified", certified)
    return starts


def _warm_start(*args):
    """`metric._mapped_start` (same arguments) as the status lists HiGHS
    takes, or None."""
    codes = metric._mapped_start(*args)
    return None if codes is None else metric._statuses(codes)


def _walk(rng, label, start, length, offset=(0.0, 0.0)):
    steps = rng.normal(0.0, 1.0, size=(length, 2))
    return Track(label, start, np.cumsum(steps, axis=0) + offset)


def _crossing_pair(rng, k):
    """Two truths and two estimates that stay within the cutoff of each
    other: one 2x2 cluster on every step up to ``k``."""
    truth = [_walk(rng, ("t", j), 1, k) for j in range(2)]
    est = [
        Track(("e", i), 1, tr.positions + rng.normal(0.0, 0.5, size=(k, 2)))
        for i, tr in enumerate(truth)
    ]
    return est, truth


def _bits(breakdown) -> bytes:
    return struct.pack("<5d", *breakdown.as_tuple())


@needs_highs
@pytest.mark.parametrize("kind,lscan", golden.SPECS, ids=[f"{k}-L{l}" for k, l in golden.SPECS])
def test_pinned_run_scores_bitwise_the_same_with_bases(monkeypatch, kind, lscan):
    # tpmbm-L5 holds a tie at step 99 that `metric._split_may_tie` must catch
    _, truth, _ = golden.pinned_stream()
    estimates, _ = golden.run_pinned(kind, lscan)
    starts = _recording(monkeypatch)
    warm = golden.score(estimates, truth, {})
    n_warm = sum(s is not None for s in starts)
    assert n_warm > 0.8 * len(starts)
    cold = golden.score(estimates, truth)
    assert len(warm) == len(cold) == golden.N_STEPS
    for k, (w, c) in enumerate(zip(warm, cold), start=1):
        assert _bits(w) == _bits(c), f"step {k}"


@needs_highs
def test_membership_change_or_skipped_step_is_solved_cold(monkeypatch):
    rng = np.random.default_rng(5)
    params = TrajMetricParams()
    est, truth = _crossing_pair(rng, 12)
    starts = _recording(monkeypatch)
    bases = {}

    def score(k, est_k):
        """The starts of the solves at step k with ``bases``; the result
        equals the one without."""
        starts.clear()
        got = trajectory_metric(est_k, truth, params, k, bases)
        seen = list(starts)
        assert got == trajectory_metric(est_k, truth, params, k)
        return seen

    assert score(1, est) == [None]
    for k in range(2, 6):
        (start,) = score(k, est)
        assert start is not None
    assert len(bases) == 1
    # step 6 skipped: the stored basis is two steps old
    assert score(7, est) == [None]
    (start,) = score(8, est)
    assert start is not None
    # a third estimate joins the cluster: its step-8 basis, mapped by label
    extra = Track(("e", 2), 3, truth[0].positions[2:] + 0.3)
    (start,) = score(9, est + [extra])
    assert start is not None
    (start,) = score(10, est + [extra])
    assert start is not None
    # the third estimate leaves again: the step-10 cluster does not fit
    assert score(11, est) == [None]


@needs_highs
def test_rejected_warm_start_is_solved_cold():
    rng = np.random.default_rng(2)
    est, truth = _crossing_pair(rng, 6)
    every_pair = np.ones((2, 2), dtype=bool)
    geometry = metric._geometry(est, truth, 6)
    cost, _ = metric._cluster_costs(geometry, every_pair, TrajMetricParams())
    model = metric._model(2, 2, 6, np.flatnonzero(every_pair))
    status = metric._highs.HighsBasisStatus
    bad = ([status.kLower] * 3, [status.kBasic] * 2)  # the wrong size
    x_cold, basic_cold = metric._highs_solve(cost, model)
    x, basic_got = metric._highs_solve(cost, model, bad)
    assert np.array_equal(x, x_cold) and np.array_equal(basic_got, basic_cold)


def test_scipy_fallback_gives_identical_breakdowns(monkeypatch):
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(40):
        k = int(rng.integers(2, 25))
        truth = [_walk(rng, ("t", j), int(rng.integers(1, k)), k, (3.0 * j, 0.0)).clipped(k)
                 for j in range(int(rng.integers(1, 4)))]
        est = [Track(("e", i), tr.start, tr.positions + rng.normal(0.0, 2.0, size=tr.positions.shape))
               for i, tr in enumerate(truth)]
        est.append(_walk(rng, ("e", "x"), 1, k, (1.0, 1.0)))
        params = TrajMetricParams(gamma=float(rng.choice([0.0, 1.0, 2.0])))
        cases.append((est, truth, params, k))

    def run_all():
        out = []
        for est, truth, params, k in cases:
            bases = {}
            out.append([trajectory_metric(est, truth, params, j, bases) for j in range(1, k + 1)])
        return out

    direct = run_all()
    calls = []

    def fallback(*args):
        calls.append(1)
        return metric._scipy_solve(*args)

    monkeypatch.setattr(metric, "linprog", fallback)
    assert run_all() == direct
    assert len(calls) > 100


def test_split_may_tie_flags_capped_pairs_next_to_a_match():
    # one estimate, one truth, three steps; the pair is at the cutoff on step 2
    params = TrajMetricParams(p=2.0, c=10.0, gamma=1.0)
    n = m = 1
    T, S = 3, 3
    cost = np.full(T * S + (T - 1), 0.5)
    tag = np.full(len(cost), 3, dtype=np.int8)
    cost[: T * S : S] = [1.0, 100.0, 4.0]
    tag[: T * S] = 0
    close = np.ones((n, m), dtype=bool)
    matched = np.zeros(len(cost))
    matched[0] = 1.0  # matched on step 1 only: step 2 is next to it
    assert metric._split_may_tie(matched, cost, tag, close, T, params)
    apart = np.zeros(len(cost))
    assert not metric._split_may_tie(apart, cost, tag, close, T, params)
    assert metric._split_may_tie(apart, cost, tag, close, T, TrajMetricParams(gamma=0.0))
    cost[S] = 99.0  # no pair at the cutoff
    assert not metric._split_may_tie(matched, cost, tag, close, T, params)


def _names(est, truth, T, pairs):
    """Column and row names of a cluster LP with these labels, T steps and
    the kept pairs ``pairs`` ((estimate label, truth label), in the order
    of the est then truth labels), in the layout `metric._model` and
    `metric._columns` use."""
    cols, rows = [], []
    for t in range(T):
        cols += [("W", t, e, r) for e, r in pairs]
        cols += [("est dummy", t, e) for e in est] + [("truth dummy", t, r) for r in truth]
    for t in range(T - 1):
        cols += [("switch", t, e, r) for e, r in pairs]
        rows += [(side, t, e, r) for e, r in pairs for side in ("up", "down")]
    for t in range(T):
        rows += [("est row", t, e) for e in est] + [("truth row", t, r) for r in truth]
    return cols, rows


def _kept(est, truth, mask):
    """The (estimate label, truth label) pairs of an (n, m) mask, in layout order."""
    return [(est[i], truth[j]) for i, j in zip(*np.nonzero(mask))]


@needs_highs
def test_mapped_start_keeps_each_status_by_label():
    # no pair dropped, the matched pair dropped, a crossing pair dropped
    for gone in (None, (("e", 0), ("t", 0)), (("e", 0), ("t", 1))):
        _check_mapped_start(gone)


def _check_mapped_start(gone):
    """`test_mapped_start_keeps_each_status_by_label` with the old pair
    ``gone`` no longer kept (None: every old pair still kept)."""
    rng = np.random.default_rng(4)
    params = TrajMetricParams()
    T = 7
    # two truths 16 apart, each followed by an estimate; estimate 0 visits
    # truth 1 at step 2, so estimate 1 and truth 0 are the one far pair
    truth = [_walk(rng, ("t", j), 1, T, (16.0 * j, 0.0)) for j in range(2)]
    est = [
        Track(("e", i), 1, tr.positions + rng.normal(0.0, 0.3, size=(T, 2)))
        for i, tr in enumerate(truth)
    ]
    est[0].positions[1] = truth[0].positions[1] + (8.0, 0.0)
    bases = {}
    for k in range(1, T):
        trajectory_metric(est, truth, params, k, bases)
    ((key, (T_prev, old_pairs, *_)),) = bases.items()
    old_kept = np.zeros((2, 2), dtype=bool)
    old_kept.flat[old_pairs] = True
    assert old_kept.tolist() == [[True, True], [False, True]]
    # the entry of step T-1 by hand, its basis from a cold solve, so that it
    # covers all T-1 steps
    clipped = [[tr.clipped(T_prev) for tr in tracks] for tracks in (est, truth)]
    old_cost, _ = metric._cluster_costs(metric._geometry(*clipped, T_prev), old_kept, params)
    old_cost = old_cost[metric._columns(2, 2, T_prev, old_pairs)]
    x, basic = metric._highs_solve(old_cost, metric._model(2, 2, T_prev, old_pairs))
    bases[key] = (T_prev, old_pairs, basic, x, old_cost, None, T_prev)
    old_cols, old_rows = _names(*key[:2], T_prev, _kept(*key[:2], old_kept))
    was_basic = {old_cols[j] if j >= 0 else old_rows[-1 - j] for j in basic.tolist()}
    last_step = [name for name in old_cols + old_rows if name[1] == T - 2 and name[0] != "switch"]
    # step T-2 holds one basic variable per equality row
    assert sum(name in was_basic for name in last_step) == sum("row" in name[0] for name in last_step)

    # the new step repeats the old tracks' part of step T-2 only if that part
    # still holds one basic variable per equality row once ``gone`` drops out
    dropped = {name for name in old_cols + old_rows if name[2:] == gone}
    repeats = sum(name in was_basic - dropped for name in last_step) == sum(
        "row" in name[0] for name in last_step
    )
    assert repeats == (gone is None or gone[1] == ("t", 1))

    # a joined estimate alive from step 3 on and a joined truth, orders
    # reversed; the pair ``gone``, if any, is no longer kept and the far
    # pair (e 1, t 0) is kept now
    est = [_walk(rng, ("e", 2), 3, T - 2)] + est[::-1]
    truth = [_walk(rng, ("t", 2), 1, T)] + truth[::-1]
    labels = tuple(tr.label for tr in est), tuple(tr.label for tr in truth)
    close = np.ones((3, 3), dtype=bool)
    if gone is not None:
        close[labels[0].index(gone[0]), labels[1].index(gone[1])] = False
    pairs = np.flatnonzero(close)
    geometry = metric._geometry(est, truth, T)
    cost, _ = metric._cluster_costs(geometry, np.ones((3, 3), dtype=bool), params)
    cost = cost[metric._columns(3, 3, T, pairs)]
    col_status, row_status = _warm_start(bases, *labels, 1, T, pairs, cost)
    cols, rows = _names(*labels, T, _kept(*labels, close))
    assert len(col_status) == len(cols) == len(cost) and len(row_status) == len(rows)
    alive = {(side, tr.label): range(tr.start - 1, tr.end)
             for side, tracks in (("est", est), ("truth", truth)) for tr in tracks}

    def expected(name, old, on, off, fresh, idle):
        """Status of ``name`` by the rules of `metric._mapped_start`, read by label:
        ``on`` / ``off`` as it ended basic or not at k-1, ``fresh`` for
        everything new, ``idle`` for the dummy or row of a track not alive."""
        repeated = (name[0], T - 2, *name[2:])
        if name in old:
            return on if name in was_basic else off
        if repeats and name[1] == T - 1 and name[0] != "switch" and repeated in old:
            return on if repeated in was_basic else off
        side, kind = name[0].split()[0], name[0].split()[-1]
        if kind in ("dummy", "row") and name[1] not in alive[side, name[2]]:
            return idle
        return fresh

    status = metric._highs.HighsBasisStatus
    on, lower, upper = status.kBasic, status.kLower, status.kUpper
    assert len(dropped) == (0 if gone is None else 4 * T_prev - 3)
    assert not dropped & set(cols + rows)
    old_cols, old_rows = set(old_cols), set(old_rows)
    for name, got in zip(cols, col_status):
        assert got == expected(name, old_cols, on, lower, lower, on), name
    for name, got in zip(rows, row_status):
        assert got == expected(name, old_rows, on, upper, on, upper), name
    # one basic variable per row, less what the dropped pair took along
    n_dropped_rows = sum(name[0] in ("up", "down") for name in dropped)
    n_basic = sum(s == status.kBasic for s in col_status + row_status)
    assert n_basic == len(rows) + n_dropped_rows - len(dropped & was_basic)


@needs_highs
def test_clusters_without_one_fitting_predecessor_start_cold():
    rng = np.random.default_rng(4)
    params = TrajMetricParams()
    est, truth = _crossing_pair(rng, 4)
    bases = {}
    for k in range(1, 4):
        trajectory_metric(est, truth, params, k, bases)
    labels = ((("e", 0), ("e", 1)), (("t", 0), ("t", 1)))
    pairs = np.arange(4)
    geometry = metric._geometry(est, truth, 4)
    cost, _ = metric._cluster_costs(geometry, np.ones((2, 2), dtype=bool), params)
    assert _warm_start(bases, *labels, 1, 4, pairs, cost) is not None
    assert _warm_start(bases, *labels, 1, 5, pairs, cost) is None  # a skipped step
    assert _warm_start(bases, *labels, 0, 5, pairs, cost) is None  # t0 moved
    # t0 one later and a step skipped: T-1 steps again, but shifted by one
    assert _warm_start(bases, *labels, 2, 4, pairs, cost) is None
    assert _warm_start(bases, labels[0][:1], labels[1], 1, 4, pairs, cost) is None  # one left
    repeated = (labels[0] + labels[0][:1], labels[1])
    assert _warm_start(bases, *repeated, 1, 4, pairs, cost) is None
    # two clusters of k-1 inside this one
    ((key, entry),) = bases.items()
    other = ((("e", 5),), (("t", 5),), 1)
    two = {key: entry, other: entry}
    merged = (labels[0] + other[0], labels[1] + other[1])
    assert _warm_start(two, *merged, 1, 4, pairs, cost) is None
    assert _warm_start(two, *labels, 1, 4, pairs, cost) is not None


EVENTS = ("keep", "join later", "join earlier", "leave", "reorder", "repeat", "skip")


@needs_highs
@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.0, 1.0]),
    n_truth=st.integers(1, 3),
    events=st.lists(st.sampled_from(EVENTS), min_size=3, max_size=12),
)
def test_any_cluster_history_scores_the_same_with_bases(seed, gamma, n_truth, events):
    """Estimates join (starting at the current step or before every other
    track, which moves t0), leave, reorder or repeat a label, steps are
    skipped, and every estimate's past moves a little at each step, as a
    smoother's would: with ``bases`` each breakdown is the cold one."""
    rng = np.random.default_rng(seed)
    params = TrajMetricParams(gamma=gamma)
    K = len(events) + 1
    truth = [_walk(rng, ("t", j), 2, K - 1, (2.0 * j, 0.0)) for j in range(n_truth)]
    paths = {}  # label -> (start, positions on steps start..K)

    def add(label, start):
        """A noisy copy of a random truth, on steps 1..K repeating its first position."""
        base = truth[int(rng.integers(n_truth))].positions
        positions = np.vstack([base[:1], base])[start - 1 :]
        paths[label] = (start, positions + rng.normal(0.0, 1.0, size=positions.shape))

    roster = []
    for i in range(max(1, n_truth - 1)):
        add(("e", i), 2)
        roster.append(("e", i))
    bases = {}
    for k, event in enumerate(events, start=2):
        if event == "join later":
            roster.append(("e", len(paths)))
            add(roster[-1], k)
        elif event == "join earlier":
            roster.append(("e", len(paths)))
            add(roster[-1], 1)
        elif event == "leave" and len(roster) > 1:
            roster.pop(int(rng.integers(len(roster))))
        elif event == "reorder":
            roster = [roster[i] for i in rng.permutation(len(roster))]
        elif event == "repeat":
            roster.append(roster[int(rng.integers(len(roster)))])
        if event == "skip":
            continue
        est = []
        for label in roster:
            start, positions = paths[label]
            moved = positions + rng.normal(0.0, 0.1, size=positions.shape)
            est.append(Track(label, start, moved))
        warm = trajectory_metric(est, truth, params, k, bases)
        assert _bits(warm) == _bits(trajectory_metric(est, truth, params, k)), f"step {k}"
