"""Property tests: the stacked gate kernel, the row merge of the
global-hypothesis table, the posterior invariants, the scenario loader and
the CLI's handling of ground-truth files and option values."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trpmbm.cli import main
from trpmbm.filter import (
    KINDS,
    _by_weight,
    _merged,
    _row_order,
    check_posterior,
    initial_posterior,
    step,
)
from trpmbm.gaussian import GaussianBranchComponent, gate_loglik, innovation, last_states
from trpmbm.models import (
    BirthComponent,
    FilterParams,
    MeasurementModel,
    MotionMode,
    ScenarioConfig,
    ScenarioError,
    default_scenario,
    scenario_from_dict,
)
from oracles import gate_loglik_one, innovation_one, merged_by_dict

CFG = default_scenario()


def _components(rng, n, nx, flat_last):
    """n components with live windows of 1-4 states; ``flat_last`` zeroes the
    covariance of each last state, so S is R alone."""
    out = []
    for _ in range(n):
        dim = int(rng.integers(1, 5)) * nx
        A = rng.normal(size=(dim, dim)) * rng.uniform(0.1, 30.0)
        cov = A @ A.T
        if flat_last:
            cov[-nx:, :] = 0.0
            cov[:, -nx:] = 0.0
        mean = rng.normal(size=dim) * 100.0
        out.append(GaussianBranchComponent(mean, cov, nx))
    return out


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(0, 6),
    nz=st.sampled_from([1, 2]),
    nx=st.sampled_from([2, 4]),
    singular=st.booleans(),
    threshold=st.sampled_from([1.0, 15.0, math.inf]),
)
def test_stacked_gate_matches_per_component_formulas(
    seed, n, m, nz, nx, singular, threshold
):
    rng = np.random.default_rng(seed)
    comps = _components(rng, n, nx, flat_last=singular)
    H = rng.normal(size=(nz, nx))
    if singular:
        R = 1e-200 * np.eye(nz)  # S underflows to singular: jitter needed
    else:
        B = rng.normal(size=(nz, nz))
        R = B @ B.T + 0.1 * np.eye(nz)
    Z = rng.normal(size=(m, nz)) * 30.0

    zhat, S = innovation(last_states(comps), H, R)
    inside, loglik = gate_loglik(S, Z - zhat[:, None, :], threshold)
    assert zhat.shape == (n, nz) and S.shape == (n, nz, nz)
    assert inside.shape == loglik.shape == (n, m)
    for i, c in enumerate(comps):
        zhat_i, S_i = innovation_one(c, H, R)
        rows, loglik_i = gate_loglik_one(S_i, Z - zhat_i, threshold)
        assert np.array_equal(zhat[i], zhat_i)
        assert np.array_equal(S[i], S_i)
        assert np.array_equal(np.flatnonzero(inside[i]), rows)
        if nz == 2:
            assert np.array_equal(loglik[i, rows], loglik_i)
        else:
            np.testing.assert_allclose(loglik[i, rows], loglik_i, rtol=1e-12, atol=1e-12)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    cols=st.integers(0, 5),
    values=st.integers(1, 4),
)
def test_row_merge_matches_dict_reference(seed, n, cols, values):
    # few distinct values per column, so many rows repeat
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, values, size=(n, cols)).astype(np.intp)
    log_w = rng.normal(size=n) * 5.0
    logs, distinct = _merged(log_w, rows)
    want_logs, want_rows = merged_by_dict(log_w, rows)
    assert np.array_equal(distinct, want_rows)
    assert np.array_equal(logs, want_logs)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    cols=st.integers(0, 6),
    high=st.sampled_from([1, 2, 3, 2**31 - 1]),
    kind=st.sampled_from(["int32", "bool", "int32 columns of a wider table"]),
)
def test_row_orders_match_lexsort(seed, n, cols, high, kind):
    # tied rows (few values), constant columns, zero-width tables, entries
    # that fill all four bytes, bool tables and a strided view
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, high, size=(n, cols), endpoint=True).astype(np.int32)
    rows[:, rng.random(cols) < 0.3] = high
    if kind == "bool":
        rows = rows % 2 == 1
    elif kind == "int32 columns of a wider table":
        rows = np.hstack([rows, rows])[:, ::2]
    want = np.lexsort(rows.T[::-1]) if cols else np.arange(n)
    assert np.array_equal(_row_order(rows), want)
    log_w = rng.integers(-2, 1, size=n).astype(float)  # tied weights
    assert np.array_equal(_by_weight(log_w, rows), np.lexsort((*rows.T[::-1], -log_w)))


_point = st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 400.0))
_near_birth = st.tuples(st.floats(280.0, 320.0), st.floats(150.0, 190.0))
_scan = st.tuples(
    st.lists(st.one_of(_point, _near_birth), max_size=3),
    st.one_of(st.none(), st.tuples(_near_birth, st.integers(2, 4))),
).map(lambda parts: parts[0] + ([parts[1][0]] * parts[1][1] if parts[1] else []))


@settings(max_examples=100)
@given(
    kind=st.sampled_from(KINDS),
    p_d=st.sampled_from([0.0, 0.9, 1.0]),
    p_s=st.sampled_from([0.0, 0.99, 1.0]),
    clutter=st.sampled_from([0.0, 10.0]),
    birth_weight=st.sampled_from([0.0, 0.08]),
    scans=st.lists(_scan, min_size=1, max_size=6),
)
def test_step_keeps_posterior_invariants(kind, p_d, p_s, clutter, birth_weight, scans):
    # zero clutter, certain or impossible detection and survival, no births,
    # empty scans and bursts of co-located measurements
    birth = CFG.births[0]
    cfg = replace(
        CFG,
        modes=(replace(CFG.modes[0], prob=p_s),) + CFG.modes[1:],
        measurement=replace(CFG.measurement, p_detect=p_d, clutter_rate=clutter),
        births=(BirthComponent(birth_weight, birth.mean, birth.cov),),
    )
    post = initial_posterior()
    for points in scans:
        Z = np.array(points, dtype=float).reshape(-1, 2)
        post = step(post, Z, cfg, kind, validate=True)
        assert check_posterior(post) == []


_TOP_KEYS = ("rho", "modes", "measurement", "birth", "birth_type", "horizon", "filters", "seed")
_PLACES = (
    [(None, key) for key in _TOP_KEYS]
    + [("measurement", f.name) for f in fields(MeasurementModel)]
    + [("filters", f.name) for f in fields(FilterParams)]
    + [("modes", f.name) for f in fields(MotionMode)]
    + [("birth", f.name) for f in fields(BirthComponent)]
)


# the shape each matrix field expects
_SHAPES = {"F": (4, 4), "Q": (4, 4), "cov": (4, 4), "H": (2, 4), "R": (2, 2),
           "clutter_region": (2, 2), "mean": (4,), "offset": (4,)}
_entry = st.floats() | st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf])
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | _entry | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _value_for(key):
    """Any JSON value; for a matrix field, also well-shaped arrays whose
    entries may be NaN or infinite."""
    if key not in _SHAPES:
        return _json_value
    shape = _SHAPES[key]
    array = st.lists(_entry, min_size=shape[-1], max_size=shape[-1])
    if len(shape) == 2:
        array = st.lists(array, min_size=shape[0], max_size=shape[0])
    return _json_value | array


@settings(max_examples=400)
@given(st.sampled_from(_PLACES).flatmap(lambda p: st.tuples(st.just(p), _value_for(p[1]))))
def test_scenario_loader_gives_config_or_scenario_error(case):
    # any JSON value under any top-level or section key
    (section, key), value = case
    if section is None:
        data = {key: value}
    elif section in ("modes", "birth"):
        data = {section: [{key: value}]}
    else:
        data = {section: {key: value}}
    try:
        cfg = scenario_from_dict(data)
    except ScenarioError:
        return
    assert isinstance(cfg, ScenarioConfig)


# trees of branch lines near the format (start; marks; states), each part
# off now and then, and lines of format characters in any order
_coord = st.one_of(
    st.floats(-100.0, 100.0).map(repr),
    st.floats(-100.0, 100.0).map(repr),
    st.sampled_from(["nan", "inf", "1e400", "x"]),
)
_state = st.one_of(
    st.lists(_coord, min_size=4, max_size=4),
    st.lists(_coord, min_size=4, max_size=4),
    st.lists(_coord, min_size=3, max_size=5),
).map(" ".join)
_branch = st.tuples(
    st.integers(1, 3).map(str) | st.sampled_from(["0", "-1", "x", "99999999999999999999"]),
    st.lists(st.integers(0, 3).map(str), min_size=1, max_size=3).map(",".join),
    st.lists(_state, min_size=1, max_size=3),
).map(lambda parts: "; ".join([parts[0], parts[1], *parts[2]]))
_line = st.one_of(
    _branch, _branch, _branch, st.just(""), st.text(alphabet="0123456789;,. -nai\n", max_size=30)
)
_truth_text = st.lists(_line, max_size=5).map("\n".join)


@settings(max_examples=60)
@given(_truth_text)
def test_cli_answers_any_truth_file_with_outputs_or_a_json_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s.json").write_text(json.dumps({"horizon": 3}))
        (tmp / "truth.txt").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["--scenario", str(tmp / "s.json"), "--truth", str(tmp / "truth.txt"),
                 "--runs", "1", "--out", str(tmp / "out")]
            )  # fmt: skip
    if code != 0:
        payload = json.loads(err.getvalue())
        assert set(payload) == {"error", "message"}


_kinds = st.lists(st.sampled_from([*KINDS, "nope", ""]), max_size=3).map(",".join)
_windows = st.one_of(
    st.none(), st.lists(st.sampled_from(["-1", "0", "1", "2", "x", ""]), max_size=3).map(",".join)
)


@settings(max_examples=40)
@given(
    filters=_kinds,
    lscan=_windows,
    runs=st.sampled_from([-1, 0, 1]),
    seed=st.one_of(st.none(), st.integers(-2, 2**40)),
    jobs=st.integers(-2, 3),
)
def test_cli_answers_any_option_values_with_outputs_or_a_json_error(
    filters, lscan, runs, seed, jobs
):
    # at most one run, so no process pool ever starts
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s.json").write_text(json.dumps({"horizon": 3}))
        argv = ["--scenario", str(tmp / "s.json"), "--filters", filters,
                "--runs", str(runs), "--jobs", str(jobs), "--out", str(tmp / "out")]  # fmt: skip
        if lscan is not None:
            argv += ["--lscan", lscan]
        if seed is not None:
            argv += ["--seed", str(seed)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code == 0:
            assert (tmp / "out" / "timing.csv").is_file()
    if code != 0:
        payload = json.loads(err.getvalue())
        assert set(payload) == {"error", "message"}
