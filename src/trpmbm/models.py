"""Scenario configuration, motion/measurement models, and data sampling.

The default scenario is a two-dimensional surveillance region with nearly
constant velocity motion, two spawning modes that push offspring
perpendicular to the parent's heading (one to each side), position
measurements in clutter, and a single Gaussian birth component.  Every
value can be overridden from a JSON file; missing fields keep the
defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .trees import Branch, TreeTrajectory, targets_at_time, trees_to_text

NX = 4  # state: [px, vx, py, vy]
NZ = 2

PERP_FALLBACK = np.array([0.0, 0.0, 1.0, 0.0])
SPEED_EPS = 1e-6
SAMPLE_JITTER = 1e-12  # the samplers factor Q and birth cov plus this on the diagonal


class ScenarioError(ValueError):
    """Configuration file failed to parse or validate."""


def perp_units(X: np.ndarray) -> np.ndarray:
    """Unit vectors perpendicular to the headings of states [px, vx, py, vy],
    one row per row of X.

    Degenerate (near-zero) speed falls back to the +y direction so the
    spawning offset stays well defined for stationary targets.  Each speed
    is a `math.hypot`, as for a single state.
    """
    vx, vy = X[:, 1], X[:, 3]
    speed = np.array([math.hypot(a, b) for a, b in zip(vx.tolist(), vy.tolist())])
    slow = speed < SPEED_EPS
    zero = np.zeros(len(X))
    units = np.stack([-vy, zero, vx, zero], axis=1) / np.where(slow, 1.0, speed)[:, None]
    units[slow] = PERP_FALLBACK
    return units


def perp_unit(x: np.ndarray) -> np.ndarray:
    """`perp_units` of one state."""
    return perp_units(np.asarray(x, dtype=float)[None])[0]


@dataclass(frozen=True)
class MotionMode:
    """One transition channel: survival or a spawning mode.

    The offset is either a fixed vector or ``perp_scale * perp_unit(x)``.
    """

    prob: float
    F: np.ndarray
    Q: np.ndarray
    offset: np.ndarray | None = None
    perp_scale: float | None = None

    def offsets_at(self, X: np.ndarray) -> np.ndarray:
        """The offset at each row of the states X (N, n_x)."""
        shape = (len(X), self.F.shape[0])
        if self.perp_scale is not None:
            return self.perp_scale * perp_units(X)
        if self.offset is not None:
            return np.broadcast_to(self.offset, shape)
        return np.zeros(shape)

    def offset_at(self, x: np.ndarray) -> np.ndarray:
        return self.offsets_at(np.asarray(x, dtype=float)[None])[0]


@dataclass(frozen=True)
class MeasurementModel:
    H: np.ndarray
    R: np.ndarray
    p_detect: float
    clutter_rate: float
    clutter_region: np.ndarray  # [[xmin, xmax], [ymin, ymax]]

    @property
    def clutter_area(self) -> float:
        spans = self.clutter_region[:, 1] - self.clutter_region[:, 0]
        return float(np.prod(spans))

    @property
    def clutter_density(self) -> float:
        # uniform spatial clutter intensity, rate spread over the region
        return self.clutter_rate / self.clutter_area


@dataclass(frozen=True)
class BirthComponent:
    weight: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class FilterParams:
    n_hyp: int = 100
    gamma_mbm: float = 1e-4
    gamma_ppp: float = 1e-4
    gamma_bern: float = 1e-4
    gamma_alive: float = 1e-4
    gamma_estimate: float = 0.4
    gate: float = 15.0
    lscan: int = 5


@dataclass(frozen=True)
class ScenarioConfig:
    # survival first; a spawning mode's genealogy mark is its 1-based position
    modes: tuple[MotionMode, ...]
    measurement: MeasurementModel
    births: tuple[BirthComponent, ...]
    horizon: int = 100
    birth_type: str = "ppp"  # "ppp" | "mb"
    filters: FilterParams = field(default_factory=FilterParams)
    seed: int = 0

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def survival(self) -> MotionMode:
        return self.modes[0]

    @property
    def spawn_modes(self) -> tuple[MotionMode, ...]:
        return self.modes[1:]


def default_scenario() -> ScenarioConfig:
    """Two perpendicular spawning modes, CV motion, the standard parameters."""
    tau, q = 1.0, 0.01
    F1 = np.kron(np.eye(2), np.array([[1.0, tau], [0.0, 1.0]]))
    Q1 = q * np.kron(
        np.eye(2),
        np.array([[tau**3 / 3.0, tau**2 / 2.0], [tau**2 / 2.0, tau]]),
    )
    F2 = np.array(
        [
            [1.0, 0.0, 0.0, -tau],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, tau, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    F3 = np.array(
        [
            [1.0, 0.0, 0.0, tau],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -tau, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    modes = (
        MotionMode(0.99, F1, Q1, offset=np.zeros(NX)),
        MotionMode(0.01, F2, Q1, perp_scale=5.0),
        MotionMode(0.01, F3, Q1, perp_scale=-5.0),
    )
    measurement = MeasurementModel(
        H=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        R=4.0 * np.eye(2),
        p_detect=0.9,
        clutter_rate=10.0,
        clutter_region=np.array([[0.0, 600.0], [0.0, 400.0]]),
    )
    births = (
        BirthComponent(
            weight=0.08,
            mean=np.array([300.0, 3.0, 170.0, 1.0]),
            cov=np.diag([160.0**2, 1.0, 100.0**2, 1.0]),
        ),
    )
    return ScenarioConfig(modes=modes, measurement=measurement, births=births)


def no_spawning(cfg: ScenarioConfig) -> ScenarioConfig:
    """The same scenario with the spawning modes removed (single-mode case)."""
    return replace(cfg, modes=cfg.modes[:1])


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "rho",
    "modes",
    "measurement",
    "birth",
    "birth_type",
    "horizon",
    "filters",
    "seed",
}
_MODE_KEYS, _MEAS_KEYS, _BIRTH_KEYS, _FILTER_KEYS = (
    {f.name for f in fields(cls)}
    for cls in (MotionMode, MeasurementModel, BirthComponent, FilterParams)
)


def _known(section: dict, keys: set[str], where: str, problems: list[str]) -> dict:
    """``section`` without its fields outside ``keys``, which are reported."""
    unknown = set(section) - keys
    if unknown:
        problems.append(f"{where}: unknown fields {sorted(unknown)}")
    return {k: v for k, v in section.items() if k in keys}


def _scalar(section: dict, key: str, default, where: str, problems: list[str]):
    """``section[key]``, or ``default`` when absent, as the type of ``default``.

    Only finite JSON numbers are accepted, and integer fields take only
    integral values.  A bad value is reported as field ``where + key`` and
    replaced by ``default``, so loading goes on collecting problems.
    """
    value = section.get(key, default)
    kind = type(default)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        out = kind(value)
        if (out != value and kind is int) or not math.isfinite(out):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a finite number"
        problems.append(f"{where}{key}: expected {noun}, got {value!r:.60}")
        return default


def _matrix(value, shape, what, problems) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{what}: expected numbers, got {value!r:.60}")
        return np.zeros(shape)
    if arr.shape != shape:
        problems.append(f"{what}: expected shape {shape}, got {arr.shape}")
        return np.zeros(shape)
    if not np.isfinite(arr).all():
        problems.append(f"{what}: expected finite numbers, got {value!r:.60}")
        return np.zeros(shape)
    return arr


def _entry(entry: dict, defaults: tuple, i: int, key: str, problems: list[str]) -> dict:
    """Entry ``i`` of the list ``key``, its missing fields taken from the
    default scenario's entry at the same index, ``defaults[i]``.  A mode's
    ``offset`` and ``perp_scale`` are one field, its offset.  Past the end
    of ``defaults`` every field must be given, and the missing ones are
    reported."""
    given = set(entry)
    if given & {"offset", "perp_scale"}:
        given |= {"offset", "perp_scale"}
    if i < len(defaults):
        default = defaults[i]
        kept = {f.name: getattr(default, f.name) for f in fields(default) if f.name not in given}
        return {**kept, **entry}
    absent = [f.name for f in fields(defaults[0]) if f.name not in given | {"perp_scale"}]
    if absent:
        problems.append(
            f"{key}[{i}]: missing fields {absent}; only the first {len(defaults)} have defaults"
        )
    return entry


def _section_problems(data: dict) -> list[str]:
    """Sections of the wrong JSON type ('modes' may be null next to 'rho')."""
    problems = []
    for key in ("measurement", "filters"):
        if key in data and not isinstance(data[key], dict):
            problems.append(f"{key}: expected an object, got {data[key]!r:.60}")
    for key in ("modes", "birth"):
        value = data.get(key)
        if key not in data or (key == "modes" and value is None):
            continue
        if not isinstance(value, list):
            problems.append(f"{key}: expected a list of objects, got {value!r:.60}")
            continue
        for i, entry in enumerate(value):
            if not isinstance(entry, dict):
                problems.append(f"{key}[{i}]: expected an object, got {entry!r:.60}")
    return problems


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a JSON scenario file; blank files mean 'all defaults'.

    Raises ScenarioError listing every parse or validation problem found.
    """
    text = Path(path).read_text()
    if not text.strip():
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ScenarioError(
                f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
            ) from err
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data: dict, source: str = "<dict>") -> ScenarioConfig:
    problems = _section_problems(data)
    if problems:
        raise ScenarioError(f"{source}:\n  " + "\n  ".join(problems))
    base = default_scenario()

    unknown = set(data) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")

    modes = list(base.modes)
    if data.get("modes") is not None or "rho" in data:
        raw_modes = data.get("modes")
        if raw_modes is None:
            # rho given alone: keep defaults truncated/checked against it
            rho = _scalar(data, "rho", len(modes), "", problems)
            if rho < 1:
                problems.append(f"rho must be >= 1, got {rho}")
            elif rho <= len(modes):
                modes = modes[:rho]
            else:
                problems.append(
                    f"rho={rho} but only {len(modes)} default modes exist; give 'modes'"
                )
        else:
            modes = []
            for i, m in enumerate(raw_modes):
                _known(m, _MODE_KEYS, f"modes[{i}]", problems)
                m = _entry(m, base.modes, i, "modes", problems)
                prob = _scalar(m, "prob", 0.0, f"modes[{i}].", problems)
                F = _matrix(m.get("F", np.eye(NX)), (NX, NX), f"modes[{i}].F", problems)
                Q = _matrix(m.get("Q", np.zeros((NX, NX))), (NX, NX), f"modes[{i}].Q", problems)
                offset = None
                perp_scale = None
                if m.get("perp_scale") is not None:
                    perp_scale = _scalar(m, "perp_scale", 0.0, f"modes[{i}].", problems)
                elif "offset" in m:
                    offset = _matrix(m["offset"], (NX,), f"modes[{i}].offset", problems)
                else:
                    offset = np.zeros(NX)
                modes.append(MotionMode(prob, F, Q, offset, perp_scale))
            if "rho" in data and _scalar(data, "rho", len(modes), "", problems) != len(modes):
                problems.append(
                    f"rho={data['rho']} does not match {len(modes)} modes"
                )

    meas = base.measurement
    if "measurement" in data:
        m = data["measurement"]
        _known(m, _MEAS_KEYS, "measurement", problems)
        meas = MeasurementModel(
            H=_matrix(m.get("H", meas.H), (NZ, NX), "measurement.H", problems),
            R=_matrix(m.get("R", meas.R), (NZ, NZ), "measurement.R", problems),
            p_detect=_scalar(m, "p_detect", meas.p_detect, "measurement.", problems),
            clutter_rate=_scalar(m, "clutter_rate", meas.clutter_rate, "measurement.", problems),
            clutter_region=_matrix(
                m.get("clutter_region", meas.clutter_region),
                (2, 2),
                "measurement.clutter_region",
                problems,
            ),
        )

    births = list(base.births)
    if "birth" in data:
        births = []
        for i, b in enumerate(data["birth"]):
            _known(b, _BIRTH_KEYS, f"birth[{i}]", problems)
            b = _entry(b, base.births, i, "birth", problems)
            births.append(
                BirthComponent(
                    weight=_scalar(b, "weight", 0.0, f"birth[{i}].", problems),
                    mean=_matrix(b.get("mean", np.zeros(NX)), (NX,), f"birth[{i}].mean", problems),
                    cov=_matrix(b.get("cov", np.eye(NX)), (NX, NX), f"birth[{i}].cov", problems),
                )
            )

    filt = base.filters
    if "filters" in data:
        f = _known(data["filters"], _FILTER_KEYS, "filters", problems)
        filt = replace(
            filt, **{k: _scalar(f, k, getattr(filt, k), "filters.", problems) for k in f}
        )

    cfg = ScenarioConfig(
        modes=tuple(modes),
        measurement=meas,
        births=tuple(births),
        horizon=_scalar(data, "horizon", base.horizon, "", problems),
        birth_type=str(data.get("birth_type", base.birth_type)),
        filters=filt,
        seed=_scalar(data, "seed", base.seed, "", problems),
    )
    problems.extend(validate_scenario(cfg))
    if problems:
        raise ScenarioError(f"{source}:\n  " + "\n  ".join(problems))
    return cfg


def _covariance_problems(M: np.ndarray, field: str, jitter: float) -> list[str]:
    """Why the samplers cannot use M: they factor cholesky(M + jitter I),
    which reads the lower triangle only, so M must also be symmetric."""
    if not np.allclose(M, M.T, atol=1e-9):
        return [f"{field} not symmetric"]
    try:
        np.linalg.cholesky(M + jitter * np.eye(len(M)))
    except np.linalg.LinAlgError:
        return [f"{field} not positive {'semi' if jitter else ''}definite"]
    return []


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    problems = []
    if not cfg.modes:
        problems.append("at least one motion mode is required")
    for i, m in enumerate(cfg.modes):
        if not 0.0 <= m.prob <= 1.0:
            problems.append(f"modes[{i}].prob {m.prob} outside [0, 1]")
        problems += _covariance_problems(m.Q, f"modes[{i}].Q", SAMPLE_JITTER)
    if not 0.0 <= cfg.measurement.p_detect <= 1.0:
        problems.append(f"p_detect {cfg.measurement.p_detect} outside [0, 1]")
    if cfg.measurement.clutter_rate < 0:
        problems.append(f"clutter_rate {cfg.measurement.clutter_rate} negative")
    region = cfg.measurement.clutter_region
    with np.errstate(over="ignore"):
        area = cfg.measurement.clutter_area
    if np.any(region[:, 1] <= region[:, 0]):
        problems.append("clutter_region spans must be positive")
    elif not 0.0 < area < math.inf:  # the spans' product can underflow or overflow
        problems.append(f"clutter_region area {area} must be a positive finite number")
    elif not math.isfinite(cfg.measurement.clutter_rate / area):
        problems.append(
            f"clutter_rate {cfg.measurement.clutter_rate} over the clutter_region area "
            f"{area} must be a finite clutter density"
        )
    problems += _covariance_problems(cfg.measurement.R, "measurement.R", 0.0)
    for i, b in enumerate(cfg.births):
        if b.weight < 0:
            problems.append(f"birth[{i}].weight {b.weight} negative")
        problems += _covariance_problems(b.cov, f"birth[{i}].cov", SAMPLE_JITTER)
    if cfg.horizon < 1:
        problems.append(f"horizon {cfg.horizon} must be >= 1")
    if cfg.seed < 0:
        problems.append(f"seed {cfg.seed} must be >= 0")
    if cfg.birth_type not in ("ppp", "mb"):
        problems.append(f"birth_type {cfg.birth_type!r} not one of 'ppp', 'mb'")
    f = cfg.filters
    if f.n_hyp < 1:
        problems.append(f"n_hyp {f.n_hyp} must be >= 1")
    for name in ("gamma_mbm", "gamma_ppp", "gamma_bern", "gamma_alive", "gamma_estimate", "gate"):
        if getattr(f, name) <= 0:
            problems.append(f"{name} must be > 0, got {getattr(f, name)}")
    if f.lscan < 1:
        problems.append(f"lscan {f.lscan} must be >= 1")
    return problems


# ---------------------------------------------------------------------------
# Sampling.  Counter-based streams keyed by (run, purpose, step, item) keep
# runs reproducible and independent of each other.
# ---------------------------------------------------------------------------

_TRUTH_BIRTH, _TRUTH_TREE, _MEAS = 1, 2, 3


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class _GrowingBranch:
    __slots__ = ("marks", "states")

    def __init__(self, marks, states):
        self.marks = marks
        self.states = states


def sample_ground_truth(
    cfg: ScenarioConfig, seed: int, run: int = 0
) -> list[TreeTrajectory]:
    """Draw a full set of tree trajectories over the scenario horizon."""
    chol_q = [np.linalg.cholesky(m.Q + SAMPLE_JITTER * np.eye(NX)) for m in cfg.modes]
    chol_b = [np.linalg.cholesky(b.cov + SAMPLE_JITTER * np.eye(NX)) for b in cfg.births]
    weights = np.array([b.weight for b in cfg.births])
    total_birth = weights.sum()

    trees: list[tuple[int, list[_GrowingBranch]]] = []
    for k in range(1, cfg.horizon + 1):
        # evolve existing trees into step k
        for ti, (start, branches) in enumerate(trees):
            rng = _stream(seed, run, _TRUTH_TREE, k, ti)
            survival = cfg.survival
            for br in list(branches):
                if br.marks[-1] == 0:
                    br.marks.append(0)
                    continue
                parent_prefix = list(br.marks)
                x = br.states[-1]
                if rng.random() < survival.prob:
                    noise = chol_q[0] @ rng.standard_normal(NX)
                    br.states.append(survival.F @ x + survival.offset_at(x) + noise)
                    br.marks.append(1)
                else:
                    br.marks.append(0)
                for mi, mode in enumerate(cfg.spawn_modes, start=1):
                    if rng.random() < mode.prob:
                        noise = chol_q[mi] @ rng.standard_normal(NX)
                        child = mode.F @ x + mode.offset_at(x) + noise
                        branches.append(_GrowingBranch(parent_prefix + [mi + 1], [child]))
        # births at step k
        rng = _stream(seed, run, _TRUTH_BIRTH, k)
        if total_birth > 0:
            if cfg.birth_type == "mb":
                n_new = int(rng.random() < min(total_birth, 1.0))
            else:
                n_new = rng.poisson(total_birth)
        else:
            n_new = 0
        for _ in range(n_new):
            q = int(rng.choice(len(cfg.births), p=weights / total_birth))
            x = cfg.births[q].mean + chol_b[q] @ rng.standard_normal(NX)
            trees.append((k, [_GrowingBranch([1], [x])]))

    return [
        TreeTrajectory(start, [Branch(tuple(b.marks), np.array(b.states)) for b in branches])
        for start, branches in trees
    ]


def sample_measurements(
    truth: list[TreeTrajectory],
    cfg: ScenarioConfig,
    k: int,
    seed: int,
    run: int = 0,
) -> np.ndarray:
    """Measurement set at step k: detections of alive targets plus clutter."""
    meas = cfg.measurement
    rng = _stream(seed, run, _MEAS, k)
    chol_r = np.linalg.cholesky(meas.R)
    rows = []
    for tree in truth:
        if not tree.start_time <= k <= tree.end_time:
            continue
        for x in targets_at_time(tree, k):
            if rng.random() < meas.p_detect:
                rows.append(meas.H @ x + chol_r @ rng.standard_normal(NZ))
    n_clutter = rng.poisson(meas.clutter_rate)
    lo = meas.clutter_region[:, 0]
    hi = meas.clutter_region[:, 1]
    for _ in range(n_clutter):
        rows.append(lo + rng.random(NZ) * (hi - lo))
    if not rows:
        return np.zeros((0, NZ))
    return np.array(rows)


def sample_measurement_sequence(
    truth: list[TreeTrajectory], cfg: ScenarioConfig, seed: int, run: int = 0
) -> list[np.ndarray]:
    return [
        sample_measurements(truth, cfg, k, seed, run)
        for k in range(1, cfg.horizon + 1)
    ]


def write_ground_truth(trees: list[TreeTrajectory], path: str | Path) -> None:
    Path(path).write_text(trees_to_text(trees))


def write_measurements(seq: list[np.ndarray], path: str | Path) -> None:
    lines = ["k,z1,z2"]
    for k, Z in enumerate(seq, start=1):
        for z in Z:
            lines.append(f"{k},{z[0]!r},{z[1]!r}")
    Path(path).write_text("\n".join(lines) + "\n")
