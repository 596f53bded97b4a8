"""Multi-Bernoulli-mixture recursion over sets of tree trajectories.

The posterior splits into a Poisson intensity for never-detected trees and
a weighted mixture of global hypotheses over Bernoulli trees.  Each tree
holds branch slots; each slot holds local hypotheses (one per measurement
history) with a weight, an existence probability and an end-time mixture
of Gaussians over the branch's state sequence.

One filtering step runs: predict (branch survival mass redistribution plus
one new potential branch per spawning mode per parent slot), window
truncation, measurement update (missed/detected local hypotheses, new
Bernoulli trees off every measurement), global-hypothesis formation via
k-best assignment per parent hypothesis, and pruning.

Three operating modes share the recursion:
  kind='trpmbm'  Poisson birth into the undetected-tree intensity.
  kind='trmbm'   zero intensity, one birth Bernoulli tree per step.
  kind='tpmbm'   'trpmbm' with the spawning modes removed.

All weights live in the log domain.  Structures are immutable; every
operation returns a new posterior and shares unchanged pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .assignment import murty_kbest
from .gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    PPPComponent,
    condition,
    gate_loglik,
    innovation,
    l_scan_truncate,
    l_scan_truncate_component,
    predict_augment_survive,
    spawn_component,
)
from .models import NX, BirthComponent, ScenarioConfig, no_spawning
from .trees import Branch, TreeTrajectory

LOG_FLOOR = -700.0  # stand-in for log 0 where a finite baseline is required

KINDS = ("trpmbm", "trmbm", "tpmbm")


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class LocalHyp:
    """One measurement history of a branch slot."""

    log_w: float
    r: float
    density: BranchDensity | None  # None when r == 0 and nothing is tracked
    assoc: frozenset  # {(step, measurement index)}


@dataclass(frozen=True)
class BranchSlot:
    branch_id: tuple[int, ...]  # genealogy prefix up to last spawning, tree-relative
    hyps: tuple[LocalHyp, ...]


@dataclass(frozen=True)
class BernoulliTree:
    start_time: int
    slots: tuple[BranchSlot, ...]


@dataclass(frozen=True)
class GlobalHyp:
    log_w: float
    selection: tuple[tuple[int, ...], ...]  # per tree, per slot: local hyp index


@dataclass(frozen=True)
class Posterior:
    step: int
    ppp: tuple[PPPComponent, ...]
    trees: tuple[BernoulliTree, ...]
    hypotheses: tuple[GlobalHyp, ...]


def initial_posterior() -> Posterior:
    return Posterior(0, (), (), (GlobalHyp(0.0, ()),))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _birth_component(b: BirthComponent) -> GaussianBranchComponent:
    """Single-state Gaussian of a newborn branch, with the birth term's moments."""
    return GaussianBranchComponent(
        (1,), np.asarray(b.mean, dtype=float), np.asarray(b.cov, dtype=float), NX
    )


def ppp_predict(
    ppp: tuple[PPPComponent, ...], cfg: ScenarioConfig, k: int
) -> tuple[PPPComponent, ...]:
    """Survival-thinned continuation of every intensity term, plus births."""
    surv = cfg.survival
    out = []
    if surv.prob > 0.0:
        log_ps = math.log(surv.prob)
        for comp in ppp:
            moved = predict_augment_survive(
                comp.comp, surv.F, surv.offset_at(comp.comp.last_mean), surv.Q
            )
            out.append(PPPComponent(comp.log_weight + log_ps, comp.start_time, moved))
    for b in cfg.births:
        out.append(PPPComponent(_log(b.weight), k, _birth_component(b)))
    return tuple(out)


def tree_predict(
    tree: BernoulliTree, cfg: ScenarioConfig, k: int
) -> tuple[BernoulliTree, list[int]]:
    """Advance one Bernoulli tree to step k.

    Surviving slots keep their existence; the alive end-time mass splits
    into death-at-(k-1) and alive-at-k with a Kalman-augmented component.
    Every (spawning mode, parent slot) pair appends a new slot whose local
    hypotheses parallel the parent's, each existing with probability
    r * p_spawn * beta(k-1).  Frozen or dead hypotheses pass through
    untouched; slots with no alive existence mass produce no spawn slots
    (every spawn hypothesis would carry exactly zero existence).

    Returns the advanced tree and, for the appended slots in order, the
    index of the parent slot each one was spawned from.
    """
    surv = cfg.survival
    p_s = surv.prob
    new_slots: list[BranchSlot] = []
    spawnable: list[int] = []
    any_change = False
    for ji, slot in enumerate(tree.slots):
        hyps = []
        alive = False
        changed = False
        for h in slot.hyps:
            prev = h.density.components.get(k - 1) if h.density is not None else None
            if prev is None or prev.beta == 0.0:
                hyps.append(h)
                continue
            if h.r > 0.0:
                alive = True
            cases = dict(h.density.components)
            if p_s < 1.0:
                cases[k - 1] = EndCase(prev.beta * (1.0 - p_s), prev.comp)
            else:
                del cases[k - 1]
            if p_s > 0.0:
                moved = predict_augment_survive(
                    prev.comp, surv.F, surv.offset_at(prev.comp.last_mean), surv.Q
                )
                cases[k] = EndCase(prev.beta * p_s, moved)
            hyps.append(LocalHyp(h.log_w, h.r, BranchDensity(cases), h.assoc))
            changed = True
        if alive:
            spawnable.append(ji)
        any_change = any_change or changed
        new_slots.append(slot if not changed else BranchSlot(slot.branch_id, tuple(hyps)))

    parent_of: list[int] = []
    for mark, mode in enumerate(cfg.spawn_modes, start=2):
        for ji in spawnable:
            slot = tree.slots[ji]
            # deterministic alive genealogy of the parent at step k-1
            pad = (k - 1 - tree.start_time + 1) - len(slot.branch_id)
            child_id = slot.branch_id + (1,) * pad + (mark,)
            hyps = []
            for h in slot.hyps:
                prev = (
                    h.density.components.get(k - 1) if h.density is not None else None
                )
                if prev is None:
                    hyps.append(LocalHyp(0.0, 0.0, None, frozenset()))
                    continue
                r_new = h.r * mode.prob * prev.beta
                predicted_mean = surv.F @ prev.comp.last_mean + surv.offset_at(
                    prev.comp.last_mean
                )
                child = spawn_component(
                    prev.comp, mode.F, mode.offset_at(predicted_mean), mode.Q, mark
                )
                density = BranchDensity({k: EndCase(1.0, child)})
                hyps.append(LocalHyp(0.0, r_new, density, frozenset()))
            new_slots.append(BranchSlot(child_id, tuple(hyps)))
            parent_of.append(ji)
    if not any_change and not parent_of:
        return tree, parent_of
    return BernoulliTree(tree.start_time, tuple(new_slots)), parent_of


def _birth_tree(cfg: ScenarioConfig, k: int) -> BernoulliTree:
    """One Bernoulli tree per birth term (multi-Bernoulli birth mode)."""
    slots = []
    for b in cfg.births:
        density = BranchDensity({k: EndCase(1.0, _birth_component(b))})
        slots.append(
            BranchSlot((1,), (LocalHyp(0.0, min(b.weight, 1.0), density, frozenset()),))
        )
    return BernoulliTree(k, tuple(slots))


def predict(post: Posterior, cfg: ScenarioConfig, kind: str = "trpmbm") -> Posterior:
    k = post.step + 1
    results = [tree_predict(t, cfg, k) for t in post.trees]
    trees = tuple(r[0] for r in results)
    hypotheses = tuple(
        GlobalHyp(
            g.log_w,
            tuple(
                s + tuple(s[p] for p in parents) if parents else s
                for s, (_, parents) in zip(g.selection, results)
            ),
        )
        for g in post.hypotheses
    )
    if kind == "trmbm":
        ppp = ()
        birth = _birth_tree(cfg, k)
        if birth.slots:
            trees = trees + (birth,)
            hypotheses = tuple(
                GlobalHyp(g.log_w, g.selection + ((0,) * len(birth.slots),))
                for g in hypotheses
            )
    else:
        ppp = ppp_predict(post.ppp, cfg, k)
    return Posterior(k, ppp, trees, hypotheses)


def truncate_window(post: Posterior, lscan: int) -> Posterior:
    ppp = tuple(
        replace(c, comp=l_scan_truncate_component(c.comp, lscan)) for c in post.ppp
    )
    trees = []
    for tree in post.trees:
        slots = []
        tree_changed = False
        for slot in tree.slots:
            hyps = []
            changed = False
            for h in slot.hyps:
                if h.density is None:
                    hyps.append(h)
                    continue
                density = l_scan_truncate(h.density, lscan)
                if density is h.density:
                    hyps.append(h)
                else:
                    hyps.append(replace(h, density=density))
                    changed = True
            slots.append(
                slot if not changed else replace(slot, hyps=tuple(hyps))
            )
            tree_changed = tree_changed or changed
        trees.append(tree if not tree_changed else replace(tree, slots=tuple(slots)))
    return replace(post, ppp=ppp, trees=tuple(trees))


# ---------------------------------------------------------------------------
# Update
# ---------------------------------------------------------------------------


@dataclass
class UpdateMaps:
    """Bookkeeping linking predicted hypotheses to their updated children.

    Only hypotheses with nonzero detectable mass appear in miss_logfactor;
    absent keys mean a missed-detection factor of exactly 1 (log 0).  Both
    dicts are filled in (tree, slot, hyp) order.
    """

    miss_logfactor: dict  # (tree, slot, hyp) -> log(1 - r beta(k) pD), != 0 only
    # (tree, slot, hyp) -> {gated meas: (updated hyp index, log w_det - log w_miss)}
    det_meas: dict
    new_tree_logw: np.ndarray  # per measurement: log(clutter + ppp mass)


def update(
    post: Posterior, Z: np.ndarray, cfg: ScenarioConfig
) -> tuple[Posterior, UpdateMaps]:
    """Measurement update: expand local hypotheses, spawn new Bernoulli trees.

    Missed-detection versions sit at the same index as their predicted
    hypothesis, so previous global selections stay valid until
    form_hypotheses rewires the detected ones.  The intensity terms and the
    detectable local hypotheses are each gated against every measurement in
    one stacked call.

    Approximation: a new tree's Bernoulli keeps the Gaussian of the one
    intensity term with the largest weighted likelihood for its measurement
    (ties to the latest start, then the last term), not the mixture over
    every gated term that the exact update gives; its weight and existence
    do sum over all terms.  A measurement that no term gates and that
    clutter cannot explain (zero clutter density) gets the log-weight
    LOG_FLOOR and starts a zero-existence tree.
    """
    k = post.step
    meas = cfg.measurement
    Z = np.asarray(Z, dtype=float).reshape(-1, meas.H.shape[0])
    m_k = Z.shape[0]
    p_d = meas.p_detect
    gate = cfg.filters.gate
    log_clutter = _log(meas.clutter_density)

    # --- Poisson intensity: per-measurement mass and thinning ---------------
    ppp_loglik = np.full((len(post.ppp), m_k), -np.inf)
    live = [qi for qi, c in enumerate(post.ppp) if np.isfinite(c.log_weight)]
    if live and m_k:
        zhat, ppp_S = innovation([post.ppp[qi].comp for qi in live], meas.H, meas.R)
        ppp_innov = Z - zhat[:, None, :]
        inside, loglik = gate_loglik(ppp_S, ppp_innov, gate)
        for row, qi in enumerate(live):
            gated = inside[row]
            log_base = post.ppp[qi].log_weight + _log(p_d)
            ppp_loglik[qi, gated] = log_base + loglik[row, gated]
        row_of = {qi: row for row, qi in enumerate(live)}
    new_tree_logw = np.empty(m_k)
    new_trees = []
    for m in range(m_k):
        col = ppp_loglik[:, m]
        total = float(logsumexp(col)) if len(col) else -np.inf
        log_w2 = max(float(np.logaddexp(log_clutter, total)), LOG_FLOOR)
        new_tree_logw[m] = log_w2
        if np.isfinite(total):
            r2 = float(math.exp(total - log_w2))
            best = max(
                range(len(post.ppp)),
                key=lambda q: (col[q], post.ppp[q].start_time, q),
            )
            comp = post.ppp[best]
            row = row_of[best]
            (mean,), cov = condition(
                comp.comp, meas.H, ppp_S[row], ppp_innov[row, m : m + 1]
            )
            upd = replace(comp.comp, mean=mean, cov=cov)
            density = BranchDensity({k: EndCase(1.0, upd)})
            start = comp.start_time
        else:
            r2, density, start = 0.0, None, k
        hyp_none = LocalHyp(0.0, 0.0, None, frozenset())
        hyp_exist = LocalHyp(log_w2, r2, density, frozenset({(k, m)}))
        new_trees.append(
            BernoulliTree(start, (BranchSlot((1,), (hyp_none, hyp_exist)),))
        )
    if p_d >= 1.0:
        ppp = ()
    else:
        thin = _log(1.0 - p_d)
        ppp = tuple(replace(c, log_weight=c.log_weight + thin) for c in post.ppp)

    # --- Bernoulli trees: missed local hypotheses ---------------------------
    # one missed hypothesis per predicted one (same index); the detected ones
    # go behind the full missed block of their slot
    miss_logfactor: dict = {}
    slot_hyps: dict = {}  # tree -> slot -> local hypotheses, touched slots only
    detectable = []  # (tree, slot, hyp), local hyp, log miss factor, beta(k)
    for ti, tree in enumerate(post.trees):
        for ji, slot in enumerate(tree.slots):
            if all(
                h.density is None or h.r <= 0.0 or h.density.beta(k) <= 0.0
                for h in slot.hyps
            ):
                continue  # nothing detectable: untouched
            hyps = slot_hyps.setdefault(ti, {})[ji] = []
            for bi, h in enumerate(slot.hyps):
                beta_k = h.density.beta(k) if h.density is not None else 0.0
                detectable_mass = h.r * beta_k * p_d
                if detectable_mass <= 0.0:
                    hyps.append(h)
                    continue
                miss_factor = 1.0 - detectable_mass
                norm = 1.0 - p_d * beta_k
                if norm <= 0.0:
                    # detection was certain: the missed branch cannot exist
                    missed = LocalHyp(h.log_w + _log(miss_factor), 0.0, None, h.assoc)
                else:
                    cases = {}
                    for kappa, case in h.density.components.items():
                        beta = case.beta / norm
                        if kappa == k:
                            beta = case.beta * (1.0 - p_d) / norm
                        if beta > 0.0:
                            cases[kappa] = EndCase(beta, case.comp)
                    r_miss = h.r * (1.0 - beta_k * p_d) / miss_factor
                    missed = LocalHyp(
                        h.log_w + _log(miss_factor),
                        r_miss,
                        BranchDensity(cases),
                        h.assoc,
                    )
                hyps.append(missed)
                log_miss = max(_log(miss_factor), LOG_FLOOR)
                miss_logfactor[(ti, ji, bi)] = log_miss
                detectable.append(((ti, ji, bi), h, log_miss, beta_k))

    # --- Bernoulli trees: detected local hypotheses -------------------------
    det_meas: dict = {}
    if detectable and m_k:
        comps = [h.density.components[k].comp for _, h, _, _ in detectable]
        zhat, S = innovation(comps, meas.H, meas.R)
        innov = Z - zhat[:, None, :]
        inside, loglik = gate_loglik(S, innov, gate)
        for row in np.flatnonzero(inside.any(axis=1)):
            (ti, ji, bi), h, log_miss, beta_k = detectable[row]
            gated = np.flatnonzero(inside[row])
            comp_k = comps[row]
            means, cov_post = condition(comp_k, meas.H, S[row], innov[row, gated])
            log_base = h.log_w + _log(h.r) + _log(beta_k) + _log(p_d)
            hyps = slot_hyps[ti][ji]
            dets = det_meas[(ti, ji, bi)] = {}
            for m, mean, logl in zip(gated.tolist(), means, loglik[row, gated]):
                comp_post = replace(comp_k, mean=mean, cov=cov_post)
                log_det = log_base + logl
                dets[m] = (len(hyps), log_det - (h.log_w + log_miss))
                hyps.append(
                    LocalHyp(
                        log_det,
                        1.0,
                        BranchDensity({k: EndCase(1.0, comp_post)}),
                        h.assoc | {(k, m)},
                    )
                )

    trees = list(post.trees)
    for ti, touched in slot_hyps.items():
        slots = tuple(
            BranchSlot(slot.branch_id, tuple(touched[ji])) if ji in touched else slot
            for ji, slot in enumerate(trees[ti].slots)
        )
        trees[ti] = BernoulliTree(trees[ti].start_time, slots)

    return (
        Posterior(k, ppp, tuple(trees) + tuple(new_trees), post.hypotheses),
        UpdateMaps(miss_logfactor, det_meas, new_tree_logw),
    )


# ---------------------------------------------------------------------------
# Global hypothesis formation
# ---------------------------------------------------------------------------


def _merged(children) -> tuple[GlobalHyp, ...]:
    """Global hypotheses from (log_w, selection) pairs, sorted by selection.

    Weights of equal selections are summed in arrival order, then all are
    normalised.
    """
    merged: dict = {}
    for log_w, sel in children:
        prev = merged.get(sel)
        merged[sel] = np.logaddexp(prev, log_w) if prev is not None else log_w
    if not merged:
        return ()
    keys = sorted(merged)
    logs = np.array([merged[s] for s in keys])
    logs -= logsumexp(logs)
    return tuple(GlobalHyp(float(w), s) for s, w in zip(keys, logs))


def form_hypotheses(
    post: Posterior, maps: UpdateMaps, m_k: int, cfg: ScenarioConfig
) -> Posterior:
    """Children of every predicted global hypothesis via k-best assignment.

    Rows are this step's measurements; columns are detectable selected
    local hypotheses plus one new-tree column per measurement.  Parents
    sharing the same detectable selection share one assignment problem.
    Children are merged on identical selections and renormalised.
    """
    n_hyp = cfg.filters.n_hyp

    # Parents sharing the same detectable selected hypotheses (those with at
    # least one gated measurement) share the same assignment problem.
    groups: dict = {}
    baselines = {}
    for gi, g in enumerate(post.hypotheses):
        cols = []
        baseline = 0.0
        for (ti, ji, bi), log_miss in maps.miss_logfactor.items():
            if g.selection[ti][ji] == bi:
                baseline += log_miss
                if (ti, ji, bi) in maps.det_meas:
                    cols.append((ti, ji, bi))
        baselines[gi] = baseline
        groups.setdefault(tuple(cols), []).append(gi)

    children = []
    for cols, members in groups.items():
        n_cols = len(cols)
        free = sorted({m for key in cols for m in maps.det_meas[key]})
        free_pos = {m: i for i, m in enumerate(free)}
        n_free = len(free)
        # rows with no gated column are forced onto their own new-tree column
        forced_cost = -sum(
            maps.new_tree_logw[m] for m in range(m_k) if m not in free_pos
        )
        C = np.full((n_free, n_cols + n_free), np.inf)
        for ci, key in enumerate(cols):
            for m, (_, logratio) in maps.det_meas[key].items():
                C[free_pos[m], ci] = -logratio
        for i, m in enumerate(free):
            C[i, n_cols + i] = -maps.new_tree_logw[m]

        k_max = max(
            max(1, math.ceil(n_hyp * math.exp(post.hypotheses[gi].log_w)))
            for gi in members
        )
        solutions = (
            murty_kbest(C, k_max) if n_free else [(np.zeros(0, dtype=int), 0.0)]
        )

        for gi in members:
            g = post.hypotheses[gi]
            k_want = max(1, math.ceil(n_hyp * math.exp(g.log_w)))
            for assignment, cost in solutions[:k_want]:
                log_w = g.log_w + baselines[gi] - (forced_cost + cost)
                sel = list(g.selection)
                assigned_new = [True] * m_k
                for row_pos, col_pos in enumerate(assignment):
                    if col_pos >= n_cols:
                        continue
                    m = free[row_pos]
                    assigned_new[m] = False
                    ti, ji, bi = cols[col_pos]
                    row = list(sel[ti])
                    row[ji] = maps.det_meas[(ti, ji, bi)][m][0]
                    sel[ti] = tuple(row)
                for m in range(m_k):
                    sel.append((1,) if assigned_new[m] else (0,))
                children.append((log_w, tuple(sel)))

    return replace(post, hypotheses=_merged(children))


# ---------------------------------------------------------------------------
# Pruning and estimation
# ---------------------------------------------------------------------------


def prune(post: Posterior, cfg: ScenarioConfig) -> Posterior:
    """Hypothesis, Bernoulli, intensity and end-time pruning, then remapping."""
    f = cfg.filters
    k = post.step
    if not post.hypotheses:
        return Posterior(post.step, (), (), ())

    hyps = [g for g in post.hypotheses if g.log_w >= _log(f.gamma_mbm)]
    if not hyps:
        hyps = [max(post.hypotheses, key=lambda g: g.log_w)]
    hyps.sort(key=lambda g: (-g.log_w, g.selection))
    hyps = hyps[: f.n_hyp]

    keep_ppp = tuple(c for c in post.ppp if c.log_weight >= _log(f.gamma_ppp))

    def shrink_hyp(h: LocalHyp) -> LocalHyp:
        if 0.0 < h.r < f.gamma_bern:
            h = LocalHyp(h.log_w, 0.0, None, h.assoc)
        if h.density is not None:
            beta_k = h.density.beta(k)
            if 0.0 < beta_k < f.gamma_alive:
                rest = {
                    kappa: EndCase(case.beta / (1.0 - beta_k), case.comp)
                    for kappa, case in h.density.components.items()
                    if kappa != k
                }
                if rest:
                    h = replace(h, density=BranchDensity(rest))
                else:
                    h = LocalHyp(h.log_w, 0.0, None, h.assoc)
        return h

    # hypotheses mostly share per-tree selection rows (children only copy
    # rows they touch), so each tree works on its distinct rows once
    new_trees = []
    row_maps = []  # per kept tree: (tree index, {old row: new row})
    for ti, tree in enumerate(post.trees):
        rows = dict.fromkeys(g.selection[ti] for g in hyps)
        slots = []
        hyp_maps = []  # per kept slot: (slot index, {old hyp: new hyp})
        for ji, referenced in enumerate(zip(*rows)):
            refs = sorted(set(referenced))
            new_hyps = [shrink_hyp(tree.slots[ji].hyps[bi]) for bi in refs]
            if all(h.r == 0.0 for h in new_hyps):
                continue
            hyp_maps.append((ji, {bi: pos for pos, bi in enumerate(refs)}))
            slots.append(BranchSlot(tree.slots[ji].branch_id, tuple(new_hyps)))
        if slots:
            new_trees.append(BernoulliTree(tree.start_time, tuple(slots)))
            row_maps.append(
                (ti, {row: tuple(m[row[ji]] for ji, m in hyp_maps) for row in rows})
            )

    merged = _merged(
        (g.log_w, tuple(rmap[g.selection[ti]] for ti, rmap in row_maps)) for g in hyps
    )
    new_hyps = tuple(sorted(merged, key=lambda g: (-g.log_w, g.selection)))
    return Posterior(post.step, keep_ppp, tuple(new_trees), new_hyps)


def best_hypothesis(post: Posterior) -> GlobalHyp:
    return max(post.hypotheses, key=lambda g: (g.log_w, g.selection))


def estimate(post: Posterior, cfg: ScenarioConfig) -> list[TreeTrajectory]:
    """Branches with confident existence under the heaviest global hypothesis.

    Each reported branch carries its most likely end time's genealogy
    (zero-padded to the tree horizon) and mean state sequence.
    """
    if not post.hypotheses:
        return []
    best = best_hypothesis(post)
    out = []
    for ti, tree in enumerate(post.trees):
        horizon = post.step - tree.start_time + 1
        branches = []
        for ji, slot in enumerate(tree.slots):
            h = slot.hyps[best.selection[ti][ji]]
            if h.r <= cfg.filters.gamma_estimate or h.density is None:
                continue
            kappa = h.density.most_likely_end()
            comp = h.density.components[kappa].comp
            marks = comp.genealogy + (0,) * (horizon - len(comp.genealogy))
            states = comp.full_mean().reshape(-1, comp.nx)
            branches.append(Branch(marks, states))
        if branches:
            out.append(TreeTrajectory(tree.start_time, branches))
    return out


# ---------------------------------------------------------------------------
# One full step and invariants
# ---------------------------------------------------------------------------


def step(
    post: Posterior,
    Z: np.ndarray,
    cfg: ScenarioConfig,
    kind: str = "trpmbm",
    validate: bool = False,
) -> Posterior:
    """predict -> window truncation -> update -> hypothesis formation -> prune."""
    if kind not in KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    if kind == "tpmbm" and cfg.n_modes > 1:
        cfg = no_spawning(cfg)
    Z = np.asarray(Z, dtype=float).reshape(-1, cfg.measurement.H.shape[0])
    pred = predict(post, cfg, kind)
    pred = truncate_window(pred, cfg.filters.lscan)
    upd, maps = update(pred, Z, cfg)
    formed = form_hypotheses(upd, maps, Z.shape[0], cfg)
    if validate:
        problems = check_posterior(formed, current_step_measurements=Z.shape[0])
        if problems:
            raise AssertionError("; ".join(problems))
    pruned = prune(formed, cfg)
    if validate:
        problems = check_posterior(pruned)
        if problems:
            raise AssertionError("; ".join(problems))
    return pruned


def check_posterior(
    post: Posterior,
    current_step_measurements: int | None = None,
    tol: float = 1e-9,
) -> list[str]:
    """Structural invariants; returns human-readable violations.

    Exclusivity is checked as "never twice" for all measurements plus
    "exactly once" for the current step when its count is given (records of
    older measurements can legitimately disappear with pruned zero-
    existence Bernoullis).
    """
    problems = []
    if post.hypotheses:
        logs = [g.log_w for g in post.hypotheses]
        bad = sum(not math.isfinite(w) for w in logs)
        if bad:
            problems.append(f"{bad} hypothesis log-weights not finite")
        with np.errstate(over="ignore"):
            total = float(np.exp(logs).sum())
        if not abs(total - 1.0) <= tol:  # also catches a NaN total
            problems.append(f"hypothesis weights sum to {total}, not 1")
    for qi, comp in enumerate(post.ppp):
        if any(m != 1 for m in comp.comp.genealogy):
            problems.append(f"intensity term {qi}: genealogy not all ones")
    for g in post.hypotheses:
        seen: set = set()
        for ti, sel in enumerate(g.selection):
            for ji, bi in enumerate(sel):
                h = post.trees[ti].slots[ji].hyps[bi]
                dup = h.assoc & seen
                if dup:
                    problems.append(f"measurements {sorted(dup)} associated twice")
                seen |= h.assoc
        if current_step_measurements is not None:
            want = {(post.step, m) for m in range(current_step_measurements)}
            got = {pair for pair in seen if pair[0] == post.step}
            if got != want:
                problems.append(
                    f"current-step associations {sorted(got)} != expected {sorted(want)}"
                )
    for ti, tree in enumerate(post.trees):
        for ji, slot in enumerate(tree.slots):
            for bi, h in enumerate(slot.hyps):
                if not 0.0 <= h.r <= 1.0 + 1e-12:
                    problems.append(f"tree {ti} slot {ji} hyp {bi}: r={h.r}")
                if h.density is not None:
                    s = h.density.beta_total()
                    if abs(s - 1.0) > tol:
                        problems.append(
                            f"tree {ti} slot {ji} hyp {bi}: beta sums to {s}"
                        )
                    for kappa, case in h.density.components.items():
                        for P in (case.comp.cov, *case.comp.frozen_covs):
                            if np.abs(P - P.T).max() > tol:
                                problems.append(
                                    f"tree {ti} slot {ji} hyp {bi} end {kappa}: cov asymmetric"
                                )
                            elif np.linalg.eigvalsh(P).min() < -tol:
                                problems.append(
                                    f"tree {ti} slot {ji} hyp {bi} end {kappa}: cov not PSD"
                                )
    return problems


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------


def posterior_to_dict(post: Posterior) -> dict:
    """JSON-ready snapshot of the full posterior (debugging aid)."""

    def comp_dict(c: GaussianBranchComponent) -> dict:
        return {
            "genealogy": list(c.genealogy),
            "mean": c.full_mean().tolist(),
            "cov": c.full_cov().tolist(),
        }

    return {
        "step": post.step,
        "ppp": [
            {
                "log_weight": c.log_weight,
                "start_time": c.start_time,
                "component": comp_dict(c.comp),
            }
            for c in post.ppp
        ],
        "trees": [
            {
                "start_time": tree.start_time,
                "slots": [
                    {
                        "branch_id": list(slot.branch_id),
                        "hypotheses": [
                            {
                                "log_w": h.log_w,
                                "r": h.r,
                                "associations": sorted(h.assoc),
                                "density": None
                                if h.density is None
                                else {
                                    "components": {
                                        str(kappa): {
                                            "beta": case.beta,
                                            **comp_dict(case.comp),
                                        }
                                        for kappa, case in sorted(
                                            h.density.components.items()
                                        )
                                    },
                                },
                            }
                            for h in slot.hyps
                        ],
                    }
                    for slot in tree.slots
                ],
            }
            for tree in post.trees
        ],
        "hypotheses": [
            {"log_w": g.log_w, "selection": [list(s) for s in g.selection]}
            for g in post.hypotheses
        ],
    }
