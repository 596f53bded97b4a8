"""Multi-Bernoulli-mixture recursion over sets of tree trajectories.

The posterior splits into a Poisson intensity for never-detected trees and
a weighted mixture of global hypotheses over Bernoulli trees.  Each tree
holds branch slots; each slot holds local hypotheses (one per measurement
history) with a weight, an existence probability and an end-time mixture
of Gaussians over the branch's state sequence.

The global hypotheses form one look-up table: ``Posterior.sel`` has one
row per global hypothesis and one column per slot, with the trees' slots
in tree-major order (each tree spans as many columns as it has slots), and
each entry is the index of the local hypothesis that the row picks in that
slot; ``Posterior.log_w`` holds the rows' log-weights.  Every stage works
on these arrays.  ``Posterior.hypotheses`` is a read-only view of the table
as per-tree ``GlobalHyp`` records, for readers outside the step.

One filtering step runs: predict (branch survival mass redistribution plus
one new potential branch per spawning mode per parent slot, with every
grown live window cut to the last ``lscan`` states), measurement update
(missed local hypotheses and the association record, new Bernoulli trees
off every measurement), global-hypothesis formation via k-best assignment
per parent hypothesis, and pruning.  Predict and update make their Gaussian
moves in stacked passes over all components at once (``trpmbm.gaussian``);
``truncate_window`` stays for callers that cut windows themselves.

Local hypotheses are built only where they are kept.  The slots that
predict spawns are held as arrays (``SpawnedSlot``) until prune builds the
ones it keeps, and the detected hypotheses are built by formation, only
for the gated pairs that a formed row picks; update's missed-detection
rule runs once over one table of both slot kinds.  A pruned posterior
holds only built records; readers of the stages in between see spawned
slots through ``SpawnedSlot.hyps``.

A branch's genealogy is held once: its slot's ``branch_id`` and its tree's
``start_time`` give its marks (``alive_marks``); components hold states.

Three operating modes share the recursion:
  kind='trpmbm'  Poisson birth into the undetected-tree intensity.
  kind='trmbm'   zero intensity, one birth Bernoulli tree per step.
  kind='tpmbm'   'trpmbm' with the spawning modes removed.

All weights live in the log domain.  Structures are immutable; every
operation returns a new posterior and shares unchanged pieces (``update``,
``truncate_window``, formation and ``prune`` through one tree rebuild,
``_rebuilt``, which rebuilds only the trees that hold a changed column).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .assignment import murty_kbest
from .gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    Moments,
    PPPComponent,
    condition,
    gate_loglik,
    innovation,
    l_scan_truncate,
    last_states,
    spawn,
    survive,
    transition,
)
from .models import NX, BirthComponent, ScenarioConfig, no_spawning
from .trees import Branch, TreeTrajectory

LOG_FLOOR = -700.0  # stand-in for log 0 where a finite baseline is required
CHECK_TOL = 1e-9  # check_posterior's tolerance on sums to 1 and covariances

KINDS = ("trpmbm", "trmbm", "tpmbm")


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logs(x: np.ndarray) -> np.ndarray:
    """``_log`` of every entry; ``np.log`` may differ from ``math.log`` in
    the last bit."""
    out = np.full(len(x), -np.inf)
    positive = x > 0.0
    out[positive] = list(map(math.log, x[positive].tolist()))
    return out


def alive_marks(branch_id: tuple[int, ...], start_time: int, kappa: int) -> tuple[int, ...]:
    """The genealogy of a branch alive until step ``kappa`` in a tree that
    starts at ``start_time``: its id, then a survival mark per later step."""
    return branch_id + (1,) * (kappa - start_time + 1 - len(branch_id))


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


@dataclass(frozen=True, eq=False)
class SpawnedSlot:
    """A slot that ``predict`` spawned at ``step``, held as arrays.

    Local hypothesis bi has log-weight ``log_w[bi]`` and existence ``r[bi]``.
    Where ``tracked[bi]``, its density is one end case at ``step`` with
    beta 1 over a single state with moments ``means[bi]`` and ``covs[bi]``;
    elsewhere it has none.  ``branch_id`` holds the slot's marks up to
    ``step``, ending in the spawning mark.  ``update`` thins the
    arrays by the missed-detection rule of built slots, with beta(k) = 1,
    ``form_hypotheses`` builds the slot when a formed row detects one of its
    hypotheses, and ``prune`` builds the slots it keeps.  Every later
    ``predict`` builds the tracked ones it moves, so the tracked spawned
    slots of a posterior are those of its own step.
    """

    branch_id: tuple[int, ...]
    step: int
    log_w: np.ndarray  # (n,)
    r: np.ndarray  # (n,)
    tracked: np.ndarray  # (n,) bool
    means: np.ndarray  # (n, nx)
    covs: np.ndarray  # (n, nx, nx)

    def built(self, idx: list[int]) -> list[LocalHyp]:
        """The local hypotheses at ``idx`` as records."""
        at = [bi for bi in idx if self.tracked[bi]]
        comps = spawn(self.means[at], self.covs[at])
        density = {bi: BranchDensity({self.step: EndCase(1.0, c)}) for bi, c in zip(at, comps)}
        log_w, r = self.log_w.tolist(), self.r.tolist()
        return [LocalHyp(log_w[bi], r[bi], density.get(bi), frozenset()) for bi in idx]

    @cached_property
    def hyps(self) -> tuple[LocalHyp, ...]:
        """Every local hypothesis as a record, for readers outside the step."""
        return tuple(self.built(list(range(len(self.r)))))


@dataclass(frozen=True)
class BernoulliTree:
    start_time: int
    slots: tuple[BranchSlot | SpawnedSlot, ...]


@dataclass(frozen=True)
class GlobalHyp:
    log_w: float
    selection: tuple[tuple[int, ...], ...]  # per tree, per slot: local hyp index


@dataclass(frozen=True, eq=False)
class Posterior:
    """Intensity, Bernoulli trees and the global-hypothesis table over them.

    Stages never write to the arrays, so posteriors may share them.  Between
    ``update`` and ``form_hypotheses`` the new trees have no columns and no
    slot holds a detected hypothesis.
    """

    step: int
    ppp: tuple[PPPComponent, ...]
    trees: tuple[BernoulliTree, ...]
    log_w: np.ndarray  # (H,) global-hypothesis log-weights
    sel: np.ndarray  # (H, slots) int32: local-hypothesis index per slot

    @cached_property
    def hypotheses(self) -> tuple[GlobalHyp, ...]:
        """The table as per-tree selections, for readers outside the step."""
        ends = np.cumsum([len(t.slots) for t in self.trees], dtype=int).tolist()
        spans = [(a, b) for a, b in zip([0] + ends, ends) if b <= self.sel.shape[1]]
        return tuple(
            GlobalHyp(w, tuple(tuple(row[a:b]) for a, b in spans))
            for w, row in zip(self.log_w.tolist(), self.sel.tolist())
        )


def initial_posterior() -> Posterior:
    return Posterior(0, (), (), np.zeros(1), np.zeros((1, 0), dtype=np.int32))


def _with_hyps(slot: BranchSlot, hyps: list[LocalHyp]) -> BranchSlot:
    """The slot with these hypotheses: itself when they are its own objects."""
    if len(hyps) == len(slot.hyps) and all(map(operator.is_, hyps, slot.hyps)):
        return slot
    return BranchSlot(slot.branch_id, tuple(hyps))


def _rebuilt(trees: tuple[BernoulliTree, ...], new: dict) -> tuple[BernoulliTree, ...]:
    """The trees with the slots at these table columns replaced.  A slot of
    None drops its column, and a tree left without slots goes with it.  The
    trees that hold none of the columns, or get their own slots back, come
    back as themselves."""
    cols = sorted(new)
    out, i, lo = [], 0, 0
    for tree in trees:
        hi = lo + len(tree.slots)
        if i < len(cols) and cols[i] < hi:
            slots = list(tree.slots)
            while i < len(cols) and cols[i] < hi:
                slots[cols[i] - lo] = new[cols[i]]
                i += 1
            if not all(map(operator.is_, slots, tree.slots)):
                kept = tuple(slot for slot in slots if slot is not None)
                tree = BernoulliTree(tree.start_time, kept) if kept else None
        if tree is not None:
            out.append(tree)
        lo = hi
    return tuple(out)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _birth_component(b: BirthComponent) -> GaussianBranchComponent:
    """Single-state Gaussian of a newborn branch, with the birth term's moments."""
    return GaussianBranchComponent(np.asarray(b.mean, float), np.asarray(b.cov, float), NX)


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
    """Advance every Bernoulli tree and the intensity to step k, in one
    stacked Gaussian pass.

    Every end case at k-1 (of a local hypothesis or an intensity term) moves
    its last state once; the surviving ones append it to their live window,
    which is cut to the last ``lscan`` states right there, since this is the
    only stage that grows a window.  Surviving slots keep their existence;
    the alive end-time mass splits into death-at-(k-1) and alive-at-k.
    Every (spawning mode, parent slot) pair appends a new slot whose local
    hypotheses parallel the parent's, each existing with probability
    r * p_spawn * beta(k-1), with its offset taken at the survival move's
    predicted mean; the new slots are held as arrays (``SpawnedSlot``).
    Frozen or dead hypotheses pass through untouched; slots with no alive
    existence mass produce no spawn slots (every spawn hypothesis would
    carry exactly zero existence).  Intensity terms are thinned by p_S and
    joined by the births.

    Spawned slots copy their parent's column, after their tree's columns;
    the birth tree of 'trmbm' gets zero columns.  A tree without an end case
    to move comes back as itself.
    """
    k = post.step + 1
    surv = cfg.survival
    p_s = surv.prob
    # one walk over the end cases at k-1 (prevs) records, per tree by slot,
    # the ones that move (beta != 0) as (hyp, index into prevs); a slot with
    # alive mass spawns one slot per spawning mode, whose hyps take the
    # slot's span of the mode's arrays, with one parent row per end case:
    # (index into prevs, position in the arrays, r)
    prevs: list[EndCase] = []
    moving: dict[int, dict[int, list[tuple[int, int]]]] = {}
    spans: dict[int, dict[int, tuple[int, int]]] = {}
    parents: list[tuple[int, int, float]] = []
    n = 0
    for ti, tree in enumerate(post.trees):
        for ji, slot in enumerate(tree.slots):
            hits = []
            for bi, h in enumerate(slot.hyps):
                prev = h.density.components.get(k - 1) if h.density is not None else None
                if prev is not None:
                    hits.append((bi, len(prevs)))
                    prevs.append(prev)
            if not hits:
                continue
            moves = [(bi, c) for bi, c in hits if prevs[c].beta != 0.0]
            if not moves:
                continue
            moving.setdefault(ti, {})[ji] = moves
            if any(slot.hyps[bi].r > 0.0 for bi, _ in moves):
                spans.setdefault(ti, {})[ji] = (n, n + len(slot.hyps))
                parents += ((c, n + bi, slot.hyps[bi].r) for bi, c in hits)
                n += len(slot.hyps)
    ppp = post.ppp if p_s > 0.0 and kind != "trmbm" else ()
    comps = [case.comp for case in prevs] + [c.comp for c in ppp]
    moved: dict[int, GaussianBranchComponent] = {}
    modes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # per mode: m, P, r
    if comps:
        means, covs = last_states(comps)
        pm, pP = transition(means, covs, surv.F, surv.offsets_at(means), surv.Q)
        if p_s > 0.0:
            go = [i for i, case in enumerate(prevs) if case.beta != 0.0]
            go += range(len(prevs), len(comps))
            survived = survive([comps[i] for i in go], pm[go], pP[go], surv.F, cfg.filters.lscan)
            moved = dict(zip(go, survived))
        if parents:
            at_prev, at, r_parent = (list(x) for x in zip(*parents))
            tracked, zeros = np.zeros(n, dtype=bool), np.zeros(n)
            tracked[at] = True
            beta = np.array([prevs[c].beta for c in at_prev])
            for mode in cfg.spawn_modes:
                sm, sP = transition(
                    means[at_prev], covs[at_prev], mode.F, mode.offsets_at(pm[at_prev]), mode.Q
                )
                m, P, r = np.zeros((n, *sm.shape[1:])), np.zeros((n, *sP.shape[1:])), np.zeros(n)
                m[at], P[at], r[at] = sm, sP, np.array(r_parent) * mode.prob * beta
                modes.append((m, P, r))

    trees, cols = [], []
    start = 0
    for ti, tree in enumerate(post.trees):
        own = range(start, start + len(tree.slots))
        cols += own
        start += len(tree.slots)
        if ti not in moving:
            trees.append(tree)
            continue
        slots = list(tree.slots)
        for ji, moves in moving[ti].items():
            hyps = list(slots[ji].hyps)
            for bi, c in moves:
                prev, h = prevs[c], hyps[bi]
                cases = dict(h.density.components)
                if p_s < 1.0:
                    cases[k - 1] = EndCase(prev.beta * (1.0 - p_s), prev.comp)
                else:
                    del cases[k - 1]
                if p_s > 0.0:
                    cases[k] = EndCase(prev.beta * p_s, moved[c])
                hyps[bi] = LocalHyp(h.log_w, h.r, BranchDensity(cases), h.assoc)
            slots[ji] = BranchSlot(slots[ji].branch_id, tuple(hyps))
        for mark, (m, P, r) in enumerate(modes, start=2):
            for ji, (lo, hi) in spans.get(ti, {}).items():
                # the parent's marks at step k-1, then the spawning mark
                marks = alive_marks(tree.slots[ji].branch_id, tree.start_time, k - 1) + (mark,)
                held = (zeros[lo:hi], r[lo:hi], tracked[lo:hi], m[lo:hi], P[lo:hi])
                slots.append(SpawnedSlot(marks, k, *held))
                cols.append(own[ji])
        trees.append(BernoulliTree(tree.start_time, tuple(slots)))
    sel = post.sel[:, cols]
    if kind == "trmbm":
        new_ppp: tuple[PPPComponent, ...] = ()
        birth = _birth_tree(cfg, k)
        if birth.slots:
            trees.append(birth)
            sel = np.hstack([sel, np.zeros((len(sel), len(birth.slots)), sel.dtype)])
    else:
        log_ps = _log(p_s)
        thinned = [
            PPPComponent(c.log_weight + log_ps, c.start_time, moved[i])
            for i, c in enumerate(ppp, start=len(prevs))
        ]
        births = [PPPComponent(_log(b.weight), k, _birth_component(b)) for b in cfg.births]
        new_ppp = tuple(thinned + births)
    return Posterior(k, new_ppp, tuple(trees), post.log_w, sel)


def truncate_window(post: Posterior, lscan: int) -> Posterior:
    """Live windows cut to their last ``lscan`` states; unchanged pieces are shared.

    ``predict`` already cuts every window it grows, so on its output this
    returns the same trees and intensity terms.  It stays for callers that
    build posteriors themselves or change ``lscan``.  Spawned slots hold
    single states, which every window fits.
    """
    comps = [c.comp for c in post.ppp]
    for tree in post.trees:
        for slot in tree.slots:
            if isinstance(slot, SpawnedSlot):
                continue
            for h in slot.hyps:
                if h.density is not None:
                    comps += (case.comp for case in h.density.components.values())
    cut = {id(a): b for a, b in zip(comps, l_scan_truncate(comps, lscan)) if a is not b}
    if not cut:
        return post

    def hyp(h: LocalHyp) -> LocalHyp:
        if h.density is None or not any(id(c.comp) in cut for c in h.density.components.values()):
            return h
        cases = {
            kappa: EndCase(case.beta, cut.get(id(case.comp), case.comp))
            for kappa, case in h.density.components.items()
        }
        return LocalHyp(h.log_w, h.r, BranchDensity(cases), h.assoc)

    ppp = tuple(
        PPPComponent(c.log_weight, c.start_time, cut.get(id(c.comp), c.comp)) for c in post.ppp
    )
    columns = {
        col: _with_hyps(slot, list(map(hyp, slot.hyps)))
        for col, slot in enumerate(slot for tree in post.trees for slot in tree.slots)
        if not isinstance(slot, SpawnedSlot)
    }
    return Posterior(post.step, ppp, _rebuilt(post.trees, columns), post.log_w, post.sel)


# ---------------------------------------------------------------------------
# Update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateMaps:
    """The association record: one row per local hypothesis with detectable
    mass, of a built or a spawned slot alike, in (column, hyp) order, and
    one column per measurement.  Other hypotheses have a missed-detection
    factor of exactly 1 (log 0).  Outside the gate ``log_ratio`` and
    ``log_det`` hold -inf and ``child`` holds -1.

    A gated pair's ``child`` is the index its detected hypothesis has in the
    slot when every gated pair's is appended behind the missed ones, in row
    and measurement order.  ``form_hypotheses`` builds only the ones that a
    formed row picks, from the predicted slots and the rows' innovation data.
    """

    col: np.ndarray  # (D,) the slot's column in the global-hypothesis table
    hyp: np.ndarray  # (D,) the local hypothesis in that slot
    log_miss: np.ndarray  # (D,) log(1 - r beta(k) pD), floored at LOG_FLOOR
    log_ratio: np.ndarray  # (D, m_k) log w_det - log w_miss
    child: np.ndarray  # (D, m_k) the detected local hypothesis in that slot
    new_tree_logw: np.ndarray  # per measurement: log(clutter + ppp mass)
    log_det: np.ndarray  # (D, m_k) log w_det, the detected hypothesis's weight
    S: np.ndarray  # (D, nz, nz) innovation covariances
    innov: np.ndarray  # (D, m_k, nz) innovations
    predicted: tuple[BranchSlot | SpawnedSlot, ...]  # per column: the predicted slot

    @property
    def det_meas(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(column, hyp) -> its gated measurements, for the rows that gate
        any: a read-only view for readers outside the step."""
        keys = zip(self.col.tolist(), self.hyp.tolist())
        gated = (tuple(np.flatnonzero(row >= 0).tolist()) for row in self.child)
        return {key: ms for key, ms in zip(keys, gated) if ms}


def _new_trees(
    ppp: tuple[PPPComponent, ...], Z: np.ndarray, cfg: ScenarioConfig, k: int
) -> tuple[list[BernoulliTree], np.ndarray]:
    """One new Bernoulli tree per measurement, and its log-weight.

    The intensity terms are gated against every measurement in one stacked
    call, the column sums and best terms are taken for all measurements at
    once, and the new trees are conditioned grouped by their best term.
    """
    meas = cfg.measurement
    m_k = Z.shape[0]
    ppp_loglik = np.full((len(ppp), m_k), -np.inf)
    if ppp and m_k:
        zhat, ppp_S = innovation(last_states([c.comp for c in ppp]), meas.H, meas.R)
        ppp_innov = Z - zhat[:, None, :]
        inside, loglik = gate_loglik(ppp_S, ppp_innov, cfg.filters.gate)
        log_base = np.array([c.log_weight for c in ppp]) + _log(meas.p_detect)
        ppp_loglik = np.where(inside, log_base[:, None] + loglik, -np.inf)
    if len(ppp):
        # per column; summing axis 0 of the untransposed array changes bits
        totals = logsumexp(np.ascontiguousarray(ppp_loglik.T), axis=1)
    else:
        totals = np.full(m_k, -np.inf)
    log_w = np.maximum(np.logaddexp(_log(meas.clutter_density), totals), LOG_FLOOR)

    found = np.flatnonzero(np.isfinite(totals))
    new: dict[int, tuple[float, BranchDensity, int]] = {}
    if len(found):
        r = [math.exp(x) for x in (totals[found] - log_w[found]).tolist()]
        # best term per measurement: the largest weighted likelihood, ties
        # to the latest start, then to the last term
        cols = ppp_loglik[:, found]
        rank = np.empty(len(ppp), dtype=np.intp)
        order = np.lexsort((np.arange(len(ppp)), [c.start_time for c in ppp]))
        rank[order] = np.arange(len(ppp))
        best = np.where(cols == cols.max(axis=0), rank[:, None], -1).argmax(axis=0)
        terms, which = np.unique(best, return_inverse=True)
        comps = [ppp[q].comp for q in terms.tolist()]
        means, covs = condition(comps, meas.H, ppp_S[terms], which, ppp_innov[best, found])
        for m, r2, q, w, mean in zip(found.tolist(), r, best.tolist(), which.tolist(), means):
            comp = ppp[q].comp.with_live(mean, covs[w])
            new[m] = (r2, BranchDensity({k: EndCase(1.0, comp)}), ppp[q].start_time)
    trees = []
    for m, log_w2 in enumerate(log_w.tolist()):
        r2, density, start = new.get(m, (0.0, None, k))
        hyp_none = LocalHyp(0.0, 0.0, None, frozenset())
        hyp_exist = LocalHyp(log_w2, r2, density, frozenset({(k, m)}))
        trees.append(BernoulliTree(start, (BranchSlot((1,), (hyp_none, hyp_exist)),)))
    return trees, log_w


def update(
    post: Posterior, Z: np.ndarray, cfg: ScenarioConfig
) -> tuple[Posterior, UpdateMaps]:
    """Measurement update: missed local hypotheses, the association record
    and new Bernoulli trees.

    Built and spawned slots give one association table (a fresh spawn has
    beta(k) = 1), and one block of array arithmetic gives each row its
    missed-detection factor 1 - r beta(k) p_D, missed log-weight and
    existence, and detected base weight; built slots get
    ``BranchDensity.missed`` records back, spawned slots thinned arrays.
    Missed versions sit at the same index as their predicted hypothesis, so
    previous global selections stay valid until form_hypotheses rewires the
    detected ones, which it also builds.  The intensity terms and the
    table's rows are each gated against every measurement in one stacked call.

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

    # --- Poisson intensity: per-measurement mass and new trees ---------------
    new_trees, new_tree_logw = _new_trees(post.ppp, Z, cfg, k)
    if p_d >= 1.0:
        ppp = ()
    else:
        thin = _log(1.0 - p_d)
        ppp = tuple(
            PPPComponent(c.log_weight + thin, c.start_time, c.comp) for c in post.ppp
        )

    # --- Bernoulli trees: the association table -----------------------------
    # per hypothesis alive at k: (column, hyp), log-weight, existence and
    # beta(k), the built slots' rows first, then the spawned slots'
    slots = [slot for tree in post.trees for slot in tree.slots]
    sizes, cols, bis, log_w, r, beta, comps, spawned = [], [], [], [], [], [], [], []
    for col, slot in enumerate(slots):
        if isinstance(slot, SpawnedSlot):
            sizes.append(len(slot.r))
            spawned.append(col)
            continue
        sizes.append(len(slot.hyps))
        for bi, h in enumerate(slot.hyps):
            case = h.density.components.get(k) if h.density is not None else None
            if case is not None and h.r > 0.0:
                cols.append(col)
                bis.append(bi)
                log_w.append(h.log_w)
                r.append(h.r)
                beta.append(case.beta)
                comps.append(case.comp)
    table = [np.array(cols, dtype=np.intp), np.array(bis, dtype=np.intp), log_w, r, beta]
    n_built = len(cols)
    if spawned:
        held = [slots[col] for col in spawned]
        held_log_w, held_r, held_tracked, held_means, held_covs = (
            np.concatenate([getattr(slot, name) for slot in held])
            for name in ("log_w", "r", "tracked", "means", "covs")
        )
        held_sizes = [sizes[col] for col in spawned]
        starts = np.cumsum([0] + held_sizes[:-1])
        flat = np.flatnonzero(held_tracked)
        of = np.repeat(np.arange(len(held)), held_sizes)[flat]
        rows = [np.array(spawned)[of], flat - starts[of], held_log_w[flat], held_r[flat]]
        table = [np.concatenate(pair) for pair in zip(table, rows + [np.ones(len(flat))])]
    cols, bis, log_w, r, beta = (np.asarray(column) for column in table)
    mass = r * beta * p_d
    det = np.flatnonzero(mass > 0.0)
    cols, bis, log_w, r, beta, mass = (x[det] for x in (cols, bis, log_w, r, beta, mass))

    # the missed-detection factor, the missed log-weight and existence (the
    # missed branch exists where BranchDensity.missed's norm 1 - beta(k) p_D
    # is positive), and the detected log-weight but the likelihood
    log_factor = _logs(1.0 - mass)
    miss_log_w = log_w + log_factor
    log_miss = np.maximum(log_factor, LOG_FLOOR)
    exists = 1.0 - beta * p_d > 0.0
    r_miss = np.divide(r * (1.0 - beta * p_d), 1.0 - mass, out=np.zeros(len(det)), where=exists)
    log_base = log_w + _logs(r) + _logs(beta) + _log(p_d)

    # one missed version per row, written back by slot kind
    n_det = int(np.searchsorted(det, n_built))  # the built slots' rows
    touched = cols[:n_det].tolist()
    missed = {col: list(slots[col].hyps) for col in dict.fromkeys(touched)}
    for col, bi, lw, rm in zip(touched, bis[:n_det].tolist(), miss_log_w.tolist(), r_miss.tolist()):
        h = missed[col][bi]
        density = h.density.missed(k, p_d)
        missed[col][bi] = LocalHyp(lw, rm if density is not None else 0.0, density, h.assoc)
    new = {col: BranchSlot(slots[col].branch_id, tuple(hyps)) for col, hyps in missed.items()}
    states = [last_states([comps[i] for i in det[:n_det].tolist()])] if n_det else []
    if n_det < len(det):
        at = det[n_det:] - n_built
        put = flat[at]
        # np.concatenate copied the arrays, so the predicted slots keep theirs
        held_log_w[put], held_r[put] = miss_log_w[n_det:], r_miss[n_det:]
        held_tracked[put] = exists[n_det:]
        for j in np.unique(of[at]).tolist():
            slot, lo, hi = held[j], starts[j], starts[j] + held_sizes[j]
            new[spawned[j]] = SpawnedSlot(
                slot.branch_id, slot.step, held_log_w[lo:hi], held_r[lo:hi],
                held_tracked[lo:hi], slot.means, slot.covs,
            )
        states.append(Moments(held_means[put], held_covs[put]))
    order = np.argsort(cols, kind="stable")  # (column, hyp) order
    cols, bis, log_w, log_miss, log_base = (
        x[order] for x in (cols, bis, log_w, log_miss, log_base)
    )

    # --- Bernoulli trees: the gated pairs -----------------------------------
    n_rows, nz = len(cols), meas.H.shape[0]
    gated, loglik = np.zeros((n_rows, m_k), dtype=bool), np.zeros((n_rows, m_k))
    S, innov = np.zeros((n_rows, nz, nz)), np.zeros((n_rows, m_k, nz))
    if n_rows and m_k:
        means, covs = (np.concatenate(part)[order] for part in zip(*states))
        zhat, S = innovation(Moments(means, covs), meas.H, meas.R)
        innov = Z - zhat[:, None, :]
        gated, loglik = gate_loglik(S, innov, cfg.filters.gate)
    log_det = np.where(gated, log_base[:, None] + loglik, -np.inf)
    log_ratio = np.where(gated, log_det - (log_w + log_miss)[:, None], -np.inf)
    # a detected hypothesis's index: behind its slot's missed ones and the
    # detected ones of the slot's earlier gated pairs
    prow, pm = np.nonzero(gated)
    pcol = cols[prow]
    child = np.full((n_rows, m_k), -1, dtype=post.sel.dtype)
    child[prow, pm] = np.array(sizes)[pcol] + np.arange(len(prow)) - np.searchsorted(pcol, pcol)

    return (
        Posterior(k, ppp, _rebuilt(post.trees, new) + tuple(new_trees), post.log_w, post.sel),
        UpdateMaps(
            cols, bis, log_miss, log_ratio, child, new_tree_logw, log_det, S, innov, tuple(slots)
        ),
    )


# ---------------------------------------------------------------------------
# Global hypothesis formation
# ---------------------------------------------------------------------------


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows, and where each run of equal
    rows starts in that order."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def _by_weight(log_w: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Row order by decreasing weight, then increasing selection."""
    return np.lexsort((*sel.T[::-1], -log_w))


def _merged(log_w: np.ndarray, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order with normalised log-weights.

    Weights of equal rows are summed in arrival order.
    """
    order, starts = _runs(sel)
    logs = np.logaddexp.reduceat(log_w[order], starts)
    logs -= logsumexp(logs)
    return logs, sel[order[starts]]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum, added from 0.0 in column order (``np.sum`` adds
    pairwise, which can change the last bits); a fresh array, so the
    running sums are freed."""
    return np.hstack([np.zeros((len(x), 1)), x]).cumsum(axis=1)[:, -1].copy()


def _aranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each count n, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def form_hypotheses(
    post: Posterior, maps: UpdateMaps, m_k: int, cfg: ScenarioConfig
) -> Posterior:
    """Children of every predicted global hypothesis via k-best assignment.

    Parents that select the same hypotheses among those that gate a
    measurement share one assignment problem, sliced from the association
    record: one row per measurement they gate, one column per such
    hypothesis plus one new-tree column per row.  Stacked array ops give
    every group its rows, columns, forced new-tree cost and K at once, so
    the loop over groups only slices each group's cost matrix out of one
    matrix over all of them and calls ``murty_kbest``.  One pass over all
    solutions then gives the children, group by group and each member's
    solutions in rank order: a child copies its parent's row, takes the
    assigned detections in their columns and gets one column per new tree
    (1: the measurement started it).  Children are merged on identical rows
    and renormalised.  Then the detected hypotheses that the rows pick are
    built (``_detected``).
    """
    n_hyp = cfg.filters.n_hyp
    # match[g, d]: parent g selects the hypothesis of association row d
    match = post.sel[:, maps.col] == maps.hyp
    # the missed-detection factors of the selected ones, summed in row order
    baselines = _row_sums(np.where(match, maps.log_miss, 0.0))
    # parents sharing the selected hypotheses that gate a measurement share
    # one assignment problem; only equal parents can have equal children,
    # and those share a group in arrival order, so the group order is free
    gating = np.flatnonzero((maps.child >= 0).any(axis=1))
    det = match[:, gating]
    order, starts = _runs(det)
    n_groups = len(starts)

    # per group: its selected gating rows, the measurements they gate (free)
    # and the cost of the others, forced onto new trees, summed in
    # measurement order; K is the most children any member wants
    selected = det[order[starts]]
    free = selected @ (maps.child[gating] >= 0)
    forced_cost = -_row_sums(np.where(free, 0.0, maps.new_tree_logw))
    k_want = np.array([max(1, math.ceil(n_hyp * math.exp(w))) for w in post.log_w.tolist()])
    K = np.maximum.reduceat(k_want[order], starts)
    # every group's cost matrix is a block of one matrix: a row per
    # measurement, a column per gating row, then a new-tree column per
    # measurement; ``meas`` holds each group's free measurements, and
    # ``cols`` its columns, its rows before its new trees
    n_gating = len(gating)
    costs = np.full((m_k, n_gating + m_k), np.inf)
    costs[:, :n_gating] = -maps.log_ratio[gating].T
    costs[np.arange(m_k), n_gating + np.arange(m_k)] = -maps.new_tree_logw
    row_group, row = np.nonzero(selected)
    free_group, meas = np.nonzero(free)
    by_group = np.argsort(np.concatenate([row_group, free_group]), kind="stable")
    cols = np.concatenate([row, n_gating + meas])[by_group]
    n_rows = np.bincount(row_group, minlength=n_groups)
    n_free = np.bincount(free_group, minlength=n_groups)
    meas_end, col_end = np.cumsum(n_free), np.cumsum(n_rows + n_free)
    meas_start, col_start = meas_end - n_free, col_end - n_rows - n_free

    solutions = []
    for lo, hi, c_lo, c_hi, k in zip(
        meas_start.tolist(), meas_end.tolist(), col_start.tolist(), col_end.tolist(), K.tolist()
    ):
        if lo == hi:
            solutions.append([(np.zeros(0, dtype=int), 0.0)])
            continue
        solutions.append(murty_kbest(costs[meas[lo:hi, None], cols[c_lo:c_hi]], k))

    # per solution, in group order: the detected hypotheses it picks (a free
    # measurement assigned a gating row) and its new-tree flags
    n_sol = np.array([len(s) for s in solutions])
    totals = np.array([total for s in solutions for _, total in s])
    assigned = np.concatenate([a for s in solutions for a, _ in s])
    group_of = np.repeat(np.arange(n_groups), n_sol)
    sol_of = np.repeat(np.arange(len(totals)), n_free[group_of])  # per assigned measurement
    at = meas_start[group_of[sol_of]] + _aranges(n_free[group_of])
    picked = assigned < n_rows[group_of[sol_of]]
    sol_of, at, assigned = sol_of[picked], at[picked], assigned[picked]
    d = gating[cols[col_start[group_of[sol_of]] + assigned]]
    m = meas[at]
    new = np.ones((len(totals), m_k), dtype=post.sel.dtype)
    new[sol_of, m] = 0
    pick_col, pick_hyp = maps.col[d], maps.child[d, m]
    n_picks = np.bincount(sol_of, minlength=len(totals))

    # the children: group by group, each member's solutions in rank order;
    # a child copies its parent's row and takes its solution's picks
    member_group = np.repeat(np.arange(n_groups), np.diff([*starts, len(order)]))
    take = np.minimum(k_want[order], n_sol[member_group])
    parent = np.repeat(order, take)
    sol = np.repeat((np.cumsum(n_sol) - n_sol)[member_group], take) + _aranges(take)
    children = np.hstack([post.sel[parent], new[sol]])
    counts = n_picks[sol]
    pick = np.repeat((np.cumsum(n_picks) - n_picks)[sol], counts) + _aranges(counts)
    children[np.repeat(np.arange(len(sol)), counts), pick_col[pick]] = pick_hyp[pick]
    child_w = post.log_w[parent] + baselines[parent]
    child_w -= forced_cost[np.repeat(member_group, take)] + totals[sol]
    log_w, sel = _merged(child_w, children)
    return Posterior(post.step, post.ppp, _detected(post, maps, sel, cfg), log_w, sel)


def _detected(
    post: Posterior, maps: UpdateMaps, sel: np.ndarray, cfg: ScenarioConfig
) -> tuple[BernoulliTree, ...]:
    """The trees with the detected hypotheses that the rows of ``sel`` pick,
    renumbering ``sel`` in place.

    ``sel`` holds the record's ``child`` indices.  The picked pairs are
    conditioned in one stacked call and appended to their slots in index
    order, and each picked index becomes its slot's size plus its rank
    among the slot's picked ones.  That map is increasing per column, so it
    keeps the order of the rows.  A spawned slot that gains one is built,
    and the predicted hypotheses of its picked rows come from one
    ``SpawnedSlot.built`` call.
    """
    k = post.step
    prow, pm = np.nonzero(maps.child >= 0)  # the gated pairs, by column
    pcol, pidx = maps.col[prow], maps.child[prow, pm]
    hit = sel[:, pcol] == pidx
    used = np.flatnonzero(hit.any(axis=0))
    if not len(used):
        return post.trees
    ucol = pcol[used]
    # a column's first gated pair has its slot's size as index
    first = pidx[np.searchsorted(pcol, ucol)]
    at, u = np.nonzero(hit[:, used])
    sel[at, ucol[u]] = (first + np.arange(len(used)) - np.searchsorted(ucol, ucol))[u]

    urow, um = prow[used], pm[used]
    rows, item = np.unique(urow, return_inverse=True)
    picked: dict[int, list[int]] = {}  # per column, its rows' hyps in order
    for col, bi in zip(maps.col[rows].tolist(), maps.hyp[rows].tolist()):
        picked.setdefault(col, []).append(bi)
    predicted = []  # the predicted hyp of each row
    for col, bis in picked.items():
        slot = maps.predicted[col]
        if isinstance(slot, SpawnedSlot):
            predicted += slot.built(bis)
        else:
            predicted += [slot.hyps[bi] for bi in bis]
    comps = [h.density.components[k].comp for h in predicted]
    meas = cfg.measurement
    means, covs = condition(comps, meas.H, maps.S[rows], item, maps.innov[urow, um])
    found: dict[int, list[LocalHyp]] = {}
    for col, i, m, mean, log_w in zip(
        ucol.tolist(), item.tolist(), um.tolist(), means, maps.log_det[urow, um].tolist()
    ):
        density = BranchDensity({k: EndCase(1.0, comps[i].with_live(mean, covs[i]))})
        assoc = predicted[i].assoc | {(k, m)}
        found.setdefault(col, []).append(LocalHyp(log_w, 1.0, density, assoc))
    slots = [slot for tree in post.trees for slot in tree.slots]
    grown = {col: slots[col].hyps + tuple(hyps) for col, hyps in found.items()}
    return _rebuilt(post.trees, {c: BranchSlot(slots[c].branch_id, h) for c, h in grown.items()})


# ---------------------------------------------------------------------------
# Pruning and estimation
# ---------------------------------------------------------------------------


def prune(post: Posterior, cfg: ScenarioConfig) -> Posterior:
    """Hypothesis, Bernoulli, intensity and end-time pruning, then remapping.

    Each kept column's local hypotheses shrink to the ones a kept row
    references, renumbered in order; a column whose remaining hypotheses
    all have r = 0 is dropped, and a tree without columns with it.  Kept
    spawned slots are built here.
    """
    f = cfg.filters
    k = post.step

    keep = np.flatnonzero(post.log_w >= _log(f.gamma_mbm))
    if not len(keep):
        keep = np.array([np.argmax(post.log_w)])
    keep = keep[_by_weight(post.log_w[keep], post.sel[keep])][: f.n_hyp]
    sel = post.sel[keep]

    keep_ppp = tuple(c for c in post.ppp if c.log_weight >= _log(f.gamma_ppp))

    def shrink_hyp(h: LocalHyp) -> LocalHyp:
        if 0.0 < h.r < f.gamma_bern:
            h = LocalHyp(h.log_w, 0.0, None, h.assoc)
        if h.density is not None and 0.0 < h.density.beta(k) < f.gamma_alive:
            # the alive end cut: the missed-detection rule with certain detection
            density = h.density.missed(k, 1.0)
            h = LocalHyp(h.log_w, h.r if density is not None else 0.0, density, h.assoc)
        return h

    # per column: the referenced hyps in increasing order, and every entry
    # renumbered to its rank among them
    order = np.argsort(sel, axis=0, kind="stable")
    ranked = np.take_along_axis(sel, order, axis=0)
    first = np.ones(sel.shape, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    np.put_along_axis(sel, order, np.cumsum(first, axis=0) - 1, axis=0)
    refs = np.split(ranked.T[first.T], np.cumsum(first.sum(axis=0))[:-1])

    slots = [slot for tree in post.trees for slot in tree.slots]
    # the spawned columns that a referenced hyp keeps: a spawned hyp keeps
    # existence through shrink_hyp when r >= gamma_bern and its beta(k) = 1
    # passes the alive end cut
    spawned = [col for col, slot in enumerate(slots) if isinstance(slot, SpawnedSlot)]
    live = set()
    if spawned and f.gamma_alive <= 1.0:
        held = [slots[col].r for col in spawned]
        r = np.concatenate(held)
        at = ranked[:, spawned] + np.cumsum([0] + [len(x) for x in held[:-1]])
        alive = (r > 0.0) & (r >= f.gamma_bern)
        live = set(np.compress(alive[at].any(axis=0), spawned).tolist())
    # the kept columns, and the changed ones' slots of shrunk referenced
    # hyps (None drops the column)
    cols, changed = [], {}
    for col, (slot, ref) in enumerate(zip(slots, refs)):
        if isinstance(slot, SpawnedSlot):
            hyps = tuple(map(shrink_hyp, slot.built(ref.tolist()))) if col in live else ()
            new = BranchSlot(slot.branch_id, hyps) if hyps else None
        else:
            hyps = [shrink_hyp(slot.hyps[bi]) for bi in ref.tolist()]
            new = _with_hyps(slot, hyps) if any(h.r != 0.0 for h in hyps) else None
        if new is not slot:
            changed[col] = new
        if new is not None:
            cols.append(col)
    trees = _rebuilt(post.trees, changed)

    log_w, sel = _merged(post.log_w[keep], sel[:, cols])
    order = _by_weight(log_w, sel)
    return Posterior(post.step, keep_ppp, trees, log_w[order], sel[order])


def _best_row(post: Posterior) -> int:
    """The heaviest global hypothesis; ties go to the largest selection."""
    best = int(np.argmax(post.log_w))
    top = np.flatnonzero(post.log_w == post.log_w[best])
    if len(top) > 1 and post.sel.shape[1]:
        best = int(top[np.lexsort(post.sel[top].T[::-1])[-1]])
    return best


def estimate(post: Posterior, cfg: ScenarioConfig) -> list[TreeTrajectory]:
    """Branches with confident existence under the heaviest global hypothesis.

    Each reported branch carries its most likely end time's genealogy
    (zero-padded to the tree horizon) and mean state sequence.
    """
    if not len(post.log_w):
        return []
    picks = iter(post.sel[_best_row(post)].tolist())
    out = []
    for tree in post.trees:
        branches = []
        for slot in tree.slots:
            h = slot.hyps[next(picks)]
            if h.r <= cfg.filters.gamma_estimate or h.density is None:
                continue
            kappa = h.density.most_likely_end()
            comp = h.density.components[kappa].comp
            marks = alive_marks(slot.branch_id, tree.start_time, kappa) + (0,) * (post.step - kappa)
            branches.append(Branch(marks, comp.full_mean().reshape(-1, comp.nx)))
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
    """predict (with the window cut) -> update -> hypothesis formation -> prune.

    ``predict`` cuts every window it grows to ``cfg.filters.lscan``, so the
    step has no separate truncation stage; ``truncate_window`` stays for
    direct callers.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    if kind == "tpmbm" and cfg.n_modes > 1:
        cfg = no_spawning(cfg)
    Z = np.asarray(Z, dtype=float).reshape(-1, cfg.measurement.H.shape[0])
    pred = predict(post, cfg, kind)
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


def check_posterior(post: Posterior, current_step_measurements: int | None = None) -> list[str]:
    """Structural invariants; returns human-readable violations.

    Exclusivity is checked as "never twice" for all measurements plus
    "exactly once" for the current step when its count is given (records of
    older measurements can legitimately disappear with pruned zero-
    existence Bernoullis).  A selection table whose width or entries do not
    fit the slots is reported instead of walked.
    """
    problems = []
    if len(post.log_w):
        bad = int(np.count_nonzero(~np.isfinite(post.log_w)))
        if bad:
            problems.append(f"{bad} hypothesis log-weights not finite")
        with np.errstate(over="ignore"):
            total = float(np.exp(post.log_w).sum())
        if not abs(total - 1.0) <= CHECK_TOL:  # also catches a NaN total
            problems.append(f"hypothesis weights sum to {total}, not 1")
    hyps = [slot.hyps for tree in post.trees for slot in tree.slots]
    sel = post.sel
    n_hyps = np.array([len(h) for h in hyps], dtype=int)
    if sel.shape[1] != len(hyps):
        faults = [f"selection table has {sel.shape[1]} columns for {len(hyps)} slots"]
    else:
        faults = [
            f"selection row {r} column {c}: hyp {sel[r, c]} not among the slot's {n_hyps[c]}"
            for r, c in zip(*np.nonzero((sel < 0) | (sel >= n_hyps)))
        ]
    problems += faults
    for row in [] if faults else sel.tolist():  # the walk needs a well-formed table
        seen: set = set()
        for slot_hyps, bi in zip(hyps, row):
            h = slot_hyps[bi]
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
                where = f"tree {ti} slot {ji} hyp {bi}"
                if not 0.0 <= h.r <= 1.0 + 1e-12:
                    problems.append(f"{where}: r={h.r}")
                if h.density is None:
                    continue
                s = h.density.beta_total()
                if abs(s - 1.0) > CHECK_TOL:
                    problems.append(f"{where}: beta sums to {s}")
                for kappa, case in h.density.components.items():
                    for P in (case.comp.cov, *case.comp.frozen_covs):
                        if np.abs(P - P.T).max() > CHECK_TOL:
                            problems.append(f"{where} end {kappa}: cov asymmetric")
                        elif np.linalg.eigvalsh(P).min() < -CHECK_TOL:
                            problems.append(f"{where} end {kappa}: cov not PSD")
    return problems


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------


def posterior_to_dict(post: Posterior) -> dict:
    """JSON-ready snapshot of the full posterior (debugging aid)."""

    def comp_dict(c: GaussianBranchComponent, marks: tuple[int, ...]) -> dict:
        mean, cov = c.full_mean().tolist(), c.full_cov().tolist()
        return {"genealogy": list(marks), "mean": mean, "cov": cov}

    def hyp_dict(h: LocalHyp, branch_id: tuple, start: int) -> dict:
        density = None
        if h.density is not None:
            cases = sorted(h.density.components.items())
            comps = {
                str(t): {"beta": c.beta, **comp_dict(c.comp, alive_marks(branch_id, start, t))}
                for t, c in cases
            }
            density = {"components": comps}
        assoc = sorted(h.assoc)
        return {"log_w": h.log_w, "r": h.r, "associations": assoc, "density": density}

    def slot_dict(slot: BranchSlot, start: int) -> dict:
        hyps = [hyp_dict(h, slot.branch_id, start) for h in slot.hyps]
        return {"branch_id": list(slot.branch_id), "hypotheses": hyps}

    return {
        "step": post.step,
        "ppp": [
            {
                "log_weight": c.log_weight,
                "start_time": c.start_time,
                "component": comp_dict(c.comp, alive_marks((1,), c.start_time, post.step)),
            }
            for c in post.ppp
        ],
        "trees": [
            {"start_time": t.start_time, "slots": [slot_dict(s, t.start_time) for s in t.slots]}
            for t in post.trees
        ],
        "hypotheses": [
            {"log_w": g.log_w, "selection": [list(s) for s in g.selection]}
            for g in post.hypotheses
        ],
    }
