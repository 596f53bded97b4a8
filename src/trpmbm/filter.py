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

The local hypotheses of every slot with alive mass are rows of one table
per step (``HypTable``), and such a slot (``HeldSlot``) spans its rows.
Every stage writes one new table with array ops: predict moves the rows
and writes the spawned ones, update thins every row by one
missed-detection rule (``_missed``), formation appends the rows of the
detected hypotheses that its formed rows pick, and prune drops and
renumbers rows.  A pruned posterior holds records (``BranchSlot``) only
for the slots that have settled, with no alive mass left; readers see
held slots through ``HeldSlot.hyps``, which builds their records.

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

import itertools
import math
import operator
from dataclasses import dataclass, replace
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

_NO_ASSOC = frozenset()


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logs(x: np.ndarray) -> np.ndarray:
    """``_log`` of every entry; ``np.log`` may differ from ``math.log`` in
    the last bit."""
    out = np.full(len(x), -np.inf)
    positive = x > 0.0
    out[positive] = list(map(math.log, x[positive].tolist()))
    return out


def _aranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each count n, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _objects(items) -> np.ndarray:
    """The items as a 1-d object array."""
    return np.fromiter(items, dtype=object, count=len(items))


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
    """A slot whose local hypotheses are records."""

    branch_id: tuple[int, ...]  # genealogy prefix up to last spawning, tree-relative
    hyps: tuple[LocalHyp, ...]

    @property
    def size(self) -> int:
        return len(self.hyps)

    @cached_property
    def last_alive(self) -> int:
        """The last step on which a hypothesis puts beta > 0, or -1."""
        ends = (h.density.components.items() for h in self.hyps if h.density is not None)
        return max((kappa for cases in ends for kappa, c in cases if c.beta > 0.0), default=-1)


_ROWS = ("log_w", "r", "assoc", "dense", "alive", "beta", "comp", "mean", "cov", "n_ends")
_ENDS = ("kappa", "end_beta", "end_comp")


@dataclass(frozen=True, eq=False)
class HypTable:
    """The local hypotheses of the held slots at ``step``, one row each.

    Row i has log-weight ``log_w[i]``, existence ``r[i]`` and association
    record ``assoc[i]`` (the records' frozensets, by reference).  Its
    density is None unless ``dense[i]``.  Its ``n_ends[i]`` earlier end
    cases are the entries from ``end_at[i]`` on of ``kappa``, ``end_beta``
    and ``end_comp``, in the order of the record's end cases; where
    ``alive[i]`` the end case at ``step`` follows them, with beta
    ``beta[i]`` (0 elsewhere) and component ``comp[i]``, whose last state
    has the moments ``mean[i]``, ``cov[i]``.  A component of None is the
    single state of those moments, built where it is needed (``comps``):
    the branches that ``predict`` spawns.  A row that loses its end at
    ``step`` keeps that component and its moments, for ``form_hypotheses``.
    """

    step: int
    log_w: np.ndarray  # (n,)
    r: np.ndarray  # (n,)
    assoc: np.ndarray  # (n,) object
    dense: np.ndarray  # (n,) bool
    alive: np.ndarray  # (n,) bool
    beta: np.ndarray  # (n,)
    comp: np.ndarray  # (n,) object
    mean: np.ndarray  # (n, nx)
    cov: np.ndarray  # (n, nx, nx)
    n_ends: np.ndarray  # (n,) int
    kappa: np.ndarray  # (E,) int
    end_beta: np.ndarray  # (E,)
    end_comp: np.ndarray  # (E,) object

    @cached_property
    def end_at(self) -> np.ndarray:
        return np.cumsum(self.n_ends) - self.n_ends

    def ends_of(self, idx: np.ndarray) -> np.ndarray:
        """The entries of the earlier end cases of rows ``idx``, row by row."""
        n = self.n_ends[idx]
        return np.repeat(self.end_at[idx], n) + _aranges(n)

    def take(self, idx: np.ndarray) -> HypTable:
        """Rows ``idx``, in that order."""
        e = self.ends_of(idx)
        rows = (getattr(self, name)[idx] for name in _ROWS)
        return HypTable(self.step, *rows, *(getattr(self, name)[e] for name in _ENDS))

    def comps(self, idx: np.ndarray) -> list[GaussianBranchComponent]:
        """The components of the ends at ``step`` of rows ``idx``."""
        comps = self.comp[idx].tolist()
        lazy = [i for i, c in enumerate(comps) if c is None]
        if lazy:
            at = idx[lazy]
            for i, c in zip(lazy, spawn(self.mean[at], self.cov[at])):
                comps[i] = c
        return comps

    def records(self, idx) -> list[LocalHyp]:
        """Rows ``idx`` as records."""
        idx = np.asarray(idx, dtype=np.intp)
        alive = self.alive[idx]
        comps = iter(self.comps(idx[alive]))
        e = self.ends_of(idx)
        ends = zip(self.kappa[e].tolist(), self.end_beta[e].tolist(), self.end_comp[e].tolist())
        out = []
        for log_w, r, assoc, dense, at_step, beta, n in zip(
            self.log_w[idx].tolist(), self.r[idx].tolist(), self.assoc[idx].tolist(),
            self.dense[idx].tolist(), alive.tolist(), self.beta[idx].tolist(),
            self.n_ends[idx].tolist(),
        ):
            cases = {kappa: EndCase(b, c) for kappa, b, c in itertools.islice(ends, n)}
            if at_step:
                cases[self.step] = EndCase(beta, next(comps))
            out.append(LocalHyp(log_w, r, BranchDensity(cases) if dense else None, assoc))
        return out


def _fresh(step, log_w, r, assoc, alive, beta, comp, mean, cov) -> HypTable:
    """Rows without earlier end cases: where ``alive`` one end at ``step``,
    elsewhere no density."""
    ends = np.zeros(0, dtype=np.intp), np.zeros(0), _objects([])
    return HypTable(
        step, log_w, r, assoc, alive, alive, beta, comp, mean, cov,
        np.zeros(len(r), dtype=np.intp), *ends,
    )


def _table_of(hyps: list[LocalHyp], step: int) -> HypTable:
    """Records as rows; a record's end case at ``step`` goes last."""
    n = len(hyps)
    alive, beta, comps, n_ends, ends = [], [], [], [], []
    for h in hyps:
        cases = h.density.components if h.density is not None else {}
        case = cases.get(step)
        alive.append(case is not None)
        beta.append(case.beta if case is not None else 0.0)
        comps.append(case.comp if case is not None else None)
        earlier = [(kappa, *c) for kappa, c in cases.items() if kappa != step]
        n_ends.append(len(earlier))
        ends += earlier
    mean, cov = np.zeros((n, NX)), np.zeros((n, NX, NX))
    at = [i for i, c in enumerate(comps) if c is not None]
    if at:
        mean[at], cov[at] = last_states([comps[i] for i in at])
    kappa, end_beta, end_comp = zip(*ends) if ends else ((), (), ())
    return HypTable(
        step,
        np.array([h.log_w for h in hyps], dtype=float),
        np.array([h.r for h in hyps], dtype=float),
        _objects([h.assoc for h in hyps]),
        np.array([h.density is not None for h in hyps], dtype=bool),
        np.array(alive, dtype=bool),
        np.array(beta, dtype=float),
        _objects(comps),
        mean,
        cov,
        np.array(n_ends, dtype=np.intp),
        np.array(kappa, dtype=np.intp),
        np.array(end_beta, dtype=float),
        _objects(end_comp),
    )


def _joined(tables: list[HypTable]) -> HypTable:
    """The tables' rows, one table after the other."""
    if len(tables) == 1:
        return tables[0]
    columns = (np.concatenate([getattr(t, name) for t in tables]) for name in _ROWS + _ENDS)
    return HypTable(tables[0].step, *columns)


def _with_end(t: HypTable, where: np.ndarray, kappa: int, beta, comp) -> HypTable:
    """The table with one more earlier end case, (kappa, beta, comp), behind
    the others of each row where the mask ``where`` holds."""
    n_ends = t.n_ends + where
    at = np.cumsum(n_ends) - n_ends
    old, new = np.repeat(at, t.n_ends) + _aranges(t.n_ends), (at + t.n_ends)[where]
    size = int(n_ends.sum())
    kappas, betas, comps = np.empty(size, np.intp), np.empty(size), np.empty(size, object)
    kappas[old], betas[old], comps[old] = t.kappa, t.end_beta, t.end_comp
    kappas[new], betas[new], comps[new] = kappa, beta, comp
    return replace(t, n_ends=n_ends, kappa=kappas, end_beta=betas, end_comp=comps)


def _ends_kept(t: HypTable, keep: np.ndarray, **rows) -> HypTable:
    """The table with only the earlier end cases where ``keep``, and these
    row columns."""
    of = np.repeat(np.arange(len(t.r)), t.n_ends)
    n_ends = np.bincount(of[keep], minlength=len(t.r))
    ends = t.kappa[keep], t.end_beta[keep], t.end_comp[keep]
    return replace(t, **rows, n_ends=n_ends, kappa=ends[0], end_beta=ends[1], end_comp=ends[2])


def _missed(t: HypTable, rows: np.ndarray, q: float) -> HypTable:
    """The densities of ``rows`` given no detection at the step, which a
    branch alive then yields with probability q: the end at the step scaled
    by 1 - q, every end divided by 1 - q beta, zero ends dropped.  A row
    left without ends, or with 1 - q beta <= 0, has no density and r = 0.
    Other rows are kept as they are."""
    on = np.zeros(len(t.r), dtype=bool)
    on[rows] = True
    norm = np.ones(len(t.r))
    norm[rows] = 1.0 - q * t.beta[rows]
    gone = norm <= 0.0
    norm[gone] = 1.0
    beta = t.beta.copy()
    beta[rows] = t.beta[rows] * (1.0 - q) / norm[rows]
    alive = t.alive & ~gone & ((beta > 0.0) | ~on)
    of = np.repeat(np.arange(len(t.r)), t.n_ends)
    end_beta = t.end_beta / norm[of]
    keep = ~on[of] | ((end_beta > 0.0) & ~gone[of])
    left = np.bincount(of[keep], minlength=len(t.r)) > 0
    dense = t.dense & (~on | (~gone & (alive | left)))
    t = replace(t, end_beta=end_beta)
    return _ends_kept(
        t, keep, dense=dense, alive=alive, beta=np.where(alive, beta, 0.0),
        r=np.where(dense | ~on, t.r, 0.0),
    )


@dataclass(eq=False)  # not frozen, which would triple the cost of building one
class HeldSlot:
    """A slot with alive mass: its local hypotheses are rows ``lo:hi`` of
    one step's ``HypTable``.

    Every stage writes the rows of the held slots into one new table and
    hands back new held slots over it.  ``prune`` turns a held slot into a
    ``BranchSlot`` of records when it settles: when none of the hypotheses
    it keeps has alive mass (beta > 0 on the end at the step).  Records are
    built only for readers: ``hyps`` builds them on first use.
    """

    branch_id: tuple[int, ...]
    table: HypTable
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @cached_property
    def hyps(self) -> tuple[LocalHyp, ...]:
        """Every local hypothesis as a record, for readers outside the step."""
        return tuple(self.table.records(np.arange(self.lo, self.hi)))


@dataclass(frozen=True)
class BernoulliTree:
    start_time: int
    slots: tuple[BranchSlot | HeldSlot, ...]


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


def _gathered(
    post: Posterior, kappa: int
) -> tuple[HypTable, list[int], list[tuple[int, ...]], np.ndarray]:
    """One table of the local hypotheses of every slot with alive mass at
    ``kappa``, slot after slot in column order, and each such slot's
    column, branch id and size.

    Those are the held slots, and the built slots with a hypothesis that
    puts beta > 0 on an end at ``kappa``, whose records are converted.  The
    table is the held slots' own when they cover it in order.
    """
    cols, ids, sizes, where, hyps = [], [], [], [], []
    for col, slot in enumerate(slot for tree in post.trees for slot in tree.slots):
        if isinstance(slot, HeldSlot):
            where.append((slot.table, slot.lo))
        elif slot.last_alive >= kappa and any(
            h.density is not None and h.density.beta(kappa) > 0.0 for h in slot.hyps
        ):
            where.append((None, len(hyps)))
            hyps += slot.hyps
        else:
            continue
        cols.append(col)
        ids.append(slot.branch_id)
        sizes.append(slot.size)
    parts = {table: table for table, _ in where if table is not None}
    if hyps or not parts:
        parts[None] = _table_of(hyps, kappa)
    offset, n = {}, 0
    for key, table in parts.items():
        offset[key] = n
        n += len(table.r)
    starts = [offset[table] + lo for table, lo in where]
    table = _joined(list(parts.values()))
    if n != sum(sizes) or starts != list(itertools.accumulate([0] + sizes[:-1])):
        counts = np.array(sizes, dtype=np.intp)
        table = table.take(np.repeat(np.array(starts, dtype=np.intp), counts) + _aranges(counts))
    return table, cols, ids, np.array(sizes, dtype=np.intp)


def _held(table: HypTable, cols, ids, sizes) -> dict[int, HeldSlot]:
    """Held slots over ``table`` at these columns, whose rows follow each
    other in column order."""
    out, lo = {}, 0
    for col, branch_id, size in zip(cols, ids, np.asarray(sizes).tolist()):
        out[col] = HeldSlot(branch_id, table, lo, lo + size)
        lo += size
    return out


def _confident(slots, picks: list[int], gamma: float) -> list[LocalHyp | None]:
    """The local hypothesis that each slot picks, as a record, where it has
    a density and an existence above ``gamma``, and None elsewhere; the
    held ones are built in one call per table."""
    out, held = [], {}
    for i, (slot, bi) in enumerate(zip(slots, picks)):
        if isinstance(slot, HeldSlot):
            held.setdefault(slot.table, []).append((i, slot.lo + bi))
            out.append(None)
            continue
        h = slot.hyps[bi]
        out.append(h if h.r > gamma and h.density is not None else None)
    for table, items in held.items():
        at, rows = (np.array(x, dtype=np.intp) for x in zip(*items))
        sure = (table.r[rows] > gamma) & table.dense[rows]
        for i, h in zip(at[sure].tolist(), table.records(rows[sure])):
            out[i] = h
    return out


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _birth_component(b: BirthComponent) -> GaussianBranchComponent:
    """Single-state Gaussian of a newborn branch, with the birth term's moments."""
    return GaussianBranchComponent(np.asarray(b.mean, float), np.asarray(b.cov, float), NX)


def _birth_tree(cfg: ScenarioConfig, k: int) -> BernoulliTree:
    """One Bernoulli tree per birth term (multi-Bernoulli birth mode)."""
    n = len(cfg.births)
    if not n:
        return BernoulliTree(k, ())
    comps = [_birth_component(b) for b in cfg.births]
    r = np.array([min(b.weight, 1.0) for b in cfg.births])
    alive = np.ones(n, dtype=bool)
    table = _fresh(
        k, np.zeros(n), r, np.full(n, _NO_ASSOC, dtype=object), alive, np.ones(n),
        _objects(comps), *last_states(comps),
    )
    return BernoulliTree(k, tuple(HeldSlot((1,), table, i, i + 1) for i in range(n)))


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
    predicted mean.  Frozen or dead hypotheses pass through untouched;
    slots with no alive existence mass produce no spawn slots (every spawn
    hypothesis would carry exactly zero existence).  Intensity terms are
    thinned by p_S and joined by the births.

    The slots with alive mass at k-1 (``_gathered``) are moved with array
    ops on their table's rows and come back as held slots over the new
    table, with the spawned slots; the other slots and the trees without
    one are handed back as they were.  Spawned slots copy their parent's
    column, after their tree's columns; the birth tree of 'trmbm' gets zero
    columns.
    """
    k = post.step + 1
    surv = cfg.survival
    p_s = surv.prob
    t, hcols, ids, sizes = _gathered(post, k - 1)
    n = len(t.r)
    slot_of = np.repeat(np.arange(len(hcols)), sizes)
    hit = np.flatnonzero(t.alive)  # the rows with an end case at k-1
    moving = t.alive & (t.beta != 0.0)
    spawning = np.bincount(slot_of[moving & (t.r > 0.0)], minlength=len(hcols)) > 0
    ppp = post.ppp if p_s > 0.0 and kind != "trmbm" else ()
    comps = np.empty(n, dtype=object)
    comps[hit] = _objects(t.comps(hit))
    means, covs = t.mean[hit], t.cov[hit]
    if ppp:
        ppp_states = last_states([c.comp for c in ppp])
        means = np.concatenate([means, ppp_states.means])
        covs = np.concatenate([covs, ppp_states.covs])
    survived, moved_ppp = np.empty(n, dtype=object), []
    mean_k, cov_k = np.zeros_like(t.mean), np.zeros_like(t.cov)
    rows = np.flatnonzero(spawning[slot_of])  # every row of a spawning slot
    spawned = []  # per spawning mode: one row per row of the spawning slots
    if len(means):
        pm, pP = transition(means, covs, surv.F, surv.offsets_at(means), surv.Q)
        if p_s > 0.0:
            go = np.flatnonzero(moving[hit])
            go_ppp = np.concatenate([go, np.arange(len(hit), len(means))])
            out = survive(
                [*comps[hit[go]], *(c.comp for c in ppp)], pm[go_ppp], pP[go_ppp], surv.F,
                cfg.filters.lscan,
            )
            survived[hit[go]] = _objects(out[: len(go)])
            moved_ppp = out[len(go) :]
            mean_k[hit[go]], cov_k[hit[go]] = pm[go], pP[go]
        tracked = t.alive[rows]
        parent = (np.cumsum(t.alive) - 1)[rows[tracked]]  # its end case's place in hit
        for mode in cfg.spawn_modes if len(rows) else ():
            sm, sP = transition(
                means[parent], covs[parent], mode.F, mode.offsets_at(pm[parent]), mode.Q
            )
            m, P, r = np.zeros((len(rows), NX)), np.zeros((len(rows), NX, NX)), np.zeros(len(rows))
            m[tracked], P[tracked] = sm, sP
            r[tracked] = t.r[rows[tracked]] * mode.prob * t.beta[rows[tracked]]
            spawned.append(
                _fresh(
                    k, np.zeros(len(rows)), r, np.full(len(rows), _NO_ASSOC, dtype=object),
                    tracked, tracked.astype(float), np.full(len(rows), None, dtype=object), m, P,
                )
            )
    # the end at k-1 keeps beta (1 - p_S), the end at k gets beta p_S
    alive = moving & (p_s > 0.0)
    moved = replace(
        t, step=k, alive=alive, beta=np.where(alive, t.beta * p_s, 0.0), comp=survived,
        mean=mean_k, cov=cov_k,
    )
    stays = t.alive & ~moving if p_s >= 1.0 else t.alive
    moved = _with_end(moved, stays, k - 1, (t.beta * (1.0 - p_s))[stays], comps[stays])

    # the new columns, tree by tree: its own slots, then its spawned ones,
    # mode by mode, over the moved rows and then each mode's spawned rows
    table = _joined([moved, *spawned])
    sizes = sizes.tolist()
    starts = list(itertools.accumulate([0] + sizes[:-1]))
    spawners = np.flatnonzero(spawning).tolist()
    spawn_at = dict(zip(spawners, itertools.accumulate([0] + [sizes[j] for j in spawners][:-1])))
    bases = [n + m * len(rows) for m in range(len(spawned))]
    trees, cols = [], []
    i, lo = 0, 0
    for tree in post.trees:
        hi = lo + len(tree.slots)
        cols += range(lo, hi)
        own = []
        while i < len(hcols) and hcols[i] < hi:
            own.append(i)
            i += 1
        if not own:
            trees.append(tree)
            lo = hi
            continue
        slots = list(tree.slots)
        for j in own:
            slots[hcols[j] - lo] = HeldSlot(ids[j], table, starts[j], starts[j] + sizes[j])
        for mark, base in enumerate(bases, start=2):
            for j in own:
                if j in spawn_at:
                    marks = alive_marks(ids[j], tree.start_time, k - 1) + (mark,)
                    at = base + spawn_at[j]
                    slots.append(HeldSlot(marks, table, at, at + sizes[j]))
                    cols.append(hcols[j])
        trees.append(BernoulliTree(tree.start_time, tuple(slots)))
        lo = hi

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
            PPPComponent(c.log_weight + log_ps, c.start_time, comp)
            for c, comp in zip(ppp, moved_ppp)
        ]
        births = [PPPComponent(_log(b.weight), k, _birth_component(b)) for b in cfg.births]
        new_ppp = tuple(thinned + births)
    return Posterior(k, new_ppp, tuple(trees), post.log_w, sel)


def truncate_window(post: Posterior, lscan: int) -> Posterior:
    """Live windows cut to their last ``lscan`` states; unchanged pieces are shared.

    ``predict`` already cuts every window it grows, so on its output this
    returns the same trees and intensity terms.  It stays for callers that
    build posteriors themselves or change ``lscan``.  A held slot's
    components are cut in its table; a component held as moments is a
    single state, which every window fits.
    """
    comps = [c.comp for c in post.ppp]
    tables = {}
    for tree in post.trees:
        for slot in tree.slots:
            if isinstance(slot, HeldSlot):
                tables[slot.table] = slot.table
                continue
            for h in slot.hyps:
                if h.density is not None:
                    comps += (case.comp for case in h.density.components.values())
    for table in tables:
        comps += (c for c in table.comp.tolist() if c is not None)
        comps += table.end_comp.tolist()
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

    # a cut keeps the last state's moments: it re-symmetrises a symmetric block
    for table in tables:
        comp = _objects([cut.get(id(c), c) for c in table.comp.tolist()])
        end_comp = _objects([cut.get(id(c), c) for c in table.end_comp.tolist()])
        tables[table] = replace(table, comp=comp, end_comp=end_comp)
    ppp = tuple(
        PPPComponent(c.log_weight, c.start_time, cut.get(id(c.comp), c.comp)) for c in post.ppp
    )
    columns = {
        col: (
            HeldSlot(slot.branch_id, tables[slot.table], slot.lo, slot.hi)
            if isinstance(slot, HeldSlot)
            else _with_hyps(slot, list(map(hyp, slot.hyps)))
        )
        for col, slot in enumerate(slot for tree in post.trees for slot in tree.slots)
    }
    return Posterior(post.step, ppp, _rebuilt(post.trees, columns), post.log_w, post.sel)


# ---------------------------------------------------------------------------
# Update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateMaps:
    """The association record: one row per local hypothesis with detectable
    mass, in (column, hyp) order, and one column per measurement.  Other
    hypotheses have a missed-detection factor of exactly 1 (log 0).  Outside
    the gate ``log_ratio`` and ``log_det`` hold -inf and ``child`` holds -1.

    A gated pair's ``child`` is the index its detected hypothesis has in the
    slot when every gated pair's is appended behind the missed ones, in row
    and measurement order.  ``form_hypotheses`` builds only the ones that a
    formed row picks, from the rows' innovation data and their components,
    which the updated table keeps.
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
    once, and the new trees are conditioned grouped by their best term.  A
    tree whose measurement some term gates is held, in one table of two
    rows per tree; the others are records with no density.
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
    n = len(found)
    starts, comps = {}, []
    table = None
    if n:
        r = np.array([math.exp(x) for x in (totals[found] - log_w[found]).tolist()])
        # best term per measurement: the largest weighted likelihood, ties
        # to the latest start, then to the last term
        cols = ppp_loglik[:, found]
        rank = np.empty(len(ppp), dtype=np.intp)
        order = np.lexsort((np.arange(len(ppp)), [c.start_time for c in ppp]))
        rank[order] = np.arange(len(ppp))
        best = np.where(cols == cols.max(axis=0), rank[:, None], -1).argmax(axis=0)
        terms, which = np.unique(best, return_inverse=True)
        terms_comps = [ppp[q].comp for q in terms.tolist()]
        means, covs = condition(terms_comps, meas.H, ppp_S[terms], which, ppp_innov[best, found])
        for m, q, w, mean in zip(found.tolist(), best.tolist(), which.tolist(), means):
            starts[m] = ppp[q].start_time
            comps.append(ppp[q].comp.with_live(mean, covs[w]))
        # per tree: the hypothesis of no target, then the one of its measurement
        exist = np.arange(1, 2 * n, 2)
        log_w2, r2, alive = np.zeros(2 * n), np.zeros(2 * n), np.zeros(2 * n, dtype=bool)
        log_w2[exist], r2[exist], alive[exist] = log_w[found], r, True
        comp, assoc = np.full(2 * n, None, dtype=object), np.full(2 * n, _NO_ASSOC, dtype=object)
        comp[exist] = _objects(comps)
        assoc[exist] = _objects([frozenset({(k, m)}) for m in found.tolist()])
        mean2, cov2 = np.zeros((2 * n, NX)), np.zeros((2 * n, NX, NX))
        mean2[exist], cov2[exist] = last_states(comps)
        table = _fresh(k, log_w2, r2, assoc, alive, alive.astype(float), comp, mean2, cov2)
    trees, held = [], itertools.count(0, 2)
    for m, log_w2 in enumerate(log_w.tolist()):
        if m in starts:
            lo = next(held)
            trees.append(BernoulliTree(starts[m], (HeldSlot((1,), table, lo, lo + 2),)))
        else:
            none = LocalHyp(0.0, 0.0, None, _NO_ASSOC)
            hyps = none, LocalHyp(log_w2, 0.0, None, frozenset({(k, m)}))
            trees.append(BernoulliTree(k, (BranchSlot((1,), hyps),)))
    return trees, log_w


def update(
    post: Posterior, Z: np.ndarray, cfg: ScenarioConfig
) -> tuple[Posterior, UpdateMaps]:
    """Measurement update: missed local hypotheses, the association record
    and new Bernoulli trees.

    The slots with alive mass at k give one table (``_gathered``), and one
    block of array arithmetic gives each row with detectable mass its
    missed-detection factor 1 - r beta(k) p_D, missed log-weight and
    existence, and detected base weight, and thins its density by the
    missed-detection rule (``_missed``).  Missed versions sit at the same
    index as their predicted hypothesis, so previous global selections stay
    valid until form_hypotheses rewires the detected ones, which it also
    builds.  The intensity terms and the table's rows are each gated
    against every measurement in one stacked call.

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

    # --- Bernoulli trees: the missed-detection rule on every row ------------
    t, hcols, ids, sizes = _gathered(post, k)
    mass = t.r * t.beta * p_d
    det = np.flatnonzero(mass > 0.0)  # the association record's rows
    log_w, r, beta, mass = t.log_w[det], t.r[det], t.beta[det], mass[det]
    # the missed-detection factor, the missed log-weight and existence (the
    # missed branch exists where the rule's norm 1 - beta(k) p_D is
    # positive), and the detected log-weight but the likelihood
    log_factor = _logs(1.0 - mass)
    log_miss = np.maximum(log_factor, LOG_FLOOR)
    exists = 1.0 - beta * p_d > 0.0
    r_miss = np.divide(r * (1.0 - beta * p_d), 1.0 - mass, out=np.zeros(len(det)), where=exists)
    log_base = log_w + _logs(r) + _logs(beta) + _log(p_d)
    t_log_w, t_r = t.log_w.copy(), t.r.copy()
    t_log_w[det], t_r[det] = log_w + log_factor, r_miss
    thinned = _missed(replace(t, log_w=t_log_w, r=t_r), det, p_d)
    slot_of = np.repeat(np.arange(len(hcols)), sizes)[det]
    cols = np.array(hcols, dtype=np.intp)[slot_of]
    bis = det - (np.cumsum(sizes) - sizes)[slot_of]

    # --- Bernoulli trees: the gated pairs -----------------------------------
    n_rows, nz = len(det), meas.H.shape[0]
    gated, loglik = np.zeros((n_rows, m_k), dtype=bool), np.zeros((n_rows, m_k))
    S, innov = np.zeros((n_rows, nz, nz)), np.zeros((n_rows, m_k, nz))
    if n_rows and m_k:
        zhat, S = innovation(Moments(t.mean[det], t.cov[det]), meas.H, meas.R)
        innov = Z - zhat[:, None, :]
        gated, loglik = gate_loglik(S, innov, cfg.filters.gate)
    log_det = np.where(gated, log_base[:, None] + loglik, -np.inf)
    log_ratio = np.where(gated, log_det - (log_w + log_miss)[:, None], -np.inf)
    # a detected hypothesis's index: behind its slot's missed ones and the
    # detected ones of the slot's earlier gated pairs
    prow, pm = np.nonzero(gated)
    pcol = cols[prow]
    child = np.full((n_rows, m_k), -1, dtype=post.sel.dtype)
    child[prow, pm] = sizes[slot_of][prow] + np.arange(len(prow)) - np.searchsorted(pcol, pcol)

    trees = _rebuilt(post.trees, _held(thinned, hcols, ids, sizes)) + tuple(new_trees)
    return (
        Posterior(k, ppp, trees, post.log_w, post.sel),
        UpdateMaps(cols, bis, log_miss, log_ratio, child, new_tree_logw, log_det, S, innov),
    )


# ---------------------------------------------------------------------------
# Global hypothesis formation
# ---------------------------------------------------------------------------


def _row_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows of a table whose entries are
    >= 0: one sort of each row's bytes, big-endian, which order as the
    entries do."""
    if not rows.shape[1]:
        return np.arange(len(rows))
    big = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    keys = big.view(np.dtype((np.void, big.itemsize * rows.shape[1]))).ravel()
    return np.argsort(keys, kind="stable")


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows, and where each run of equal
    rows starts in that order."""
    order = _row_order(rows)
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def _by_weight(log_w: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Row order by decreasing weight, then increasing selection."""
    order = _row_order(sel)
    return order[np.argsort(-log_w[order], kind="stable")]


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
    conditioned in one stacked call and their rows appended to their slots
    in index order, and each picked index becomes its slot's size plus its
    rank among the slot's picked ones.  That map is increasing per column,
    so it keeps the order of the rows.
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

    t, hcols, ids, sizes = _gathered(post, k)
    held = np.array(hcols, dtype=np.intp)
    urow, um = prow[used], pm[used]
    rows, item = np.unique(urow, return_inverse=True)
    # the predicted rows in the table: components and measurement histories
    # are those the rows had before update thinned them
    src = (np.cumsum(sizes) - sizes)[np.searchsorted(held, maps.col[rows])] + maps.hyp[rows]
    comps = t.comps(src)
    meas = cfg.measurement
    means, covs = condition(comps, meas.H, maps.S[rows], item, maps.innov[urow, um])
    found = [comps[i].with_live(mean, covs[i]) for i, mean in zip(item.tolist(), means)]
    assoc = [a | {(k, m)} for a, m in zip(t.assoc[src[item]].tolist(), um.tolist())]
    n, alive = len(found), np.ones(len(found), dtype=bool)
    part = _fresh(
        k, maps.log_det[urow, um], np.ones(n), _objects(assoc), alive, np.ones(n),
        _objects(found), *last_states(found),
    )
    # every slot's rows, then its detected ones
    order = np.argsort(np.concatenate([np.repeat(held, sizes), ucol]), kind="stable")
    grown = sizes + np.bincount(np.searchsorted(held, ucol), minlength=len(held))
    return _rebuilt(post.trees, _held(_joined([t, part]).take(order), hcols, ids, grown))


# ---------------------------------------------------------------------------
# Pruning and estimation
# ---------------------------------------------------------------------------


def prune(post: Posterior, cfg: ScenarioConfig) -> Posterior:
    """Hypothesis, Bernoulli, intensity and end-time pruning, then remapping.

    Each kept column's local hypotheses shrink to the ones a kept row
    references, renumbered in order; a column whose remaining hypotheses
    all have r = 0 is dropped, and a tree without columns with it.  The
    slots with alive mass (``_gathered``) are pruned on their table's rows:
    Bernoulli pruning, then the alive-end cut, which is the
    missed-detection rule with certain detection (``_missed``).  A kept one
    stays held while one of its hypotheses has alive mass, and otherwise
    settles into a ``BranchSlot`` of records.  Built slots have no alive
    mass, and only Bernoulli pruning applies to them.
    """
    f = cfg.filters
    k = post.step

    keep = np.flatnonzero(post.log_w >= _log(f.gamma_mbm))
    if not len(keep):
        keep = np.array([np.argmax(post.log_w)])
    keep = keep[_by_weight(post.log_w[keep], post.sel[keep])][: f.n_hyp]
    sel = post.sel[keep]

    keep_ppp = tuple(c for c in post.ppp if c.log_weight >= _log(f.gamma_ppp))

    # per column: the referenced hyps in increasing order, and every entry
    # renumbered to its rank among them
    order = np.argsort(sel, axis=0, kind="stable")
    ranked = np.take_along_axis(sel, order, axis=0)
    first = np.ones(sel.shape, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    np.put_along_axis(sel, order, np.cumsum(first, axis=0) - 1, axis=0)
    n_ref = first.sum(axis=0)
    refs = ranked.T[first.T]  # column after column
    ref_at = np.cumsum(n_ref) - n_ref

    # the held columns' referenced rows, pruned
    t, hcols, ids, sizes = _gathered(post, k)
    held = np.array(hcols, dtype=np.intp)
    counts = n_ref[held]
    rows = refs[np.repeat(ref_at[held], counts) + _aranges(counts)]
    t = t.take(rows + np.repeat(np.cumsum(sizes) - sizes, counts))
    small = (t.r > 0.0) & (t.r < f.gamma_bern)
    t = _ends_kept(
        t, ~np.repeat(small, t.n_ends), r=np.where(small, 0.0, t.r), dense=t.dense & ~small,
        alive=t.alive & ~small, beta=np.where(small, 0.0, t.beta),
    )
    t = _missed(t, np.flatnonzero((t.beta > 0.0) & (t.beta < f.gamma_alive)), 1.0)
    slot_of = np.repeat(np.arange(len(held)), counts)
    kept = np.bincount(slot_of, weights=t.r != 0.0, minlength=len(held)) > 0
    live = np.bincount(slot_of, weights=t.beta > 0.0, minlength=len(held)) > 0
    holds, settles = kept & live, kept & ~live
    changed = _held(
        t.take(np.flatnonzero(holds[slot_of])), held[holds].tolist(),
        [ids[j] for j in np.flatnonzero(holds)], counts[holds],
    )
    hyps = iter(t.records(np.flatnonzero(settles[slot_of])))
    for j in np.flatnonzero(settles).tolist():
        changed[hcols[j]] = BranchSlot(ids[j], tuple(itertools.islice(hyps, counts[j])))
    for j in np.flatnonzero(~kept).tolist():
        changed[hcols[j]] = None

    # the built columns: Bernoulli pruning of the referenced hyps
    def shrink(h: LocalHyp) -> LocalHyp:
        return LocalHyp(h.log_w, 0.0, None, h.assoc) if 0.0 < h.r < f.gamma_bern else h

    slots = [slot for tree in post.trees for slot in tree.slots]
    refs, ref_at, ref_end = refs.tolist(), ref_at.tolist(), (ref_at + n_ref).tolist()
    for col, slot in enumerate(slots):
        if col in changed:  # a held column
            continue
        hyps = [shrink(slot.hyps[bi]) for bi in refs[ref_at[col] : ref_end[col]]]
        new = _with_hyps(slot, hyps) if any(h.r != 0.0 for h in hyps) else None
        if new is not slot:
            changed[col] = new
    cols = [col for col, slot in enumerate(slots) if changed.get(col, slot) is not None]
    trees = _rebuilt(post.trees, changed)

    log_w, sel = _merged(post.log_w[keep], sel[:, cols])
    order = _by_weight(log_w, sel)
    return Posterior(post.step, keep_ppp, trees, log_w[order], sel[order])


def _best_row(post: Posterior) -> int:
    """The heaviest global hypothesis; ties go to the largest selection."""
    best = int(np.argmax(post.log_w))
    top = np.flatnonzero(post.log_w == post.log_w[best])
    if len(top) > 1 and post.sel.shape[1]:
        best = int(top[_row_order(post.sel[top])[-1]])
    return best


def estimate(post: Posterior, cfg: ScenarioConfig) -> list[TreeTrajectory]:
    """Branches with confident existence under the heaviest global hypothesis.

    Each reported branch carries its most likely end time's genealogy
    (zero-padded to the tree horizon) and mean state sequence.
    """
    if not len(post.log_w):
        return []
    slots = [slot for tree in post.trees for slot in tree.slots]
    picks = post.sel[_best_row(post)].tolist()
    hyps = iter(_confident(slots, picks, cfg.filters.gamma_estimate))
    out = []
    for tree in post.trees:
        branches = []
        for slot in tree.slots:
            h = next(hyps)
            if h is None:
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

    def slot_dict(slot: BranchSlot | HeldSlot, start: int) -> dict:
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
