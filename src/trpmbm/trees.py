"""Tree trajectories: genealogy marks, branches, and whole-tree validation.

A tree trajectory records one born target together with every descendant
spawned from it.  Each branch carries a genealogy vector with one mark per
generation of the tree: the first mark is always 1; from the second
generation on, a mark of 1 means the branch survived that generation, a
mark m >= 2 means it was created there by spawning mode m, and 0 means the
branch was no longer alive.  Zeros are absorbing: once a branch dies every
later mark is 0.

A branch only owns the states from its last spawning generation onwards;
the marks before that point are inherited from the parent lineage and act
as the branch identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Genealogy = tuple[int, ...]


class GenealogyError(ValueError):
    """Mark sequence violates the genealogy convention."""


def validate_genealogy(marks: Sequence[int], n_modes: int | None = None) -> Genealogy:
    """Check a mark sequence and return it as a tuple of ints.

    ``n_modes`` (the number of transition modes, survival included) bounds
    the marks when given.
    """
    out = tuple(int(m) for m in marks)
    if len(out) == 0:
        raise GenealogyError("genealogy needs at least one generation")
    if out[0] != 1:
        raise GenealogyError(f"first mark must be 1, got {out[0]}")
    dead = False
    for g, m in enumerate(out[1:], start=2):
        if m < 0:
            raise GenealogyError(f"negative mark {m} at generation {g}")
        if n_modes is not None and m > n_modes:
            raise GenealogyError(
                f"mark {m} at generation {g} exceeds the {n_modes} available modes"
            )
        if dead and m != 0:
            raise GenealogyError(
                f"mark {m} at generation {g} after the branch already died"
            )
        dead = dead or m == 0
    return out


def last_alive_generation(marks: Sequence[int]) -> int:
    """Final generation at which the branch is alive (1-based)."""
    for g, m in enumerate(marks, start=1):
        if m == 0:
            return g - 1
    return len(marks)


def first_own_generation(marks: Sequence[int]) -> int:
    """Generation of the branch's last spawning, i.e. where its own states start.

    1 for a branch that was never spawned (the main lineage).
    """
    own = 1
    for g, m in enumerate(marks, start=1):
        if m > 1:
            own = g
    return own


def branch_length(marks: Sequence[int], n_modes: int | None = None) -> int:
    """Number of states owned by a branch with the given genealogy."""
    out = validate_genealogy(marks, n_modes)
    return last_alive_generation(out) - first_own_generation(out) + 1


def unique_id(marks: Sequence[int], n_modes: int | None = None) -> Genealogy:
    """Branch identifier: the genealogy truncated at its last spawning."""
    out = validate_genealogy(marks, n_modes)
    return out[: first_own_generation(out)]


def max_branches(n_generations: int, n_modes: int) -> int:
    """Maximum number of branches a tree with ``n_generations`` can hold.

    Exact value ``n_modes ** (n_generations - 1)``; Python integers do not
    overflow, so only materialising that many ids can hurt (see
    :func:`enumerate_branch_ids`, which is lazy).
    """
    if n_generations < 1:
        raise ValueError(f"need at least one generation, got {n_generations}")
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return n_modes ** (n_generations - 1)


def enumerate_branch_ids(n_generations: int, n_modes: int) -> Iterator[Genealogy]:
    """Yield every possible branch id of a tree, in lexicographic order.

    Ids are genealogy prefixes ending at a spawning mark (or the bare main
    id ``(1,)``); position j in the stream is the branch index
    j = 1..max_branches.  Shorter prefixes sort before their extensions.
    Lazy: nothing is materialised unless the caller collects the output.
    """
    if n_generations < 1:
        raise ValueError(f"need at least one generation, got {n_generations}")
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")

    def walk(prefix: Genealogy) -> Iterator[Genealogy]:
        if len(prefix) == 1 or prefix[-1] >= 2:
            yield prefix
        if len(prefix) < n_generations:
            for mark in range(1, n_modes + 1):
                yield from walk(prefix + (mark,))

    return walk((1,))


def max_branch_length(n_generations: int, branch_id: Sequence[int]) -> int:
    """Longest life a branch with this id can have inside the tree."""
    bid = validate_genealogy(branch_id)
    if unique_id(bid) != bid:
        raise GenealogyError(f"{bid} is not a branch id (not truncated at last spawning)")
    if len(bid) > n_generations:
        raise GenealogyError(f"id {bid} longer than the {n_generations}-generation tree")
    if len(bid) == 1:
        return n_generations
    return n_generations - len(bid) + 1


def genealogy_for(n_generations: int, branch_id: Sequence[int], length: int) -> Genealogy:
    """Full genealogy of the branch with this id living exactly ``length`` steps."""
    bid = validate_genealogy(branch_id)
    lmax = max_branch_length(n_generations, bid)
    if not 1 <= length <= lmax:
        raise GenealogyError(f"length {length} outside 1..{lmax} for id {bid}")
    alive = bid + (1,) * (length - 1)
    return alive + (0,) * (n_generations - len(alive))


@dataclass
class Branch:
    """One lineage segment: genealogy plus its own state sequence.

    ``states`` has shape (branch_length, state_dim); row p is the state at
    generation first_own_generation + p.
    """

    genealogy: Genealogy
    states: np.ndarray

    def __post_init__(self):
        self.genealogy = tuple(int(m) for m in self.genealogy)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))


@dataclass
class TreeTrajectory:
    """A start time and the set of branches grown from one born target."""

    start_time: int
    branches: list[Branch]

    @property
    def n_generations(self) -> int:
        if not self.branches:
            return 0
        return len(self.branches[0].genealogy)

    @property
    def end_time(self) -> int:
        return self.start_time + self.n_generations - 1


def validate_tree(tree: TreeTrajectory, n_modes: int | None = None) -> list[str]:
    """Report every constraint the tree violates; an empty list means valid.

    Violations are data, not exceptions: estimator output is allowed to
    break the constraints and still be reported on.
    """
    report: list[str] = []
    if not tree.branches:
        return ["tree has no branches"]
    if tree.start_time < 1:
        report.append(f"start time {tree.start_time} before step 1")

    n_gen = None
    ids: dict[Genealogy, int] = {}
    genealogies: list[Genealogy | None] = []
    for idx, br in enumerate(tree.branches):
        if not np.isfinite(br.states).all():
            report.append(f"branch {idx}: states must be finite")
        try:
            marks = validate_genealogy(br.genealogy, n_modes)
        except GenealogyError as err:
            report.append(f"branch {idx}: {err}")
            genealogies.append(None)
            continue
        genealogies.append(marks)
        if n_gen is None:
            n_gen = len(marks)
        elif len(marks) != n_gen:
            report.append(
                f"branch {idx}: genealogy length {len(marks)} != {n_gen} of the tree"
            )
        want = last_alive_generation(marks) - first_own_generation(marks) + 1
        if br.states.shape[0] != want:
            report.append(
                f"branch {idx}: {br.states.shape[0]} states but genealogy implies {want}"
            )
        bid = marks[: first_own_generation(marks)]
        if bid in ids:
            report.append(f"branch {idx}: duplicate id {bid} (also branch {ids[bid]})")
        else:
            ids[bid] = idx

    if (1,) not in ids:
        report.append("no main branch with id (1,)")

    # Consistent offspring: each spawning mark needs a parent lineage that is
    # identical up to the spawn and survives or dies there with its main mode.
    for idx, marks in enumerate(genealogies):
        if marks is None:
            continue
        for g, m in enumerate(marks, start=1):
            if m <= 1:
                continue
            found = False
            for jdx, other in enumerate(genealogies):
                if jdx == idx or other is None:
                    continue
                if other[: g - 1] == marks[: g - 1] and other[g - 1] in (0, 1):
                    found = True
                    break
            if not found:
                report.append(
                    f"branch {idx}: spawn mark {m} at generation {g} has no parent branch"
                )

    if n_gen is not None:
        modes = n_modes
        if modes is None:
            modes = max(max(m for g in genealogies if g for m in g), 1)
        cap = max_branches(n_gen, modes)
        if len(tree.branches) > cap:
            report.append(f"{len(tree.branches)} branches exceed the maximum {cap}")
    return report


def targets_at_time(tree: TreeTrajectory, step: int) -> list[np.ndarray]:
    """States of all branches alive at absolute time ``step``."""
    gen = step - tree.start_time + 1
    if not 1 <= gen <= tree.n_generations:
        raise ValueError(
            f"step {step} outside tree horizon "
            f"[{tree.start_time}, {tree.end_time}]"
        )
    out = []
    for br in tree.branches:
        own = first_own_generation(br.genealogy)
        if own <= gen <= last_alive_generation(br.genealogy):
            out.append(br.states[gen - own])
    return out


# ---------------------------------------------------------------------------
# Textual encoding: one line per branch,
#   t; mark,mark,...; x1 x2 x3 x4; x1 x2 x3 x4; ...
# trees in a multi-tree file are separated by blank lines.
# ---------------------------------------------------------------------------


def tree_to_lines(tree: TreeTrajectory) -> list[str]:
    lines = []
    for br in tree.branches:
        marks = ",".join(str(m) for m in br.genealogy)
        states = "; ".join(" ".join(repr(float(v)) for v in row) for row in br.states)
        lines.append(f"{tree.start_time}; {marks}; {states}")
    return lines


def trees_to_text(trees: Sequence[TreeTrajectory]) -> str:
    blocks = ["\n".join(tree_to_lines(t)) for t in trees]
    return "\n\n".join(blocks) + "\n"


def parse_tree_lines(lines: Sequence[str]) -> TreeTrajectory:
    start = None
    branches = []
    for line in lines:
        parts = [p.strip() for p in line.split(";")]
        if len(parts) < 3:
            raise ValueError(f"malformed branch line: {line!r}")
        t = int(parts[0])
        if start is None:
            start = t
        elif t != start:
            raise ValueError(f"branch start time {t} != tree start time {start}")
        marks = tuple(int(m) for m in parts[1].split(","))
        states = np.array(
            [[float(v) for v in group.split()] for group in parts[2:]], dtype=float
        )
        branches.append(Branch(marks, states))
    if start is None:
        raise ValueError("no branch lines given")
    return TreeTrajectory(start, branches)


def parse_trees(text: str) -> list[TreeTrajectory]:
    trees = []
    block: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            if block:
                trees.append(parse_tree_lines(block))
                block = []
            continue
        block.append(line)
    if block:
        trees.append(parse_tree_lines(block))
    return trees
