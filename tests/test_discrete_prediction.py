"""Finite-state prediction rule against exhaustive joint-transition enumeration.

The production rule propagates each branch slot independently (existence
kept for survival, beta mass redistributed, one new Bernoulli per spawning
mode per parent).  The oracle expands the full joint over every prior
branch outcome and transition outcome and marginalises; the two must agree
exactly on each output slot's Bernoulli marginal.
"""

import numpy as np
import pytest

from discrete import (
    DiscreteBranchDensity,
    DiscreteEndCase,
    DiscreteModel,
    DiscreteSlot,
    predict_slots,
    slot_marginal,
)
from oracles import enumerate_predicted_marginals


def _random_dist(rng, n_states, length):
    seqs = [tuple(s) for s in np.ndindex(*([n_states] * length))]
    probs = rng.dirichlet(np.ones(len(seqs)))
    return {s: float(p) for s, p in zip(seqs, probs)}


def _random_model(rng, n_states, n_spawn_modes=1):
    def kernel():
        K = rng.dirichlet(np.ones(n_states), size=n_states).T  # columns sum to 1
        return np.ascontiguousarray(K)

    spawn = tuple(
        (rng.uniform(0.0, 1.0, size=n_states), kernel()) for _ in range(n_spawn_modes)
    )
    return DiscreteModel(rng.uniform(0.0, 1.0, size=n_states), kernel(), spawn)


def _random_slots(rng, n_states, new_gen):
    """One or two prior slots with random end-time mixtures at new_gen - 1."""
    slots = []
    # main slot, id (1,): components over a random subset of end generations
    ends = sorted(
        rng.choice(np.arange(1, new_gen), size=rng.integers(1, new_gen), replace=False)
    )
    betas = rng.dirichlet(np.ones(len(ends)))
    comps = {}
    for end, beta in zip(ends, betas):
        genealogy = (1,) + (1,) * (int(end) - 1)
        comps[int(end)] = DiscreteEndCase(
            float(beta), genealogy, _random_dist(rng, n_states, int(end))
        )
    slots.append(DiscreteSlot(float(rng.uniform(0.05, 1.0)), DiscreteBranchDensity(comps)))
    if rng.random() < 0.7 and new_gen >= 3:
        # a slot spawned at generation 2 with mode 2
        ends = sorted(
            rng.choice(np.arange(2, new_gen), size=rng.integers(1, new_gen - 1), replace=False)
        )
        betas = rng.dirichlet(np.ones(len(ends)))
        comps = {}
        for end, beta in zip(ends, betas):
            genealogy = (1, 2) + (1,) * (int(end) - 2)
            comps[int(end)] = DiscreteEndCase(
                float(beta), genealogy, _random_dist(rng, n_states, int(end) - 1)
            )
        slots.append(
            DiscreteSlot(float(rng.uniform(0.05, 1.0)), DiscreteBranchDensity(comps))
        )
    return slots


def _compare(slots, model, new_gen, tol):
    predicted = predict_slots(slots, model, new_gen)
    want = enumerate_predicted_marginals(slots, model, new_gen)
    assert len(predicted) == len(slots) * (1 + len(model.spawn))
    worst = 0.0
    for out_slot, expected in zip(predicted, want):
        got = slot_marginal(out_slot)
        keys = set(got) | set(expected)
        for key in keys:
            worst = max(worst, abs(got.get(key, 0.0) - expected.get(key, 0.0)))
    return worst


def test_predicted_marginals_match_enumeration_randomised():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(10):
        n_states = int(rng.integers(2, 5))
        new_gen = int(rng.integers(2, 5))
        model = _random_model(rng, n_states)
        slots = _random_slots(rng, n_states, new_gen)
        worst = max(worst, _compare(slots, model, new_gen, 1e-10))
    assert worst <= 1e-10


def test_surviving_slot_keeps_existence_and_beta_sums():
    rng = np.random.default_rng(5)
    model = _random_model(rng, 3)
    slots = _random_slots(rng, 3, 4)
    out = predict_slots(slots, model, 4)
    for before, after in zip(slots, out[: len(slots)]):
        assert after.r == before.r
        total = sum(c.beta for c in after.density.components.values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_spawned_slot_parameters():
    # deterministic single-state prior: spawned existence is r * p_spawn * beta
    model = DiscreteModel(
        np.array([0.9, 0.9]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        ((np.array([0.25, 0.25]), np.array([[0.0, 1.0], [1.0, 0.0]])),),
    )
    prior = DiscreteSlot(
        0.8,
        DiscreteBranchDensity({2: DiscreteEndCase(1.0, (1, 1), {(0, 1): 1.0})}),
    )
    out = predict_slots([prior], model, 3)
    spawned = out[1]
    assert spawned.r == pytest.approx(0.8 * 0.25 * 1.0, abs=1e-15)
    case = spawned.density.components[3]
    assert case.genealogy == (1, 1, 2)
    assert case.dist == {(0,): 1.0}  # kernel flips state 1 -> 0


def test_dead_mass_passes_through():
    model = DiscreteModel(np.array([0.5]), np.array([[1.0]]), ())
    prior = DiscreteSlot(
        1.0,
        DiscreteBranchDensity(
            {
                1: DiscreteEndCase(0.4, (1,), {(0,): 1.0}),
                2: DiscreteEndCase(0.6, (1, 1), {(0, 0): 1.0}),
            }
        ),
    )
    (out,) = predict_slots([prior], model, 3)
    comps = out.density.components
    assert comps[1].beta == pytest.approx(0.4)
    assert comps[2].beta == pytest.approx(0.6 * 0.5)
    assert comps[3].beta == pytest.approx(0.6 * 0.5)
    assert comps[3].genealogy == (1, 1, 1)
