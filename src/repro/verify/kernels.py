"""Kernels verification: each hot-path kernel against a naive reference.

``repro verify --only kernels`` checks the round loop's kernels — the
incrementally maintained :class:`~repro.core.state.LearningState`, the
count-class selection of :meth:`~repro.bandits.UCBPolicy.select`, the
``O(M)`` partition :func:`~repro.core.selection.top_k_indices`, and the
incremental :func:`~repro.kernels.selection.estimation_error` — bit for
bit:

1. **State reference oracle** — random update/restore/reset histories
   must give *bit-identical* values to the naive references kept in this
   module: means rebuilt from the raw counts/sums, the masked-gather UCB
   index vector, the stable-argsort top-K (also on tie-heavy
   quantized, infinite and NaN scores), and the policy's selection
   against ``reference_top_k(reference_ucb(...))``, with and without an
   online mask; plus the patched estimation-error vector against its
   from-scratch form :func:`~repro.sim.rounds.estimation_error_scalar`.
2. **Mutation canary** — a 1% inflation of the confidence bonus
   (:data:`repro.core.state._MUTATION_SCALE`) must make the state
   oracle *fail*, proving it has the power to catch a real kernel
   defect of that size.

Whole runs are pinned by the checked-in engine and churn goldens
(``repro verify --only goldens`` / ``--only runtime``).
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import seeded_generator
from repro.verify.compare import Check

__all__ = [
    "reference_means",
    "reference_ucb",
    "reference_top_k",
    "check_state_kernels",
    "check_mutation_canary",
    "check_kernels",
]


# -- naive references ------------------------------------------------------------


def reference_means(counts: np.ndarray, sums: np.ndarray,
                    prior_mean: float) -> np.ndarray:
    """Sample means rebuilt from scratch (Eq. 18); the prior where unseen."""
    means = np.full(counts.size, float(prior_mean))
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    return means


def reference_ucb(counts: np.ndarray, sums: np.ndarray, prior_mean: float,
                  coefficient: float) -> np.ndarray:
    """Eq.-19 indices by a masked gather over the seen sellers only."""
    total = int(counts.sum())
    bonuses = np.full(counts.size, np.inf)
    if total > 1:
        seen = counts > 0
        bonuses[seen] = np.sqrt(coefficient * np.log(total) / counts[seen])
    return reference_means(counts, sums, prior_mean) + bonuses


def reference_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` largest scores by a stable descending argsort prefix."""
    if k == scores.size:
        return np.arange(scores.size)
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


# -- legs ------------------------------------------------------------------------


def check_state_kernels(*, seed: int = 0, trials: int = 60) -> Check:
    """Bit-identity of the round-loop kernels against the references.

    Each trial drives a :class:`~repro.core.state.LearningState` through
    a random history of updates (empty ones included), snapshot
    restores, and resets, replaying the same history on plain counts/
    sums arrays, and compares after every step; quantized (tie-heavy),
    infinite, and NaN score vectors additionally pin the top-K.  A third
    of the updates teach the sellers the policy just selected, as a
    round does, so the selection pool sees members leave their classes.
    """
    from repro.bandits.policies import UCBPolicy
    from repro.core.selection import top_k_indices
    from repro.core.state import LearningState
    from repro.kernels.selection import estimation_error
    from repro.sim.rounds import PRIOR_MEAN, estimation_error_scalar

    def fail(detail: str) -> Check:
        return Check("state-reference", False, detail)

    rng = seeded_generator(seed)
    comparisons = 0
    for trial in range(trials):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, m + 1))
        coefficient = float(k + 1)
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        policy = UCBPolicy()
        policy.reset(m, k, 2)
        truth = rng.uniform(0.0, 1.0, m)
        abs_error = np.abs(state.means - truth)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m)
        saved = (state.snapshot(), counts.copy(), sums.copy())
        for step in range(int(rng.integers(1, 12))):
            action = rng.random()
            sellers = np.empty(0, dtype=np.int64)
            if action < 0.1:
                state.reset()
                counts[:] = 0
                sums[:] = 0.0
                abs_error = np.abs(state.means - truth)
            elif action < 0.25:
                state.restore(saved[0])
                counts, sums = saved[1].copy(), saved[2].copy()
                abs_error = np.abs(state.means - truth)
            else:
                if action < 0.5:
                    sellers = policy.select(1, state, rng)
                else:
                    size = int(rng.integers(0, m + 1))
                    sellers = rng.choice(m, size=size, replace=False)
                num_observations = int(rng.integers(1, 6))
                observed = (rng.uniform(0.0, 1.0, sellers.size)
                            * num_observations)
                state.update(sellers, observed, num_observations)
                counts[sellers] += num_observations
                sums[sellers] += observed
                if action > 0.8:
                    saved = (state.snapshot(), counts.copy(), sums.copy())
            where = f"trial {trial} step {step} (M={m}, K={k})"
            if state.total_count != int(counts.sum()):
                return fail(f"total_count diverged in {where}")
            if not np.array_equal(state.counts, counts):
                return fail(f"counts diverged in {where}")
            if not np.array_equal(state.means,
                                  reference_means(counts, sums, PRIOR_MEAN)):
                return fail(f"maintained means diverged in {where}")
            reference = reference_ucb(counts, sums, PRIOR_MEAN, coefficient)
            if not np.array_equal(state.ucb_values(coefficient), reference):
                return fail(f"UCB index vectors diverged in {where}")
            if not np.array_equal(
                    state.means + state.exploration_bonuses(coefficient),
                    reference):
                return fail(f"exploration bonuses diverged in {where}")
            if not np.array_equal(
                    top_k_indices(state.ucb_values(coefficient), k),
                    reference_top_k(reference, k)):
                return fail(f"top-K selections diverged in {where}")
            if not np.array_equal(policy.select(1, state, rng),
                                  reference_top_k(reference, k)):
                return fail(f"UCBPolicy.select diverged in {where}")
            online = rng.random(m) < 0.7
            if online.any():
                masked = reference.copy()
                masked[~online] = -np.inf
                if not np.array_equal(
                        policy.select(1, state, rng, online=online),
                        reference_top_k(
                            masked, min(k, int(np.count_nonzero(online))))):
                    return fail(f"online-masked selection diverged in "
                                f"{where}")
            if estimation_error(state.means, truth, abs_error, sellers) \
                    != estimation_error_scalar(state.means, truth):
                return fail(f"estimation_error diverged in {where}")
            comparisons += 1
        # Tie-heavy quantized scores: the regime where a naive
        # argpartition would diverge from stable tie-breaking.
        scores = rng.integers(0, 3, m).astype(float)
        if trial % 3 == 0:
            scores[int(rng.integers(0, m))] = np.inf
        if trial % 5 == 0:
            scores[:] = scores[0]
        if trial % 7 == 0:
            scores[int(rng.integers(0, m))] = np.nan
        if not np.array_equal(top_k_indices(scores, k),
                              reference_top_k(scores, k)):
            return fail(f"top-K diverged on quantized scores in trial "
                        f"{trial} (M={m}, K={k})")
        comparisons += 1
    return Check(
        "state-reference", True,
        f"{trials} random update/restore/reset histories, {comparisons} "
        "bit-identity comparisons (means, UCB vectors, top-K incl. "
        "tie-heavy scores, policy selection, estimation error)"
    )


def check_mutation_canary(*, seed: int = 0) -> Check:
    """A 1% kernel mutation must make the state oracle fail.

    Inflates the confidence bonus by 1% through the
    :data:`~repro.core.state._MUTATION_SCALE` hook, re-runs the state
    reference oracle, and passes iff that oracle *fails* — the suite
    demonstrably has the power to catch a real defect of that size.
    The hook is restored unconditionally.
    """
    from repro.core import state

    original = state._MUTATION_SCALE
    try:
        state._MUTATION_SCALE = 1.01
        mutated = check_state_kernels(seed=seed, trials=10)
    finally:
        state._MUTATION_SCALE = original
    if mutated.passed:
        return Check(
            "mutation-canary", False,
            "a 1% confidence-bonus inflation went undetected — the "
            "reference oracle has lost its power"
        )
    return Check(
        "mutation-canary", True,
        f"1% bonus inflation caught by the state oracle "
        f"({mutated.detail})"
    )


def check_kernels(*, seed: int = 0) -> list[Check]:
    """The state reference oracle, then the mutation canary."""
    return [check_state_kernels(seed=seed), check_mutation_canary(seed=seed)]
