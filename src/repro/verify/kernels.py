"""Kernels verification: each hot-path kernel against a naive reference.

``repro verify --only kernels`` checks the round loop's kernels — the
incrementally maintained :class:`~repro.core.state.LearningState`, the
``O(M)`` partition :func:`~repro.core.selection.top_k_indices`, and the
buffered :func:`~repro.kernels.selection.estimation_error` — bit for
bit:

1. **State reference oracle** — random update/restore/reset histories
   must give *bit-identical* values to the naive references kept in this
   module: means rebuilt from the raw counts/sums, the masked-gather UCB
   index vector, and the stable-argsort top-K (also on tie-heavy
   quantized, infinite and NaN scores); plus the estimation error
   against its allocating form
   :func:`~repro.sim.rounds.estimation_error_scalar`.
2. **Mutation canary** — a 1% inflation of the confidence bonus
   (:data:`repro.core.state._MUTATION_SCALE`) must make the state
   oracle *fail*, proving it has the power to catch a real kernel
   defect of that size.

Whole runs are pinned by the checked-in engine and churn goldens
(``repro verify --only goldens`` / ``--only runtime``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import seeded_generator

__all__ = [
    "KernelsCheck",
    "KernelsCheckResult",
    "reference_means",
    "reference_ucb",
    "reference_top_k",
    "check_state_kernels",
    "check_mutation_canary",
    "check_kernels",
]


@dataclass(frozen=True)
class KernelsCheck:
    """One named kernels check: verdict plus narrative."""

    name: str
    passed: bool
    detail: str

    def describe(self) -> str:
        """One-line rendering for reports."""
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


@dataclass(frozen=True)
class KernelsCheckResult:
    """Outcome of the kernels section: every leg's verdict."""

    checks: tuple[KernelsCheck, ...]

    @property
    def passed(self) -> bool:
        """Whether every leg is clean."""
        return all(check.passed for check in self.checks)

    def failures(self) -> list[KernelsCheck]:
        """The failed legs, in run order."""
        return [check for check in self.checks if not check.passed]

    def to_dict(self) -> dict:
        """JSON-ready payload for the ``--report`` artefact."""
        return {
            "passed": self.passed,
            "checks": [
                {"name": check.name, "passed": check.passed,
                 "detail": check.detail}
                for check in self.checks
            ],
        }


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


def check_state_kernels(*, seed: int = 0, trials: int = 60) -> KernelsCheck:
    """Bit-identity of the round-loop kernels against the references.

    Each trial drives a :class:`~repro.core.state.LearningState` through
    a random history of updates (empty ones included), snapshot
    restores, and resets, replaying the same history on plain counts/
    sums arrays, and compares after every step; quantized (tie-heavy),
    infinite, and NaN score vectors additionally pin the top-K.
    """
    from repro.core.selection import top_k_indices
    from repro.core.state import LearningState
    from repro.kernels.selection import estimation_error
    from repro.sim.rounds import PRIOR_MEAN, estimation_error_scalar

    def fail(detail: str) -> KernelsCheck:
        return KernelsCheck("state-reference", False, detail)

    rng = seeded_generator(seed)
    comparisons = 0
    for trial in range(trials):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, m + 1))
        coefficient = float(k + 1)
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m)
        saved = (state.snapshot(), counts.copy(), sums.copy())
        for step in range(int(rng.integers(1, 12))):
            action = rng.random()
            if action < 0.1:
                state.reset()
                counts[:] = 0
                sums[:] = 0.0
            elif action < 0.25:
                state.restore(saved[0])
                counts, sums = saved[1].copy(), saved[2].copy()
            else:
                size = int(rng.integers(0, m + 1))
                sellers = rng.choice(m, size=size, replace=False)
                num_observations = int(rng.integers(1, 6))
                observed = rng.uniform(0.0, 1.0, size) * num_observations
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
        truth = rng.uniform(0.0, 1.0, m)
        if estimation_error(state.means, truth, np.empty(m)) \
                != estimation_error_scalar(state.means, truth):
            return fail(f"estimation_error diverged in trial {trial} "
                        f"(M={m})")
        comparisons += 2
    return KernelsCheck(
        "state-reference", True,
        f"{trials} random update/restore/reset histories, {comparisons} "
        "bit-identity comparisons (means, UCB vectors, top-K incl. "
        "tie-heavy scores, estimation error)"
    )


def check_mutation_canary(*, seed: int = 0) -> KernelsCheck:
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
        return KernelsCheck(
            "mutation-canary", False,
            "a 1% confidence-bonus inflation went undetected — the "
            "reference oracle has lost its power"
        )
    return KernelsCheck(
        "mutation-canary", True,
        f"1% bonus inflation caught by the state oracle "
        f"({mutated.detail})"
    )


def check_kernels(*, seed: int = 0) -> KernelsCheckResult:
    """Run every kernels leg and collect one result."""
    checks = (
        check_state_kernels(seed=seed),
        check_mutation_canary(seed=seed),
    )
    return KernelsCheckResult(checks=checks)
