"""Kernels verification: each hot-path kernel against a naive reference.

``repro verify --only kernels`` checks the round loop's kernels — the
incrementally maintained :class:`~repro.core.state.LearningState`, the
``O(M)`` partition :func:`~repro.core.selection.top_k_indices`, and the
buffered :func:`~repro.kernels.selection.estimation_error` — and the
batched :mod:`repro.kernels` solves, at the strength each contracts for:

1. **State reference oracle** — random update/restore/reset histories
   must give *bit-identical* values to the naive references kept in this
   module: means rebuilt from the raw counts/sums, the masked-gather UCB
   index vector, and the stable-argsort top-K (also on tie-heavy
   quantized, infinite and NaN scores); plus the estimation error
   against its allocating form
   :func:`~repro.sim.rounds.estimation_error_scalar`.
2. **Batch-stage oracle** — :func:`repro.kernels.masked_stage_sums` and
   :func:`repro.kernels.solve_rounds_batch` against per-market scalar
   :func:`~repro.core.incentive.solve_round_fast` solves at ``<= 1e-9``
   relative tolerance (summation order differs, see
   :mod:`repro.kernels.batch`), with exact profit ties between Stage-1
   candidates accepted as equally optimal; plus
   :func:`repro.kernels.stage3_golden_batch` against
   :func:`repro.game.stackelberg.solve_stage3_batch` row for row.
3. **Mutation canary** — a 1% inflation of the confidence bonus
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
    "check_batch_kernels",
    "check_mutation_canary",
    "check_kernels",
]

#: Relative tolerance of the batch-stage oracle.
_BATCH_RTOL = 1e-9


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


def check_batch_kernels(*, seed: int = 0, trials: int = 40) -> KernelsCheck:
    """Batched Stage 1-3 solves vs per-market scalar solves at 1e-9.

    Exact Stage-1 profit ties between distinct candidates are accepted:
    the scalar cascade iterates a deduplicated candidate *set* while the
    batch kernel evaluates ordered columns, so tied optima may resolve
    to different (equally optimal) prices — the consumer profit must
    still agree to ``1e-9``.
    """
    import math

    from repro.core.incentive import solve_round_fast
    from repro.game.profits import GameInstance
    from repro.game.stackelberg import solve_stage3_batch
    from repro.kernels.batch import (
        masked_stage_sums,
        solve_rounds_batch,
        stage3_golden_batch,
    )

    rng = seeded_generator(seed)
    rows = 0
    ties = 0
    for trial in range(trials):
        m = int(rng.integers(3, 25))
        markets = int(rng.integers(1, 8))
        qualities = rng.uniform(0.05, 1.0, (markets, m))
        cost_a = rng.uniform(0.2, 2.0, (markets, m))
        cost_b = rng.uniform(0.0, 0.5, (markets, m))
        mask = rng.random((markets, m)) < 0.6
        for r in range(markets):
            if not mask[r].any():
                mask[r, int(rng.integers(0, m))] = True
        theta = float(rng.uniform(0.01, 0.5))
        lam = float(rng.uniform(0.1, 2.0))
        omega = float(rng.uniform(1.0, 60.0))
        svc_bounds = ((0.0, float(rng.uniform(5.0, 200.0)))
                      if trial % 3 else (0.0, float("inf")))
        col_bounds = (0.0, float(rng.uniform(1.0, 50.0)))
        tau_max = (float(rng.uniform(0.5, 10.0)) if trial % 2
                   else float("inf"))
        paper_variant = bool(trial % 4 == 0)
        a_sums, b_sums, mean_q = masked_stage_sums(qualities, cost_a,
                                                   cost_b, mask)
        services, collections, taus, __ = solve_rounds_batch(
            qualities, cost_a, cost_b, mask, theta, lam, omega,
            svc_bounds, col_bounds, tau_max, paper_variant,
        )
        for r in range(markets):
            selected = np.flatnonzero(mask[r])
            q_sel = qualities[r, selected]
            a_ref = float(np.sum(1.0 / (2.0 * q_sel * cost_a[r, selected])))
            b_ref = float(np.sum(
                cost_b[r, selected] / (2.0 * cost_a[r, selected])
            ))
            q_ref = float(q_sel.mean())
            for got, ref, label in ((a_sums[r], a_ref, "A"),
                                    (b_sums[r], b_ref, "B"),
                                    (mean_q[r], q_ref, "qbar")):
                if abs(got - ref) > _BATCH_RTOL * max(abs(ref), 1.0):
                    return KernelsCheck(
                        "batch-stage", False,
                        f"masked {label} sum off by "
                        f"{abs(got - ref):.3e} in trial {trial}"
                    )
            ref_service, ref_collection, ref_taus = solve_round_fast(
                q_sel, cost_a[r, selected], cost_b[r, selected], theta,
                lam, omega, svc_bounds, col_bounds, tau_max,
                paper_variant,
            )

            def consumer_profit(service_price: float,
                                sensing: np.ndarray) -> float:
                total = float(np.sum(sensing))
                return (omega * math.log1p(q_ref * total)
                        - service_price * total)

            profit_ref = consumer_profit(ref_service, ref_taus)
            profit_got = consumer_profit(float(services[r]),
                                         taus[r, selected])
            scale = max(abs(profit_ref), 1.0)
            if abs(profit_got - profit_ref) > _BATCH_RTOL * scale:
                return KernelsCheck(
                    "batch-stage", False,
                    f"consumer profit diverged by "
                    f"{abs(profit_got - profit_ref):.3e} in trial "
                    f"{trial} market {r}"
                )
            price_scale = max(abs(ref_service), 1.0)
            if abs(float(services[r]) - ref_service) > _BATCH_RTOL * price_scale:
                ties += 1  # exact profit tie resolved differently
            else:
                col_scale = max(abs(ref_collection), 1.0)
                tau_scale = np.maximum(np.abs(ref_taus), 1.0)
                if (abs(float(collections[r]) - ref_collection)
                        > _BATCH_RTOL * col_scale
                        or np.any(np.abs(taus[r, selected] - ref_taus)
                                  > _BATCH_RTOL * tau_scale)):
                    return KernelsCheck(
                        "batch-stage", False,
                        f"collection price / sensing times diverged in "
                        f"trial {trial} market {r}"
                    )
            # Masked-out sellers must hold an exact 0.0 (assigned, not
            # computed), so a nonzero count is the right exact test.
            if np.count_nonzero(taus[r, ~mask[r]]):
                return KernelsCheck(
                    "batch-stage", False,
                    f"masked-out sellers received nonzero sensing time "
                    f"in trial {trial} market {r}"
                )
            rows += 1
        # Batched Stage-3 golden section vs the per-game reference.
        prices = rng.uniform(0.5, 20.0, markets)
        game = GameInstance(
            qualities=qualities[0], cost_a=cost_a[0], cost_b=cost_b[0],
            theta=theta, lam=lam, omega=omega,
            max_sensing_time=tau_max if math.isfinite(tau_max) else 10.0,
        )
        reference = solve_stage3_batch(game, prices)
        batched = stage3_golden_batch(
            prices, qualities[0], cost_a[0], cost_b[0],
            game.max_sensing_time,
        )
        if not np.allclose(batched, reference, rtol=_BATCH_RTOL,
                           atol=1e-9):
            return KernelsCheck(
                "batch-stage", False,
                f"stage3_golden_batch diverged from solve_stage3_batch "
                f"in trial {trial}"
            )
    return KernelsCheck(
        "batch-stage", True,
        f"{rows} market rows solved batched vs scalar at rtol {_BATCH_RTOL:g} "
        f"({ties} exact candidate ties resolved to equal-profit optima)"
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
        check_batch_kernels(seed=seed),
        check_mutation_canary(seed=seed),
    )
    return KernelsCheckResult(checks=checks)
