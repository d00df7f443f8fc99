"""Regret accounting and the Theorem-19 bound.

The regret of a selection policy (Eq. 34) is the expected-revenue gap to
the omniscient policy that always selects the ``K`` truly-best sellers.
Since each selected seller contributes ``L`` observations per round, a
round's expected revenue is ``L * sum_{i in S^t} q_i`` and its regret
increment is ``L * (sum_{S*} q_i - sum_{S^t} q_i)``.

:func:`theorem19_bound` evaluates the paper's closed-form upper bound
``M * Delta_max * (4K^2(K+1)ln(NKL)/Delta_min^2 + 1 + pi^2/(3K^{2K+1}L^{K+2}))``
so experiments can check that measured regret stays below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.selection import top_k_indices
from repro.exceptions import ConfigurationError

__all__ = [
    "GapStatistics",
    "gap_statistics",
    "lemma18_bound",
    "theorem19_bound",
    "RegretTracker",
]


@dataclass(frozen=True)
class GapStatistics:
    """The revenue gaps ``Delta_min``/``Delta_max`` (Eqs. 35-36).

    Attributes
    ----------
    delta_min:
        Smallest positive revenue gap between the optimal selected set and
        any other set: the gap to the set that swaps the weakest optimal
        seller for the strongest non-optimal one.
    delta_max:
        Largest gap: optimal set versus the ``K`` worst sellers.
    optimal_set:
        Indices of the optimal selected set ``S*``.
    optimal_value:
        ``sum_{i in S*} q_i``.
    """

    delta_min: float
    delta_max: float
    optimal_set: np.ndarray
    optimal_value: float


def gap_statistics(expected_qualities: np.ndarray, k: int) -> GapStatistics:
    """Compute ``Delta_min`` and ``Delta_max`` for a quality vector.

    With qualities sorted descending as ``q_(1) >= ... >= q_(M)``, the
    closest non-optimal set differs only by swapping ``q_(K)`` for
    ``q_(K+1)``, so ``Delta_min = q_(K) - q_(K+1)``; the farthest set is
    the bottom ``K``, so ``Delta_max = sum(top K) - sum(bottom K)``.

    Raises
    ------
    ConfigurationError
        If ``k >= M`` (no non-optimal set exists) or inputs are malformed.
    """
    qualities = np.asarray(expected_qualities, dtype=float)
    if qualities.ndim != 1 or qualities.size == 0:
        raise ConfigurationError("expected_qualities must be a non-empty 1-D array")
    if not (1 <= k < qualities.size):
        raise ConfigurationError(
            f"k must be in [1, M-1] = [1, {qualities.size - 1}], got {k}"
        )
    descending = np.sort(qualities)[::-1]
    delta_min = float(descending[k - 1] - descending[k])
    delta_max = float(descending[:k].sum() - descending[-k:].sum())
    optimal = top_k_indices(qualities, k)
    return GapStatistics(
        delta_min=delta_min,
        delta_max=delta_max,
        optimal_set=optimal,
        optimal_value=float(qualities[optimal].sum()),
    )


def lemma18_bound(k: int, num_pois: int, num_rounds: int,
                  delta_min: float) -> float:
    """The Lemma-18 upper bound on a seller's expected counter.

    Evaluates::

        E[beta_i^N] <= 4K^2(K+1)ln(NKL)/Delta_min^2 + 1
                       + pi^2 / (3 K^{2K+1} L^{K+2})

    — the expected number of *observations* attributable to non-optimal
    selections of any one seller.  Measured selection counters of
    suboptimal sellers under CMAB-HS must stay below it (verified in the
    test suite and the ablation benches).

    Returns ``inf`` when ``delta_min`` is zero or its square underflows.
    """
    if k <= 0 or num_pois <= 0 or num_rounds <= 0:
        raise ConfigurationError("all problem sizes must be positive")
    if delta_min < 0.0:
        raise ConfigurationError("delta_min must be non-negative")
    squared_gap = delta_min * delta_min
    if squared_gap == 0.0:
        return float("inf")
    leading = (
        4.0 * k * k * (k + 1) * math.log(num_rounds * k * num_pois)
    ) / squared_gap
    log_tail = (
        math.log(math.pi * math.pi / 3.0)
        - (2 * k + 1) * math.log(k)
        - (k + 2) * math.log(num_pois)
    )
    tail = math.exp(log_tail) if log_tail > -700.0 else 0.0
    return leading + 1.0 + tail


def theorem19_bound(num_sellers: int, k: int, num_pois: int, num_rounds: int,
                    delta_min: float, delta_max: float) -> float:
    """The Theorem-19 regret upper bound ``O(M K^3 ln(NKL))``.

    Evaluates::

        M * Delta_max * ( 4K^2(K+1)ln(NKL)/Delta_min^2 + 1
                          + pi^2 / (3 K^{2K+1} L^{K+2}) )

    The last term underflows to 0 for realistic ``K``/``L``; it is
    computed in log space to stay finite for any input.

    Returns ``inf`` when ``delta_min`` is zero (the bound degenerates when
    the K-th and (K+1)-th sellers tie exactly).
    """
    if num_sellers <= 0:
        raise ConfigurationError("all problem sizes must be positive")
    if delta_max < 0.0:
        raise ConfigurationError("gaps must be non-negative")
    if delta_max == 0.0:
        # Every K-set has the same value: no set is suboptimal, so the
        # regret is identically zero.
        return 0.0
    return num_sellers * delta_max * lemma18_bound(
        k, num_pois, num_rounds, delta_min
    )


class RegretTracker:
    """Accumulates per-round pseudo-regret against the omniscient policy.

    Pseudo-regret uses the *expected* qualities (the standard bandit
    notion, and what Eq. 34 evaluates): round ``t`` contributes
    ``L * (sum_{S*} q_i - sum_{S^t} q_i)``.

    Parameters
    ----------
    expected_qualities:
        Ground-truth expected qualities ``q_i``.
    k:
        Number of sellers selected per round.
    num_pois:
        Observations per selected seller per round (``L``).
    """

    def __init__(self, expected_qualities: np.ndarray, k: int,
                 num_pois: int) -> None:
        qualities = np.asarray(expected_qualities, dtype=float)
        if num_pois <= 0:
            raise ConfigurationError(f"num_pois must be positive, got {num_pois}")
        if not (1 <= k <= qualities.size):
            raise ConfigurationError(
                f"k must be in [1, {qualities.size}], got {k}"
            )
        self._qualities = qualities
        self._num_pois = int(num_pois)
        self._k = int(k)
        optimal = top_k_indices(qualities, k)
        self._optimal_value = float(qualities[optimal].sum())
        self._optimal_set = frozenset(int(i) for i in optimal)
        self._cumulative = 0.0
        self._rounds = 0
        self._expected_revenue = 0.0
        self._history: list[float] = []
        self._last_value = 0.0

    @property
    def last_selection_value(self) -> float:
        """``sum_{i in S^t} q_i`` of the most recently recorded selection.

        The round core reads it back for the expected-revenue series
        instead of summing the same qualities a second time.
        """
        return self._last_value

    @property
    def optimal_round_revenue(self) -> float:
        """Expected revenue of the omniscient policy per round."""
        return self._optimal_value * self._num_pois

    @property
    def cumulative_regret(self) -> float:
        """Total pseudo-regret accumulated so far."""
        return self._cumulative

    @property
    def cumulative_expected_revenue(self) -> float:
        """Total expected revenue of the tracked policy so far."""
        return self._expected_revenue

    @property
    def num_rounds(self) -> int:
        """Number of rounds recorded."""
        return self._rounds

    @property
    def history(self) -> np.ndarray:
        """Cumulative regret after each recorded round."""
        return np.asarray(self._history)

    def record(self, selected: np.ndarray) -> float:
        """Record one round's selection; returns that round's regret.

        Selections larger than ``K`` (the initial explore-all round of
        Algorithm 1) are charged the gap between ``K`` optimal picks and
        the best ``K`` of the selected set — they still pay for the
        sub-optimal extra picks via the revenue side, but the regret
        baseline stays the per-round optimum as in Eq. (34).
        """
        selected = np.asarray(selected, dtype=int)
        # add.reduce is the pairwise kernel behind sum(), minus the
        # per-call wrapper: same bits, once per round.
        value = float(np.add.reduce(self._qualities[selected]))
        self._last_value = value
        self._expected_revenue += value * self._num_pois
        if selected.size > self._k:
            best = np.sort(self._qualities[selected])[::-1][: self._k]
            value = float(np.add.reduce(best))
        increment = max(self._optimal_value - value, 0.0) * self._num_pois
        self._cumulative += increment
        self._rounds += 1
        self._history.append(self._cumulative)
        return increment

    def is_optimal_selection(self, selected: np.ndarray) -> bool:
        """Whether the selection equals the omniscient set ``S*``."""
        return frozenset(int(i) for i in np.asarray(selected)) == self._optimal_set

    # -- checkpointing -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The tracker's mutable state, for crash-safe checkpoints."""
        return {
            "cumulative": self._cumulative,
            "rounds": self._rounds,
            "expected_revenue": self._expected_revenue,
            "history": np.asarray(self._history, dtype=float),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore state previously captured by :meth:`snapshot`."""
        try:
            history = np.asarray(snapshot["history"], dtype=float)
            rounds = int(snapshot["rounds"])
            cumulative = float(snapshot["cumulative"])
            expected = float(snapshot["expected_revenue"])
        except KeyError as error:
            raise ConfigurationError(
                f"regret snapshot is missing field {error.args[0]!r}"
            ) from error
        if history.size != rounds:
            raise ConfigurationError(
                f"regret snapshot is inconsistent: {history.size} history "
                f"entries for {rounds} rounds"
            )
        self._cumulative = cumulative
        self._rounds = rounds
        self._expected_revenue = expected
        self._history = [float(value) for value in history]
