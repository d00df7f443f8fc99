"""General combinatorial UCB: pluggable selection oracles.

The paper's CMAB-HS instantiates the classic CUCB pattern (Chen et al.,
the paper's [33]) with the *top-K* action space.  This module factors
that pattern out: an :class:`Oracle` maps a weight vector (the UCB
indices) to a feasible seller subset, and :class:`OraclePolicy` plugs any
oracle into the standard
:class:`~repro.bandits.base.SelectionPolicy` API, so the trading engine
can run CUCB over richer action spaces without modification:

* :class:`TopKOracle` — the paper's action space (``OraclePolicy`` with
  it reproduces :class:`~repro.bandits.policies.UCBPolicy` exactly);
* :class:`WeightedCoverageOracle` — secure PoI coverage first (greedy
  weighted set cover), then fill by weight;
* :class:`GreedyKnapsackOracle` — per-round recruitment budget over
  heterogeneous seller costs (greedy by weight/cost density, the classic
  1/2-approximation oracle for the budgeted CMAB variants the paper
  cites as [33]/[34]).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.core.selection import top_k_indices
from repro.core.state import LearningState
from repro.exceptions import ConfigurationError, SelectionError

__all__ = [
    "Oracle",
    "TopKOracle",
    "WeightedCoverageOracle",
    "GreedyKnapsackOracle",
    "OraclePolicy",
]


class Oracle(abc.ABC):
    """Maps a weight vector to a feasible subset of sellers.

    Weights are UCB indices during a CUCB run, but any non-negative
    score vector works (true means for an omniscient reference, sample
    means for a greedy one).
    """

    @abc.abstractmethod
    def select(self, weights: np.ndarray, k: int) -> np.ndarray:
        """Return the chosen seller indices for the given weights.

        ``k`` is the nominal selection size; oracles with their own
        feasibility structure (budgets) may return fewer sellers but
        never more than ``k``.  The result is canonical: an ascending
        ``np.int64`` array (so selections index, compare, and serialize
        identically across oracles).
        """

    def _validated(self, weights: np.ndarray, k: int) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise SelectionError("weights must be a non-empty 1-D array")
        if not (1 <= k <= weights.size):
            raise SelectionError(
                f"k must be in [1, {weights.size}], got {k}"
            )
        return weights


class TopKOracle(Oracle):
    """The paper's action space: the ``k`` largest weights."""

    def select(self, weights: np.ndarray, k: int) -> np.ndarray:
        weights = self._validated(weights, k)
        return top_k_indices(weights, k)


class WeightedCoverageOracle(Oracle):
    """Greedy weighted set cover, then fill remaining slots by weight.

    Parameters
    ----------
    coverage_matrix:
        Boolean ``(M, L)`` matrix: which seller reaches which PoI.
    """

    def __init__(self, coverage_matrix: np.ndarray) -> None:
        matrix = np.asarray(coverage_matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ConfigurationError(
                "coverage_matrix must be a non-empty 2-D boolean array"
            )
        self._matrix = matrix

    def select(self, weights: np.ndarray, k: int) -> np.ndarray:
        weights = self._validated(weights, k)
        if weights.size != self._matrix.shape[0]:
            raise SelectionError(
                "weights length does not match the coverage matrix"
            )
        finite = np.where(np.isfinite(weights), weights, np.nan)
        fallback = np.nanmax(finite) if np.isfinite(finite).any() else 1.0
        safe = np.where(np.isfinite(weights), weights, fallback + 1.0)
        chosen: list[int] = []
        available = np.ones(weights.size, dtype=bool)
        uncovered = np.ones(self._matrix.shape[1], dtype=bool)
        while len(chosen) < k and uncovered.any():
            gains = self._matrix[:, uncovered].sum(axis=1) * np.maximum(
                safe, 1e-12
            )
            gains[~available] = -np.inf
            if gains.max() <= 0.0:
                break
            best = int(np.argmax(gains))
            chosen.append(best)
            available[best] = False
            uncovered &= ~self._matrix[best]
        remaining = k - len(chosen)
        if remaining > 0:
            candidates = np.nonzero(available)[0]
            fill = candidates[top_k_indices(weights[candidates], remaining)]
            chosen.extend(fill.tolist())
        return np.sort(np.array(chosen, dtype=np.int64))


class GreedyKnapsackOracle(Oracle):
    """Budgeted selection: greedy by weight/cost density.

    Each seller carries a recruitment cost; a round may only select
    sellers whose total cost fits the budget (and at most ``k`` of
    them).  Greedy-by-density is the standard approximation oracle for
    budgeted combinatorial bandits.

    Parameters
    ----------
    costs:
        Per-seller recruitment costs (> 0), shape ``(M,)``.
    budget:
        Per-round recruitment budget (> 0).
    """

    def __init__(self, costs: np.ndarray, budget: float) -> None:
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise ConfigurationError(
                "costs must be a non-empty 1-D array"
            )
        if np.any(costs <= 0.0):
            raise ConfigurationError("all recruitment costs must be > 0")
        if not (budget > 0.0):
            raise ConfigurationError(f"budget must be > 0, got {budget}")
        self._costs = costs
        self._budget = float(budget)

    @property
    def budget(self) -> float:
        """The per-round recruitment budget."""
        return self._budget

    def select(self, weights: np.ndarray, k: int) -> np.ndarray:
        weights = self._validated(weights, k)
        if weights.size != self._costs.size:
            raise SelectionError(
                "weights length does not match the cost vector"
            )
        finite = weights[np.isfinite(weights)]
        ceiling = float(finite.max()) + 1.0 if finite.size else 1.0
        safe = np.where(np.isfinite(weights), weights, ceiling)
        density = safe / self._costs
        order = np.argsort(-density, kind="stable")
        chosen: list[int] = []
        spent = 0.0
        for seller in order:
            if len(chosen) >= k:
                break
            cost = float(self._costs[seller])
            if spent + cost <= self._budget:
                chosen.append(int(seller))
                spent += cost
        if not chosen:
            # Always recruit someone: the single cheapest seller.
            chosen = [int(np.argmin(self._costs))]
        return np.sort(np.array(chosen, dtype=np.int64))


class OraclePolicy(SelectionPolicy):
    """CUCB with a pluggable oracle.

    Round 0 selects all sellers (the CMAB-HS initial exploration);
    afterwards the oracle is applied to the UCB index vector.  With
    :class:`TopKOracle` this is exactly
    :class:`~repro.bandits.policies.UCBPolicy`.

    Parameters
    ----------
    oracle:
        The action-space oracle.
    name:
        Display name; defaults to ``cucb:<oracle class name>``.
    exploration_coefficient:
        Confidence constant (``None`` = the paper's ``K+1``).
    initial_full_exploration:
        Whether round 0 selects everyone.
    """

    def __init__(self, oracle: Oracle, name: str | None = None,
                 exploration_coefficient: float | None = None,
                 initial_full_exploration: bool = True) -> None:
        super().__init__()
        if exploration_coefficient is not None and exploration_coefficient <= 0:
            raise ConfigurationError(
                "exploration_coefficient must be positive"
            )
        self._oracle = oracle
        self._coefficient_override = exploration_coefficient
        self._initial_full_exploration = bool(initial_full_exploration)
        self.name = (
            name if name is not None
            else f"cucb:{type(oracle).__name__}"
        )

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        if round_index == 0 and self._initial_full_exploration:
            return np.arange(self._num_sellers)
        coefficient = (
            float(self._coefficient_override)
            if self._coefficient_override is not None
            else float(self._k + 1)
        )
        return self._oracle.select(state.ucb_values(coefficient), self._k)
