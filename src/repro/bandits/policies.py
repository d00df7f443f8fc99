"""Concrete seller-selection policies.

The paper's mechanism and its three comparison baselines (Section V-A):

* :class:`UCBPolicy` — the CMAB-HS bandit policy (Algorithm 1): explore
  all sellers once, then greedily take the top-``K`` UCB indices.
* :class:`OptimalPolicy` — omniscient; always the truly best ``K``.
* :class:`EpsilonFirstPolicy` — random for the first ``eps*N`` rounds,
  then greedy on sample means.
* :class:`RandomPolicy` — uniformly random ``K`` every round.

Extensions beyond the paper (used in ablation experiments):

* :class:`EpsilonGreedyPolicy` — classic per-round explore/exploit mix.
* :class:`ThompsonSamplingPolicy` — Beta-posterior sampling (observations
  in ``[0, 1]`` are treated as fractional Bernoulli successes).
* :class:`SlidingWindowUCBPolicy` — UCB over a trailing window, for the
  non-stationary qualities of the Definition-3 remark.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.core.selection import _top_k, top_k_indices
from repro.core.state import LearningState
from repro.exceptions import ConfigurationError, SelectionError

__all__ = [
    "UCBPolicy",
    "OptimalPolicy",
    "EpsilonFirstPolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "ThompsonSamplingPolicy",
    "SlidingWindowUCBPolicy",
]


def _pool_depth(k: int, num_sellers: int) -> int:
    """How deep a count-class pool reaches into each class.

    A rebuild costs one ``O(M)`` pass per class and comes about every
    ``depth / K`` rounds, while a round costs ``O(depth)`` per partial
    class; ``2 * sqrt(K * M)`` keeps both small, and ``8K`` keeps small
    populations from rebuilding every few rounds.
    """
    return max(8 * k, math.ceil(2.0 * math.sqrt(k * num_sellers)))


class UCBPolicy(SelectionPolicy):
    """The CMAB-HS selection policy (Algorithm 1).

    Round 0 selects *all* sellers (initial exploration, steps 2-4); every
    later round selects the ``K`` largest UCB indices (Eq. 19).

    This is the one place that composes Eq. 19 with the top-K rule, and
    it does so over the learning state's count-class pool
    (:meth:`~repro.core.state.LearningState.count_classes`) rather than
    all ``M`` sellers: a round costs ``O(pool)``, a few times ``K`` per
    count class.  The result is the same set, bit for bit, as
    ``top_k_indices(state.ucb_values(c), K)``: the pool's top-K is
    returned only once the per-class bounds prove no left-out seller
    could displace it, and otherwise the pool is rebuilt (deeper on
    each retry) and the selection retried (DESIGN.md, "Count-class
    selection").

    Parameters
    ----------
    exploration_coefficient:
        The constant inside the confidence radius.  ``None`` (default)
        uses the paper's ``K+1``; ablations may pass any positive value.
    initial_full_exploration:
        Whether round 0 selects every seller.  Disabling it is an
        ablation — the UCB indices then force exploration one batch of
        ``K`` at a time.
    """

    name = "CMAB-HS"

    def __init__(self, exploration_coefficient: float | None = None,
                 initial_full_exploration: bool = True) -> None:
        super().__init__()
        if exploration_coefficient is not None and exploration_coefficient <= 0:
            raise ConfigurationError(
                "exploration_coefficient must be positive, got "
                f"{exploration_coefficient}"
            )
        self._coefficient_override = exploration_coefficient
        self._initial_full_exploration = bool(initial_full_exploration)

    @property
    def exploration_coefficient(self) -> float:
        """The effective coefficient (``K+1`` unless overridden)."""
        self._require_reset()
        if self._coefficient_override is not None:
            return float(self._coefficient_override)
        return float(self._k + 1)

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator,
               online: np.ndarray | None = None) -> np.ndarray:
        """Select this round's sellers, optionally from a partial roster.

        ``online`` is a boolean per-seller mask (``None`` means every
        seller is online).  The exploration round then selects every
        online seller, and later rounds the top ``min(K, online)`` UCB
        indices among the online sellers.
        """
        self._require_reset()
        if round_index == 0 and self._initial_full_exploration:
            if online is None:
                return np.arange(self._num_sellers)
            return np.flatnonzero(online)
        coefficient = self.exploration_coefficient
        k = (self._k if online is None
             else min(self._k, int(np.count_nonzero(online))))
        if k == 0:
            raise SelectionError("cannot select from a roster with no "
                                 "seller online")
        depth = _pool_depth(self._k, self._num_sellers)
        classes = state.count_classes(depth)
        while True:
            pool = classes.pool
            candidates = pool if online is None else pool[online[pool]]
            if candidates.size >= k:
                scores = state.ucb_at(coefficient, candidates)
                top = _top_k(scores, k)
                if not classes.counts.size:  # the pool holds everyone
                    return candidates[top]
                # Every left-out seller must lose to all K winners: its
                # class bound is below the K-th index, or equal to it
                # with every tied winner at a lower seller index.
                winners, kept = candidates[top], scores[top]
                threshold = kept.min()
                last_tied = winners[kept == threshold].max()
                bounds = state.class_bounds(coefficient, classes)
                if np.all((bounds < threshold)
                          | ((bounds == threshold)
                             & (classes.rest_first > last_tied))):
                    return winners
            # The pool ran dry, or a tie needs what it left out: build it
            # afresh (dropping stale members), then deeper on each retry.
            classes = state.rebuild_count_classes(depth)
            depth *= 4


class OptimalPolicy(SelectionPolicy):
    """Omniscient baseline: always selects the truly best ``K`` sellers.

    Parameters
    ----------
    expected_qualities:
        The ground-truth expected qualities ``q_i`` (hidden from every
        other policy).
    """

    name = "optimal"

    def __init__(self, expected_qualities: np.ndarray) -> None:
        super().__init__()
        qualities = np.asarray(expected_qualities, dtype=float)
        if qualities.ndim != 1 or qualities.size == 0:
            raise ConfigurationError(
                "expected_qualities must be a non-empty 1-D array"
            )
        self._qualities = qualities
        self._cached: np.ndarray | None = None

    def reset(self, num_sellers: int, k: int, num_rounds: int) -> None:
        super().reset(num_sellers, k, num_rounds)
        if num_sellers != self._qualities.size:
            raise ConfigurationError(
                f"policy knows {self._qualities.size} qualities but the run "
                f"has {num_sellers} sellers"
            )
        self._cached = top_k_indices(self._qualities, k)

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        assert self._cached is not None
        return self._cached


class EpsilonFirstPolicy(SelectionPolicy):
    """Pure exploration for ``eps*N`` rounds, then greedy on sample means.

    During exploration it selects ``K`` sellers uniformly at random; from
    round ``ceil(eps*N)`` on it selects the top-``K`` *sample means* (no
    confidence bonus — that is what distinguishes it from CMAB-HS).

    Parameters
    ----------
    epsilon:
        Fraction of rounds spent purely exploring; paper sweeps 0.1-0.5.
    """

    def __init__(self, epsilon: float) -> None:
        super().__init__()
        if not (0.0 < epsilon < 1.0):
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        self._epsilon = float(epsilon)
        self.name = f"{epsilon:g}-first"

    @property
    def epsilon(self) -> float:
        """The exploration fraction."""
        return self._epsilon

    @property
    def exploration_rounds(self) -> int:
        """Number of initial pure-exploration rounds (at least 1)."""
        self._require_reset()
        return max(int(np.ceil(self._epsilon * self._num_rounds)), 1)

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        if round_index < self.exploration_rounds:
            return np.sort(
                rng.choice(self._num_sellers, size=self._k, replace=False)
            )
        return _top_k(state.means, self._k)


class RandomPolicy(SelectionPolicy):
    """Uniformly random ``K`` sellers every round (quality-blind)."""

    name = "random"

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        return np.sort(
            rng.choice(self._num_sellers, size=self._k, replace=False)
        )


class EpsilonGreedyPolicy(SelectionPolicy):
    """Classic epsilon-greedy extension.

    Each round, with probability ``epsilon`` select randomly, otherwise
    select the top-``K`` sample means.  Sellers never observed rank at
    the learning state's prior mean, so there is no separate
    full-exploration round: the random rounds reach every seller.
    """

    def __init__(self, epsilon: float = 0.1) -> None:
        super().__init__()
        if not (0.0 <= epsilon <= 1.0):
            raise ConfigurationError(
                f"epsilon must be in [0, 1], got {epsilon}"
            )
        self._epsilon = float(epsilon)
        self.name = f"{epsilon:g}-greedy"

    @property
    def epsilon(self) -> float:
        """The per-round exploration probability."""
        return self._epsilon

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        if rng.random() < self._epsilon:
            return np.sort(
                rng.choice(self._num_sellers, size=self._k, replace=False)
            )
        return _top_k(state.means, self._k)


class ThompsonSamplingPolicy(SelectionPolicy):
    """Beta-posterior Thompson sampling over ``[0, 1]`` rewards.

    Each observation sum ``s`` over ``n`` draws is folded into a Beta
    posterior as ``alpha += s``, ``beta += n - s`` (fractional Bernoulli
    trick — valid for ``[0, 1]``-supported rewards).  Each round a sample
    is drawn from every posterior and the top-``K`` samples are selected.
    """

    name = "thompson"

    def __init__(self, prior_alpha: float = 1.0, prior_beta: float = 1.0) -> None:
        super().__init__()
        if prior_alpha <= 0.0 or prior_beta <= 0.0:
            raise ConfigurationError("Beta prior parameters must be positive")
        self._prior_alpha = float(prior_alpha)
        self._prior_beta = float(prior_beta)
        self._alpha = np.empty(0)
        self._beta = np.empty(0)

    def reset(self, num_sellers: int, k: int, num_rounds: int) -> None:
        super().reset(num_sellers, k, num_rounds)
        self._alpha = np.full(num_sellers, self._prior_alpha)
        self._beta = np.full(num_sellers, self._prior_beta)

    def observe(self, round_index: int, seller_indices: np.ndarray,
                observation_sums: np.ndarray, num_observations: int) -> None:
        sellers = np.asarray(seller_indices, dtype=int)
        sums = np.asarray(observation_sums, dtype=float)
        self._alpha[sellers] += sums
        self._beta[sellers] += num_observations - sums

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        samples = rng.beta(self._alpha, self._beta)
        return top_k_indices(samples, self._k)

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """The Beta posterior parameters."""
        return {"alpha": self._alpha.copy(), "beta": self._beta.copy()}

    def state_restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Restore the Beta posterior parameters."""
        try:
            alpha = np.asarray(snapshot["alpha"], dtype=float)
            beta = np.asarray(snapshot["beta"], dtype=float)
        except KeyError as error:
            raise ConfigurationError(
                f"thompson snapshot is missing field {error.args[0]!r}"
            ) from error
        if alpha.shape != (self._num_sellers,) or beta.shape != (self._num_sellers,):
            raise ConfigurationError(
                "thompson snapshot shape does not match this run"
            )
        self._alpha = alpha.copy()
        self._beta = beta.copy()


class SlidingWindowUCBPolicy(SelectionPolicy):
    """UCB computed over a trailing window of rounds.

    For the non-stationary variant of the problem (Definition-3 remark):
    old observations are discarded after ``window`` rounds, so the index
    tracks drifting qualities.  Round 0 selects all sellers, like
    :class:`UCBPolicy`.

    Parameters
    ----------
    window:
        Number of most recent rounds whose observations count.
    exploration_coefficient:
        Confidence-radius constant; ``None`` means ``K+1``.
    """

    name = "sw-ucb"

    def __init__(self, window: int,
                 exploration_coefficient: float | None = None) -> None:
        super().__init__()
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if exploration_coefficient is not None and exploration_coefficient <= 0:
            raise ConfigurationError("exploration_coefficient must be positive")
        self._window = int(window)
        self._coefficient_override = exploration_coefficient
        self._recent: collections.deque = collections.deque()
        self._win_counts = np.empty(0)
        self._win_sums = np.empty(0)

    @property
    def window(self) -> int:
        """The window length in rounds."""
        return self._window

    def reset(self, num_sellers: int, k: int, num_rounds: int) -> None:
        super().reset(num_sellers, k, num_rounds)
        self._recent.clear()
        self._win_counts = np.zeros(num_sellers)
        self._win_sums = np.zeros(num_sellers)

    def observe(self, round_index: int, seller_indices: np.ndarray,
                observation_sums: np.ndarray, num_observations: int) -> None:
        sellers = np.asarray(seller_indices, dtype=int).copy()
        sums = np.asarray(observation_sums, dtype=float).copy()
        self._recent.append((sellers, sums, int(num_observations)))
        self._win_counts[sellers] += num_observations
        self._win_sums[sellers] += sums
        while len(self._recent) > self._window:
            old_sellers, old_sums, old_n = self._recent.popleft()
            self._win_counts[old_sellers] -= old_n
            self._win_sums[old_sellers] -= old_sums

    def select(self, round_index: int, state: LearningState,
               rng: np.random.Generator) -> np.ndarray:
        self._require_reset()
        if round_index == 0:
            return np.arange(self._num_sellers)
        coefficient = (
            float(self._coefficient_override)
            if self._coefficient_override is not None
            else float(self._k + 1)
        )
        total = self._win_counts.sum()
        indices = np.full(self._num_sellers, np.inf)
        seen = self._win_counts > 0
        if total > 1:
            means = self._win_sums[seen] / self._win_counts[seen]
            bonus = np.sqrt(coefficient * np.log(total) / self._win_counts[seen])
            indices[seen] = means + bonus
        return top_k_indices(indices, self._k)

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """The window aggregates plus the flattened per-round entries."""
        lengths = np.array([sellers.size for sellers, __, __ in self._recent],
                           dtype=np.int64)
        return {
            "window_counts": self._win_counts.copy(),
            "window_sums": self._win_sums.copy(),
            "entry_lengths": lengths,
            "entry_nobs": np.array(
                [n for __, __, n in self._recent], dtype=np.int64
            ),
            "entry_sellers": (
                np.concatenate([s for s, __, __ in self._recent])
                if self._recent else np.empty(0, dtype=np.int64)
            ),
            "entry_sums": (
                np.concatenate([v for __, v, __ in self._recent])
                if self._recent else np.empty(0)
            ),
        }

    def state_restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Rebuild the window deque and aggregates from a snapshot."""
        try:
            counts = np.asarray(snapshot["window_counts"], dtype=float)
            sums = np.asarray(snapshot["window_sums"], dtype=float)
            lengths = np.asarray(snapshot["entry_lengths"], dtype=np.int64)
            nobs = np.asarray(snapshot["entry_nobs"], dtype=np.int64)
            sellers = np.asarray(snapshot["entry_sellers"], dtype=np.int64)
            entry_sums = np.asarray(snapshot["entry_sums"], dtype=float)
        except KeyError as error:
            raise ConfigurationError(
                f"sw-ucb snapshot is missing field {error.args[0]!r}"
            ) from error
        if counts.shape != (self._num_sellers,) or sums.shape != counts.shape:
            raise ConfigurationError(
                "sw-ucb snapshot shape does not match this run"
            )
        if lengths.sum() != sellers.size or sellers.size != entry_sums.size:
            raise ConfigurationError("sw-ucb snapshot entries are misaligned")
        self._win_counts = counts.copy()
        self._win_sums = sums.copy()
        self._recent.clear()
        offset = 0
        for length, n in zip(lengths, nobs):
            self._recent.append((
                sellers[offset:offset + length].copy(),
                entry_sums[offset:offset + length].copy(),
                int(n),
            ))
            offset += int(length)
