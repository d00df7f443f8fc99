"""The platform's quality-learning state (Eqs. 17-19).

Tracks, for every seller, how many times its quality has been observed
(``n_i^t``) and the running sample mean (``qbar_i^t``), and computes the
extended UCB indices

``qhat_i^t = qbar_i^t + sqrt((K+1) * ln(sum_j n_j^t) / n_i^t)``

that drive the CMAB-HS selection policy.  Each time a seller is selected
it is observed once per PoI, so ``n_i`` advances by ``L`` per selection
(Eq. 17).

The raw state is the int64 counts and float sums (the checkpoint
format).  Three mirrors are maintained beside them so a round costs
``O(K)`` bookkeeping instead of ``O(M)`` reconstruction: a float copy
of the counts, the mean vector, and the running total.  Each mirrored
mean is patched with the same ``sums[i] / counts[i]`` division a
from-scratch rebuild performs, so the values are bit-identical to
recomputing them.

Count classes
-------------
Eq. 19's bonus depends on a seller only through its count ``n_i``, so
inside one *count class* (the sellers that share a count) the UCB order
is the order of the means.  For selection the state keeps a *pool* of
candidates (:meth:`LearningState.count_classes`): every member of a
class with at most ``depth`` members, and the first ``depth`` members by
(-mean, index) of every larger class.  A class with members left out is
*partial*; for each, the pool records a mean that no left-out member
exceeds and an index that every left-out member is at or above.  Those
two numbers bound the Eq.-19 index of everything the pool omits, which
is what lets :meth:`repro.bandits.UCBPolicy.select` prove a top-K over
the pool exact.

A member leaves its class lazily: when an update changes its count, it
joins the pool (if it is not there already), and its old class simply
has one member fewer.  The pool is derived from the counts and means
alone, so :meth:`LearningState.restore` and :meth:`LearningState.reset`
drop it and the next selection rebuilds it; the checkpoint format does
not change.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.logconfig import get_logger

__all__ = ["CountClasses", "LearningState", "observation_mask"]

_log = get_logger(__name__)

#: Mutation-testing hook: the kernels verify leg sets this to a value
#: other than 1.0 (e.g. 1.01, a 1% bonus inflation) and asserts its
#: reference oracle *fails* — proving it would catch a real defect of
#: that size.  At the default 1.0 no multiply is performed.
_MUTATION_SCALE = 1.0


def observation_mask(observation_sums: np.ndarray,
                     num_observations: int) -> np.ndarray:
    """Which per-seller observation sums are physically possible.

    A seller observed at ``L`` PoIs reports a sum of ``L`` per-PoI
    qualities, each in ``[0, 1]``, so any finite value in ``[0, L]`` is
    feasible; NaN, negative, or oversized sums mark a corrupted report.
    The fault-tolerant runners use this mask to quarantine garbage
    *before* it reaches :meth:`LearningState.update` and poisons
    ``qbar_i``.
    """
    sums = np.asarray(observation_sums, dtype=float)
    if num_observations <= 0:
        raise ConfigurationError(
            f"num_observations must be positive, got {num_observations}"
        )
    return np.isfinite(sums) & (sums >= 0.0) & (sums <= float(num_observations))


class CountClasses(NamedTuple):
    """The selection pool and what it leaves out (see the module notes).

    ``pool`` is sorted and unique.  The other three fields are aligned,
    one entry per partial class: its count (as a float, the form Eq. 19
    divides by), a mean no left-out member exceeds, and an index no
    left-out member is below.
    """

    pool: np.ndarray
    counts: np.ndarray
    rest_means: np.ndarray
    rest_first: np.ndarray


class LearningState:
    """Running quality estimates for a population of ``M`` sellers.

    Beside the raw counts and sums it keeps the float counts, the means
    and the total as ``O(K)``-patched mirrors, and the count-class
    selection pool (:meth:`count_classes`), which is built on first use
    and dropped by :meth:`restore` and :meth:`reset`.

    Parameters
    ----------
    num_sellers:
        Population size ``M``.
    prior_mean:
        The estimate reported for never-observed sellers (default 0; it
        never matters for selection because unobserved sellers have an
        infinite UCB index).
    """

    def __init__(self, num_sellers: int, prior_mean: float = 0.0) -> None:
        if num_sellers <= 0:
            raise ConfigurationError(
                f"num_sellers must be positive, got {num_sellers}"
            )
        if not (0.0 <= prior_mean <= 1.0):
            raise ConfigurationError(
                f"prior_mean must be in [0, 1], got {prior_mean}"
            )
        self._num_sellers = int(num_sellers)
        self._prior_mean = float(prior_mean)
        self._counts = np.zeros(num_sellers, dtype=np.int64)
        self._sums = np.zeros(num_sellers, dtype=float)
        self._counts_f = np.zeros(num_sellers)
        self._means = np.full(num_sellers, self._prior_mean)
        self._total = 0
        self._classes: CountClasses | None = None
        self._in_pool: np.ndarray | None = None
        self._refresh_views()

    def _refresh_views(self) -> None:
        """Build the read-only views :attr:`counts` and :attr:`means` return.

        Built once per buffer: an update writes the buffers in place, so
        the views follow it; only a rebuild replaces a buffer.
        """
        self._counts_view = self._counts.view()
        self._counts_view.flags.writeable = False
        self._means_view = self._means.view()
        self._means_view.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # A copied or unpickled view owns its data; re-point the views
        # at the copy's own buffers so they keep following updates.
        self.__dict__.update(state)
        self._refresh_views()

    def _rebuild(self) -> None:
        """Recompute every mirror from the raw counts/sums arrays."""
        self._counts_f = self._counts.astype(float)
        means = np.full(self._num_sellers, self._prior_mean)
        seen = self._counts > 0
        means[seen] = self._sums[seen] / self._counts[seen]
        self._means = means
        self._total = int(self._counts.sum())
        self._classes = None
        self._in_pool = None
        self._refresh_views()

    # -- basic accessors -------------------------------------------------------

    @property
    def num_sellers(self) -> int:
        """Population size ``M``."""
        return self._num_sellers

    @property
    def counts(self) -> np.ndarray:
        """Observation counts ``n_i`` (read-only view)."""
        return self._counts_view

    @property
    def total_count(self) -> int:
        """Total observations ``sum_j n_j`` across all sellers."""
        return self._total

    @property
    def means(self) -> np.ndarray:
        """Sample means ``qbar_i``; ``prior_mean`` where unobserved.

        A read-only view of the maintained buffer: it follows later
        updates, so copy it to keep a snapshot.
        """
        return self._means_view

    def mean_of(self, seller: int) -> float:
        """Sample mean ``qbar_i`` of one seller."""
        return float(self._means[seller])

    # -- updates (Eqs. 17-18) ----------------------------------------------------

    def update(self, seller_indices: np.ndarray, observation_sums: np.ndarray,
               num_observations: int) -> None:
        """Fold one round of observations into the state.

        Parameters
        ----------
        seller_indices:
            The sellers selected this round (each index at most once),
            as integers; float and boolean arrays are rejected rather
            than truncated or read as positions.
        observation_sums:
            Per-seller sums of this round's quality observations (the
            ``sum_l q_{i,l}^t`` term of Eq. 18), aligned with
            ``seller_indices``.
        num_observations:
            Observations per seller this round — the number of PoIs ``L``
            (Eq. 17 increments ``n_i`` by ``L``).
        """
        sellers = np.asarray(seller_indices)
        if sellers.dtype.kind not in "iu":
            if sellers.dtype.kind == "b" or sellers.size:
                raise ConfigurationError(
                    "seller_indices must be integers, got an array of "
                    f"dtype {sellers.dtype}"
                )
            sellers = sellers.astype(np.int64)
        sums = np.asarray(observation_sums, dtype=float)
        if sellers.shape != sums.shape or sellers.ndim != 1:
            raise ConfigurationError(
                "seller_indices and observation_sums must be 1-D and aligned"
            )
        if num_observations <= 0:
            raise ConfigurationError(
                f"num_observations must be positive, got {num_observations}"
            )
        if sellers.size == 0:
            return
        # Every policy returns its selection sorted, and strictly
        # increasing indices are distinct: one pass, no hashing.
        if np.all(sellers[1:] > sellers[:-1]):
            lowest, highest = sellers[0], sellers[-1]
        elif np.unique(sellers).size != sellers.size:
            raise ConfigurationError("a seller cannot be updated twice per round")
        else:
            lowest, highest = sellers.min(), sellers.max()
        if lowest < 0 or highest >= self._num_sellers:
            raise ConfigurationError("seller index out of range")
        invalid = ~observation_mask(sums, num_observations)
        if invalid.any():
            _log.warning(
                "rejecting learning-state update: %d of %d observation "
                "sums are infeasible (sellers %s)",
                int(invalid.sum()), sums.size,
                sellers[invalid].tolist(),
            )
            raise ConfigurationError(
                "observation sums contain NaN or out-of-range values; "
                "quarantine corrupted reports (see observation_mask) before "
                "updating the learning state"
            )
        self._learn(sellers, sums, int(num_observations))

    def _learn(self, sellers: np.ndarray, sums: np.ndarray,
               num_observations: int) -> None:
        """The Eq. 17-18 fold on trusted input: :meth:`update` minus its checks.

        The round core calls this directly.  ``sellers`` must be a
        sorted, unique, in-range integer array (empty is a no-op),
        ``sums`` a float array aligned with it whose entries are
        feasible (in ``[0, L]``, see :func:`observation_mask`), and
        ``num_observations`` a positive int; nothing here checks any of
        it.  Every policy's selection meets the first, and the ``[0, 1]``
        clip of the sampler or the degraded round's quarantine meets the
        second (DESIGN.md, "Validate at the boundary").  Same bits as
        :meth:`update` on the same input.
        """
        self._counts[sellers] += num_observations
        self._sums[sellers] += sums
        self._total += num_observations * sellers.size
        self._counts_f[sellers] = self._counts[sellers]
        self._means[sellers] = self._sums[sellers] / self._counts[sellers]
        if self._in_pool is not None:
            # A seller whose count changed has left its class; if the
            # pool did not hold it, it joins now, so no class ever gains
            # a member outside the pool.
            joined = ~self._in_pool[sellers]
            if joined.any():
                fresh = sellers[joined]
                self._in_pool[fresh] = True
                self._classes = self._classes._replace(
                    pool=np.union1d(self._classes.pool, fresh))

    # -- UCB indices (Eq. 19) -----------------------------------------------------

    def _bonuses(self, coefficient: float, counts: np.ndarray) -> np.ndarray:
        if coefficient <= 0.0:
            raise ConfigurationError(
                f"exploration coefficient must be positive, got {coefficient}"
            )
        if self._total <= 1:
            # ln(total) <= 0: no meaningful confidence radius yet.
            return np.full(counts.shape, np.inf)
        # A positive numerator over a zero count is the +inf bonus of an
        # unseen seller.
        with np.errstate(divide="ignore"):
            bonuses = np.divide(coefficient * np.log(self._total), counts)
        return np.sqrt(bonuses, out=bonuses)

    def _indices(self, coefficient: float, counts: np.ndarray,
                 means: np.ndarray) -> np.ndarray:
        """Eq. 19, elementwise: every UCB index is computed here."""
        scores = self._bonuses(coefficient, counts)
        if _MUTATION_SCALE != 1.0:  # pragma: no cover - mutation hook
            scores *= _MUTATION_SCALE
        scores += means
        return scores

    def exploration_bonuses(self, coefficient: float) -> np.ndarray:
        """The confidence radii ``eps_i = sqrt(c * ln(sum_j n_j) / n_i)``.

        ``coefficient`` is ``K+1`` in the paper (Eq. 19); it is exposed so
        ablation experiments can sweep the confidence width.  Sellers with
        no observations get an infinite bonus, forcing exploration.
        """
        return self._bonuses(coefficient, self._counts_f)

    def ucb_values(self, coefficient: float) -> np.ndarray:
        """UCB indices ``qhat_i = qbar_i + eps_i`` (Eq. 19) of every seller.

        Returned as a fresh writable vector.  Selection never builds it
        (see :meth:`ucb_at`); traced and strict runs do.
        """
        return self._indices(coefficient, self._counts_f, self._means)

    def ucb_at(self, coefficient: float, sellers: np.ndarray) -> np.ndarray:
        """The Eq.-19 indices of ``sellers`` only.

        Element for element the same bits as
        ``ucb_values(coefficient)[sellers]``, in ``O(len(sellers))``.
        """
        return self._indices(coefficient, self._counts_f[sellers],
                             self._means[sellers])

    # -- count classes (selection pool) -------------------------------------------

    def count_classes(self, depth: int) -> CountClasses:
        """The selection pool, built to ``depth`` if none is live.

        A pool survives updates (they patch it) and is dropped by
        :meth:`restore` and :meth:`reset`; ``depth`` only matters for
        the build.
        """
        if self._classes is None:
            self._build_classes(depth)
        return self._classes

    def rebuild_count_classes(self, depth: int) -> CountClasses:
        """Build the pool afresh to ``depth``, whatever it held before."""
        self._build_classes(depth)
        return self._classes

    def class_bounds(self, coefficient: float,
                     classes: CountClasses) -> np.ndarray:
        """Per partial class, an Eq.-19 index no left-out member exceeds.

        Within a class every member has the same bonus, and
        floating-point addition is monotone, so the class bonus plus
        ``rest_means`` bounds every left-out member's index.
        """
        return self._indices(coefficient, classes.counts, classes.rest_means)

    def _build_classes(self, depth: int) -> None:
        """Pool each class's first ``depth`` members by (-mean, index).

        Classes are visited in increasing count, one ``O(M)`` pass each.
        """
        counts, means = self._counts, self._means
        parts = []
        partial_counts, rest_means, rest_first = [], [], []
        count, top = counts.min(), counts.max()
        while True:
            in_class = counts == count
            members = np.flatnonzero(in_class)
            if members.size <= depth:
                parts.append(members)
            else:
                scores = np.where(in_class, means, -np.inf)
                cut = np.partition(scores, scores.size - depth)[
                    scores.size - depth]
                above = np.flatnonzero(scores > cut)
                at_cut = np.flatnonzero(scores == cut)
                taken = depth - above.size
                parts.append(above)
                parts.append(at_cut[:taken])
                partial_counts.append(float(count))
                rest_means.append(cut)
                # Left-out members all at the cut mean come after the
                # taken ones in index order; otherwise claim nothing.
                only_at_cut = above.size + at_cut.size == members.size
                rest_first.append(int(at_cut[taken]) if only_at_cut else 0)
            if count == top:
                break
            count = np.min(counts, where=counts > count, initial=top)
        pool = np.sort(np.concatenate(parts))
        in_pool = np.zeros(self._num_sellers, dtype=bool)
        in_pool[pool] = True
        self._classes = CountClasses(
            pool=pool,
            counts=np.array(partial_counts),
            rest_means=np.array(rest_means, dtype=float),
            rest_first=np.array(rest_first, dtype=np.int64),
        )
        self._in_pool = in_pool

    # -- maintenance ---------------------------------------------------------------

    def snapshot(self) -> dict[str, np.ndarray]:
        """A copy of the raw state, for logging or checkpointing."""
        return {"counts": self._counts.copy(), "sums": self._sums.copy()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Restore a state previously produced by :meth:`snapshot`."""
        counts = np.asarray(snapshot["counts"], dtype=np.int64)
        sums = np.asarray(snapshot["sums"], dtype=float)
        if counts.shape != (self._num_sellers,) or sums.shape != (self._num_sellers,):
            raise ConfigurationError("snapshot shape does not match this state")
        self._counts = counts.copy()
        self._sums = sums.copy()
        self._rebuild()

    def reset(self) -> None:
        """Forget everything learned so far."""
        _log.debug("resetting learning state for %d sellers",
                   self._num_sellers)
        self._counts.fill(0)
        self._sums.fill(0.0)
        self._rebuild()
