"""The top-``K`` rule of UCB-greedy seller selection (Algorithm 1, steps 7-10).

Each round the platform sorts the sellers by their UCB indices and picks
the top ``K``.  :meth:`repro.bandits.UCBPolicy.select` applies the rule
to the Eq.-19 indices; the baseline policies apply it to their own
scores.  :func:`top_k_indices` checks its input; the policies call its
unchecked body :func:`_top_k` on arrays they own.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SelectionError

__all__ = ["top_k_indices"]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest scores, in ascending index order.

    Ties are broken by ascending index (stable), which matches sorting
    sellers "in a non-increasing order of their UCB values" and taking a
    prefix.  Infinite scores (never-observed sellers) rank first, so
    forced exploration happens automatically.

    Runs in ``O(M)``: a value partition finds the k-th largest score,
    and the result is every index strictly above it plus the *lowest*
    indices tied with it — exactly the prefix of a stable descending
    argsort.  Inputs containing NaN, where the partition order is
    undefined, fall back to that argsort.

    Raises
    ------
    SelectionError
        If ``k`` is not in ``[1, len(scores)]``.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise SelectionError("scores must be a 1-D array")
    if not (1 <= k <= scores.size):
        raise SelectionError(
            f"cannot select k={k} sellers from {scores.size} candidates"
        )
    return _top_k(scores, k)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """:func:`top_k_indices` on trusted input, without its checks.

    ``scores`` must be a 1-D float array and ``k`` in
    ``[1, len(scores)]``; the selection policies call this on arrays
    they own, which are both by construction (DESIGN.md, "Validate at
    the boundary").  Same result as :func:`top_k_indices`.
    """
    if k == scores.size:
        return np.arange(scores.size)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    # One O(M) scan for everything at or above the threshold; the
    # strict/tied split then runs on the (usually ~k-sized) candidates.
    candidates = np.flatnonzero(scores >= kth)
    candidate_scores = scores[candidates]
    winners = candidates[candidate_scores > kth]
    if winners.size < k:
        ties = candidates[candidate_scores == kth][:k - winners.size]
        winners = np.concatenate((winners, ties))
        winners.sort()
    if winners.size != k:  # NaN present: partition ordering is undefined
        order = np.argsort(-scores, kind="stable")
        return np.sort(order[:k])
    return winners

