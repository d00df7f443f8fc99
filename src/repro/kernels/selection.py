"""The round loop's incremental estimation-error reduction.

:func:`estimation_error` is the per-round accounting kernel of
:mod:`repro.sim.rounds`; its from-scratch reference is
:func:`repro.sim.rounds.estimation_error_scalar`, and the kernel
differential (``tests/test_kernels_equivalence.py``) checks whole runs
of the two bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimation_error"]


def estimation_error(means: np.ndarray, truth: np.ndarray,
                     abs_error: np.ndarray, touched: np.ndarray) -> float:
    """Mean absolute estimation error ``mean |qbar_i - q_i|``.

    ``abs_error`` holds ``|qbar_i - q_i|`` as of the last call; only the
    ``touched`` sellers' means have changed since, so only they are
    recomputed, with the same subtract/abs per element as
    ``np.abs(means - truth)``.  The reduction then runs over the same
    values as ``float(np.abs(means - truth).mean())`` — same bits, at
    ``O(touched)`` plus one ``O(M)`` sum.
    """
    patch = means[touched]
    np.subtract(patch, truth[touched], out=patch)
    np.abs(patch, out=patch)
    abs_error[touched] = patch
    # add.reduce is the same pairwise summation ndarray.mean() runs,
    # minus the reduction-machinery overhead — same bits.
    return float(np.add.reduce(abs_error) / abs_error.size)
