"""The round loop's buffered estimation-error reduction.

:func:`estimation_error` is the per-round accounting kernel of
:mod:`repro.sim.rounds`; its naive reference is
:func:`repro.sim.rounds.estimation_error_scalar`, and
``repro verify --only kernels`` checks the two bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimation_error"]


# repro-lint: mutates=work
def estimation_error(means: np.ndarray, truth: np.ndarray,
                     work: np.ndarray) -> float:
    """Mean absolute estimation error ``mean |qbar_i - q_i|``.

    Bit-identical to ``float(np.abs(means - truth).mean())`` — the same
    subtract/abs/mean sequence, with the two ``O(M)`` temporaries
    replaced by the caller-owned ``work`` buffer.
    """
    np.subtract(means, truth, out=work)
    np.abs(work, out=work)
    # add.reduce is the same pairwise summation ndarray.mean() runs,
    # minus the reduction-machinery overhead — same bits.
    return float(np.add.reduce(work) / work.size)
