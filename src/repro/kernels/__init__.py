"""Array kernels outside the per-round core.

* :mod:`repro.kernels.batch` — the Theorems 14-16 ``A``/``B`` sums as
  masked reductions over an ``(markets, M)`` state matrix, the batched
  Stage 1-3 closed forms, and a batched Stage-3 golden-section search
  reusing :func:`repro.game.stackelberg.solve_stage3_batch`'s idiom.
  They agree with per-market compacted scalar solves to ``<= 1e-9``
  relative tolerance (the masked reductions legitimately sum in a
  different order).  No production caller uses them yet.
* :mod:`repro.kernels.selection` — the round loop's buffered
  estimation-error reduction, bit-identical to its allocating form.

Both are checked by ``repro verify --only kernels`` and
``tests/test_kernels_equivalence.py``.  The learning state and top-K
live in :mod:`repro.core`.
"""

from repro.kernels.batch import (
    masked_stage_sums,
    solve_rounds_batch,
    stage3_golden_batch,
)

__all__ = [
    "masked_stage_sums",
    "solve_rounds_batch",
    "stage3_golden_batch",
]
