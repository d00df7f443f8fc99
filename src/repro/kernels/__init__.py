"""Array kernels outside the per-round core.

* :mod:`repro.kernels.selection` — the round loop's incremental
  estimation-error reduction, bit-identical to its from-scratch form.

It is checked by ``tests/test_kernels_equivalence.py``.  The learning state and top-K
live in :mod:`repro.core`.
"""
