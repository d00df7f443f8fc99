"""Array kernels outside the per-round core.

* :mod:`repro.kernels.selection` — the round loop's buffered
  estimation-error reduction, bit-identical to its allocating form.

It is checked by ``repro verify --only kernels`` and
``tests/test_kernels_equivalence.py``.  The learning state and top-K
live in :mod:`repro.core`.
"""
