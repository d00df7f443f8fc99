"""RL101 fixture: helpers that *could* launder an RNG constructor.

Clean as committed: ``invoke`` is a generic factory applicator and no
call site hands it a raw RNG constructor.  The meta-test mutates
``make_stream`` to alias ``np.random.default_rng`` through a local —
a call not spelled through an import, which RL101 must still trace.
"""
# repro-lint: package=repro.quality.launder
import numpy as np


def invoke(factory, seed):
    """Apply any zero-state factory to ``seed``."""
    return factory(seed)


def make_stream(seed):
    """Derive a deterministic stream tag (no RNG is constructed)."""
    return invoke(str, seed)


def spread(seed):
    """A plain numpy call that must not read as an RNG birth."""
    return np.asarray([seed, seed + 1])
