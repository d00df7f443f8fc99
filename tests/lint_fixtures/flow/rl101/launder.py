"""RL101 fixture: helpers that *could* launder an RNG constructor.

Clean as committed: ``invoke`` is a generic factory applicator and no
call site hands it a raw RNG constructor.  The meta-tests mutate
``make_stream`` to alias ``np.random.default_rng`` through a local, to
pass it to ``invoke``, to take it as a default, or to return it —
each a non-call reference RL101 flags where it stands.
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
