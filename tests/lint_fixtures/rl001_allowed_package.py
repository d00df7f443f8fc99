# repro-lint: package=repro.sim.rng
"""RL101 fixture: inside repro.sim.rng only the sanctioned helpers may
construct streams (1 finding, in ``make``)."""

import numpy as np


def seeded_generator(seed):
    return np.random.default_rng(seed)


def make(seed):
    return np.random.default_rng(seed)
