"""RL101 fixture: RNG construction and draws outside repro.sim.rng (11 findings)."""

import functools
import random

import numpy as np
from numpy.random import default_rng


def make_generators():
    direct = np.random.default_rng(7)
    from_import = default_rng(7)
    sequence = np.random.SeedSequence(7)
    stdlib_draw = random.random()
    stdlib_rng = random.Random(7)
    return direct, from_import, sequence, stdlib_draw, stdlib_rng


def shared_default(rng=np.random.default_rng()):  # one stream for every call
    return rng


class Sampler:
    stream = random.Random()  # class body runs at import


@functools.lru_cache(maxsize=random.randint(1, 8))
def cached():
    return 0


def make_local_class():
    class Local:
        stream = np.random.default_rng()

    return Local


class Box:
    @property
    def value(self):  # the setter below rebinds the name; this still runs
        return random.random()

    @value.setter
    def value(self, new):
        self._value = new


def annotated(count: random.randint(1, 8) = 1):  # annotations run too
    return count
