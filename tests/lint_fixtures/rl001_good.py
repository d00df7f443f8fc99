"""RL101 fixture: the sanctioned way to obtain RNG streams (clean)."""

from repro.sim.rng import RngFactory, seed_sequence, seeded_generator


def make_generators(seed):
    factory = RngFactory(seed)
    generator = seeded_generator(seed)
    sequence = seed_sequence([seed, 0x51])
    return factory, generator, sequence
