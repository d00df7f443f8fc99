"""Combinatorial multi-armed bandit substrate.

Selection policies: the paper's CMAB-HS UCB (the one Eq.-19 top-K
selection site, :meth:`UCBPolicy.select`), its three comparison
baselines and the extension policies of the ablation experiments.
Every policy is played by the one round loop in :mod:`repro.sim.rounds`.
"""

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import (
    EpsilonFirstPolicy,
    EpsilonGreedyPolicy,
    OptimalPolicy,
    RandomPolicy,
    SlidingWindowUCBPolicy,
    ThompsonSamplingPolicy,
    UCBPolicy,
)

__all__ = [
    "SelectionPolicy",
    "UCBPolicy",
    "OptimalPolicy",
    "EpsilonFirstPolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "ThompsonSamplingPolicy",
    "SlidingWindowUCBPolicy",
]
