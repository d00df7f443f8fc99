"""Suppression fixture: one RL101 violation silenced, one left standing.

The first construction carries a matching line pragma; the second's
pragma names a different rule, so it still fires (exactly 1 error
finding).  The file-wide ``disable-file=RL006`` and the RL002 line
pragma match nothing, so the pragma audit reports both as RL007
warnings.
"""
# repro-lint: disable-file=RL006

import numpy as np


def make(seed):
    silenced = np.random.default_rng(seed)  # repro-lint: disable=RL101
    still_flagged = np.random.default_rng(seed)  # repro-lint: disable=RL002
    return silenced, still_flagged
