"""Simulation configuration with the paper's Table II defaults.

One :class:`SimulationConfig` captures every knob of a trading
simulation: problem sizes (``M``, ``K``, ``L``, ``N``), participant
parameters (``a``, ``b``, ``theta``, ``lambda``, ``omega``), quality
model, price bounds, and seeding.  :data:`TABLE_II` records the exact
sweep values the paper reports so every experiment can cite them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError

__all__ = ["SimulationConfig", "TABLE_II"]

#: The paper's Table II — parameter sweeps used in Section V.  Bold values
#: in the paper (the defaults) come first in each mapping entry's
#: ``default`` field.
TABLE_II: dict[str, dict] = {
    "num_rounds": {
        "values": [5_000, 40_000, 80_000, 100_000, 120_000, 160_000, 200_000],
        "default": 100_000,
    },
    "num_sellers": {
        "values": [50, 100, 150, 200, 250, 300],
        "default": 300,
    },
    "num_selected": {
        "values": [10, 20, 30, 40, 50, 60],
        "default": 10,
    },
    "omega": {
        "values": [600, 800, 1_000, 1_200, 1_400],
        "default": 1_000,
    },
    "theta": {"range": (0.1, 1.0), "default": 0.1},
    "lam": {"range": (0.5, 2.0), "default": 1.0},
    "a": {"range": (0.1, 0.5)},
    "b": {"range": (0.1, 1.0)},
    "num_pois": {"default": 10},
}


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one trading simulation.

    Defaults are the paper's (Table II): ``M=300``, ``K=10``, ``L=10``,
    ``N=10^5``, ``theta=0.1``, ``lambda=1``, ``omega=1000``, qualities
    uniform on (0, 1] observed through a truncated Gaussian.

    Attributes
    ----------
    num_sellers:
        Population size ``M``.
    num_selected:
        Sellers selected per round ``K``.
    num_pois:
        PoIs per round ``L``.
    num_rounds:
        Trading rounds ``N``.
    theta, lam:
        Platform aggregation-cost parameters.
    omega:
        Consumer valuation parameter.
    a_range, b_range:
        Sampling ranges of the sellers' cost coefficients.
    quality_sigma:
        Noise level of the truncated-Gaussian observation model.
    service_price_bounds, collection_price_bounds:
        Feasible price intervals ``[p^J_min, p^J_max]`` / ``[p_min, p_max]``.
        The collection upper bound doubles as the initial-round price
        ``p_max`` (Algorithm 1, step 4).
    initial_sensing_time:
        The fixed ``tau^0`` of exploration rounds.
    max_sensing_time:
        The round duration ``T``; infinite by default (the paper's sweeps
        never bind it).
    seed:
        Master seed; the population and every run's observation noise are
        derived from it deterministically.
    """

    num_sellers: int = 300
    num_selected: int = 10
    num_pois: int = 10
    num_rounds: int = 100_000
    theta: float = 0.1
    lam: float = 1.0
    omega: float = 1_000.0
    a_range: tuple[float, float] = (0.1, 0.5)
    b_range: tuple[float, float] = (0.1, 1.0)
    quality_sigma: float = 0.1
    service_price_bounds: tuple[float, float] = (0.0, 1_000.0)
    collection_price_bounds: tuple[float, float] = (0.0, 5.0)
    initial_sensing_time: float = 1.0
    max_sensing_time: float = float("inf")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sellers <= 0:
            raise ConfigurationError(
                f"num_sellers must be positive, got {self.num_sellers}"
            )
        if not (1 <= self.num_selected <= self.num_sellers):
            raise ConfigurationError(
                f"num_selected must be in [1, {self.num_sellers}], "
                f"got {self.num_selected}"
            )
        if self.num_pois <= 0:
            raise ConfigurationError(
                f"num_pois must be positive, got {self.num_pois}"
            )
        if self.num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {self.num_rounds}"
            )
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ConfigurationError(f"theta must be > 0, got {self.theta}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigurationError(f"lambda must be >= 0, got {self.lam}")
        if not (math.isfinite(self.omega) and self.omega > 1.0):
            raise ConfigurationError(f"omega must be > 1, got {self.omega}")
        for name, bounds in (("a_range", self.a_range),
                             ("b_range", self.b_range)):
            lo, hi = bounds
            if not (0.0 <= lo <= hi):
                raise ConfigurationError(
                    f"{name} must satisfy 0 <= lo <= hi, got {bounds}"
                )
        if self.a_range[0] <= 0.0:
            raise ConfigurationError(
                f"a_range lower bound must be > 0, got {self.a_range[0]}"
            )
        if self.quality_sigma <= 0.0:
            raise ConfigurationError(
                f"quality_sigma must be > 0, got {self.quality_sigma}"
            )
        for name, bounds in (
            ("service_price_bounds", self.service_price_bounds),
            ("collection_price_bounds", self.collection_price_bounds),
        ):
            lo, hi = bounds
            if not (0.0 <= lo < hi):
                raise ConfigurationError(
                    f"{name} must satisfy 0 <= lo < hi, got {bounds}"
                )
        if not (0.0 < self.initial_sensing_time <= self.max_sensing_time):
            raise ConfigurationError(
                "initial_sensing_time must be in (0, max_sensing_time]"
            )

    def derive(self, **overrides: object) -> "SimulationConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)
