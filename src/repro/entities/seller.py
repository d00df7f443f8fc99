"""Data sellers and seller populations.

A seller (Definition 3) is a mobile user with a sensing device whose
expected quality ``q_i`` is unknown to the platform.  The seller behaves
strategically only through its sensing time: given the platform's unit
data-collection price it plays the Stage-3 best response of the
hierarchical Stackelberg game (Theorem 14).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.selection import top_k_indices
from repro.entities.costs import QuadraticSellerCost
from repro.exceptions import ConfigurationError

__all__ = ["Seller", "SellerPopulation"]


@dataclass(frozen=True)
class Seller:
    """One data seller.

    Attributes
    ----------
    seller_id:
        Stable identifier (index into the population, or a taxi id when
        derived from a trace).
    expected_quality:
        The *ground-truth* expected sensing quality ``q_i in (0, 1]``.
        Hidden from the platform; used only by the environment and by the
        ``optimal`` baseline.
    cost:
        The seller's quadratic cost function (Eq. 6).
    """

    seller_id: int
    expected_quality: float
    cost: QuadraticSellerCost

    def __post_init__(self) -> None:
        if not (math.isfinite(self.expected_quality)
                and 0.0 < self.expected_quality <= 1.0):
            raise ConfigurationError(
                f"expected_quality must be in (0, 1], got {self.expected_quality}"
            )

    def profit(self, price: float, sensing_time: float,
               estimated_quality: float) -> float:
        """Seller profit ``Psi_i = p*tau_i - C_i(tau_i, qbar_i)`` (Eq. 5).

        ``estimated_quality`` is the platform's current estimate
        ``qbar_i^t``; the paper evaluates the cost at the *estimated*
        quality because it is the value all parties contract on.
        """
        return float(price) * float(sensing_time) - self.cost(
            sensing_time, estimated_quality
        )

    def best_response(self, price: float, estimated_quality: float) -> float:
        """Stage-3 optimal sensing time ``tau_i*`` (Theorem 14, Eq. 20)."""
        return self.cost.optimal_sensing_time(price, estimated_quality)


class SellerPopulation:
    """An ordered collection of sellers stored as parameter arrays.

    The simulation engine works on NumPy arrays, so those are the only
    storage: ids, expected qualities and the two cost coefficients.
    Indexing or iterating builds equal :class:`Seller` objects on demand
    (nice for examples and tests).

    Parameters
    ----------
    sellers:
        The sellers, in index order (``sellers[i].seller_id`` need not be
        ``i``; selection operates on positions).
    """

    def __init__(self, sellers: list[Seller]) -> None:
        if not sellers:
            raise ConfigurationError("a seller population cannot be empty")
        self._ids = np.array([s.seller_id for s in sellers], dtype=np.int64)
        self._qualities = np.array(
            [s.expected_quality for s in sellers], dtype=float
        )
        self._a = np.array([s.cost.a for s in sellers], dtype=float)
        self._b = np.array([s.cost.b for s in sellers], dtype=float)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._qualities.size

    def __getitem__(self, index: int) -> Seller:
        return Seller(
            seller_id=int(self._ids[index]),
            expected_quality=float(self._qualities[index]),
            cost=QuadraticSellerCost(a=float(self._a[index]),
                                     b=float(self._b[index])),
        )

    def __iter__(self) -> Iterator[Seller]:
        return (self[i] for i in range(len(self)))

    # -- vectorised views ---------------------------------------------------

    @property
    def expected_qualities(self) -> np.ndarray:
        """Ground-truth expected qualities ``q_i`` (read-only view)."""
        view = self._qualities.view()
        view.flags.writeable = False
        return view

    @property
    def cost_a(self) -> np.ndarray:
        """Quadratic cost coefficients ``a_i`` (read-only view)."""
        view = self._a.view()
        view.flags.writeable = False
        return view

    @property
    def cost_b(self) -> np.ndarray:
        """Linear cost coefficients ``b_i`` (read-only view)."""
        view = self._b.view()
        view.flags.writeable = False
        return view

    def top_k_by_quality(self, k: int) -> np.ndarray:
        """Indices of the ``k`` sellers with the highest expected quality.

        This is the omniscient selection the ``optimal`` baseline uses and
        the reference set ``S*`` in the regret definition (Eq. 34).  Ties
        are broken by ascending index, matching ``numpy.argsort`` stability.
        """
        if not (1 <= k <= len(self)):
            raise ConfigurationError(
                f"k must be in [1, {len(self)}], got {k}"
            )
        return top_k_indices(self._qualities, k)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def random(cls, num_sellers: int, rng: np.random.Generator,
               a_range: tuple[float, float] = (0.1, 0.5),
               b_range: tuple[float, float] = (0.1, 1.0),
               quality_range: tuple[float, float] = (0.0, 1.0)) -> "SellerPopulation":
        """Sample a population with the paper's parameter ranges.

        Expected qualities are uniform on ``quality_range`` (paper:
        ``[0, 1]``) but floored at a small positive value because the
        closed-form best responses divide by ``qbar_i`` — a literally
        zero-quality seller has no interior optimum.

        Parameters
        ----------
        num_sellers:
            Population size ``M``.
        rng:
            Randomness source.
        a_range, b_range:
            Uniform sampling ranges for the cost coefficients; defaults are
            the paper's ``[0.1, 0.5]`` and ``[0.1, 1]``.
        quality_range:
            Uniform sampling range for expected qualities.
        """
        if num_sellers <= 0:
            raise ConfigurationError(
                f"num_sellers must be positive, got {num_sellers}"
            )
        lo, hi = quality_range
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigurationError(
                f"quality_range must satisfy 0 <= lo < hi <= 1, got {quality_range}"
            )
        min_quality = 1e-3
        qualities = rng.uniform(max(lo, min_quality), hi, size=num_sellers)
        a_values = rng.uniform(*a_range, size=num_sellers)
        b_values = rng.uniform(*b_range, size=num_sellers)
        return cls.from_arrays(qualities, a_values, b_values)

    @classmethod
    def from_arrays(cls, qualities: np.ndarray, a: np.ndarray,
                    b: np.ndarray) -> "SellerPopulation":
        """Build a population from parallel parameter arrays.

        Seller ids are the positions.  Every entry is validated under
        the same conditions :class:`Seller` and
        :class:`~repro.entities.costs.QuadraticSellerCost` enforce.
        """
        qualities = np.array(qualities, dtype=float)
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        if not (qualities.shape == a.shape == b.shape) or qualities.ndim != 1:
            raise ConfigurationError(
                "qualities, a, b must be 1-D arrays of equal length"
            )
        if qualities.size == 0:
            raise ConfigurationError("a seller population cannot be empty")
        _require_all(a > 0.0, a, "seller cost parameter a must be > 0")
        _require_all(b >= 0.0, b, "seller cost parameter b must be >= 0")
        _require_all((qualities > 0.0) & (qualities <= 1.0), qualities,
                     "expected_quality must be in (0, 1]")
        population = cls.__new__(cls)
        population._ids = np.arange(qualities.size, dtype=np.int64)
        population._qualities = qualities
        population._a = a
        population._b = b
        return population


def _require_all(valid: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise on the first entry that is invalid or not finite."""
    bad = np.flatnonzero(~(valid & np.isfinite(values)))
    if bad.size:
        raise ConfigurationError(f"{message}, got {values[bad[0]]}")
