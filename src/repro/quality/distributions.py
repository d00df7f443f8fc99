"""Sensing-quality observation models.

The paper (Definition 3) models each seller ``i`` as having a fixed but
*unknown* expected sensing quality ``q_i in [0, 1]``.  When a selected
seller collects data at a PoI, the platform observes a noisy per-PoI
quality ``q_{i,l}^t in [0, 1]`` drawn from an unknown distribution whose
mean is ``q_i``.  The evaluation section states: *"we randomly generate
the expected quality from [0, 1] and then adopt truncated Gaussian
distribution to generate sellers' observed qualities."*

This module provides that truncated-Gaussian model plus several
alternatives (Bernoulli, Beta, Uniform, and a deterministic model for
tests), all behind a single :class:`QualityModel` interface.  Every model
guarantees observations in ``[0, 1]`` so the Chernoff-Hoeffding analysis
behind the regret bound (Lemma 17) applies.

Observations are drawn in bulk with NumPy so that simulating ``10^5``
rounds stays fast.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.quality.drift import SinusoidalDrift

__all__ = [
    "QualityModel",
    "TruncatedGaussianQuality",
    "BernoulliQuality",
    "BetaQuality",
    "UniformQuality",
    "DeterministicQuality",
    "DriftingQuality",
    "PoiHeterogeneousQuality",
    "make_quality_model",
]


def _validate_means(means: np.ndarray) -> np.ndarray:
    means = np.asarray(means, dtype=float)
    if means.ndim != 1:
        raise ConfigurationError(
            f"expected a 1-D array of expected qualities, got shape {means.shape}"
        )
    if means.size == 0:
        raise ConfigurationError("expected qualities must be non-empty")
    if np.any(~np.isfinite(means)):
        raise ConfigurationError("expected qualities must be finite")
    if np.any(means < 0.0) or np.any(means > 1.0):
        raise ConfigurationError(
            "expected qualities must lie in [0, 1]; "
            f"got min={means.min():.4f}, max={means.max():.4f}"
        )
    return means


class QualityModel(abc.ABC):
    """Generates per-PoI quality observations for a population of sellers.

    Parameters
    ----------
    means:
        Array of shape ``(M,)`` with each seller's expected quality
        ``q_i in [0, 1]``.

    Notes
    -----
    Subclasses implement :meth:`_draw` which returns raw observations; the
    public :meth:`observe` clips to ``[0, 1]`` defensively and exposes a
    uniform API.  The *effective mean* of the observation distribution may
    differ slightly from ``q_i`` for truncated models; use
    :meth:`effective_means` when an exact ground truth is required (for
    example when computing pseudo-regret).
    """

    def __init__(self, means: np.ndarray) -> None:
        self._means = _validate_means(means)

    @property
    def num_sellers(self) -> int:
        """Number of sellers covered by this model."""
        return int(self._means.size)

    @property
    def means(self) -> np.ndarray:
        """The configured expected qualities ``q_i`` (read-only view)."""
        view = self._means.view()
        view.flags.writeable = False
        return view

    def effective_means(self, num_samples: int = 200_000,
                        seed: int = 0) -> np.ndarray:
        """Monte-Carlo estimate of the true observation means.

        For models whose draws are exactly mean-``q_i`` (Bernoulli, Beta,
        Uniform, Deterministic) subclasses override this with the exact
        value.  The default estimates by sampling, which is adequate for
        regret accounting in experiments.
        """
        # Imported at call time: repro.sim (transitively) imports this
        # module, so a top-level import would be circular.
        from repro.sim.rng import seeded_generator

        rng = seeded_generator(seed)
        sellers = np.arange(self.num_sellers)
        draws = self.observe(rng, np.repeat(sellers, num_samples // 100),
                             num_pois=100)
        return draws.reshape(self.num_sellers, -1).mean(axis=1)

    def observe(self, rng: np.random.Generator, seller_indices: np.ndarray,
                num_pois: int) -> np.ndarray:
        """Draw quality observations for the given sellers.

        Parameters
        ----------
        rng:
            NumPy random generator supplying the randomness.
        seller_indices:
            Integer array of shape ``(S,)`` naming the sellers observed.
        num_pois:
            Number of PoIs ``L``; each seller yields ``L`` observations.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(S, L)`` with observations in ``[0, 1]``.
        """
        seller_indices = np.asarray(seller_indices, dtype=int)
        if seller_indices.ndim != 1:
            raise ConfigurationError("seller_indices must be 1-D")
        if num_pois <= 0:
            raise ConfigurationError(f"num_pois must be positive, got {num_pois}")
        if seller_indices.size and (
            seller_indices.min() < 0 or seller_indices.max() >= self.num_sellers
        ):
            raise ConfigurationError(
                "seller index out of range for this quality model"
            )
        return self._observe(rng, seller_indices, num_pois)

    def _observe(self, rng: np.random.Generator, seller_indices: np.ndarray,
                 num_pois: int) -> np.ndarray:
        """:meth:`observe` on trusted input, without its checks.

        ``seller_indices`` must be a 1-D in-range integer array and
        ``num_pois`` positive; the round core's selections are both by
        construction (DESIGN.md, "Validate at the boundary").  Draws the
        same numbers in the same order as :meth:`observe`.
        """
        return np.clip(self._draw(rng, seller_indices, num_pois), 0.0, 1.0)

    @abc.abstractmethod
    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        """Return raw observations of shape ``(S, L)``."""


class TruncatedGaussianQuality(QualityModel):
    """Truncated Gaussian observations — the paper's default model.

    Observations are ``N(q_i, sigma^2)`` truncated (by rejection-free
    clipping) to ``[0, 1]``.  The paper does not state ``sigma``; we default
    to ``0.1``, small enough that clipping bias is negligible for interior
    means, and expose it as a parameter.
    """

    def __init__(self, means: np.ndarray, sigma: float = 0.1) -> None:
        super().__init__(means)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self._sigma = float(sigma)

    @property
    def sigma(self) -> float:
        """Standard deviation of the pre-truncation Gaussian."""
        return self._sigma

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        mu = self._means[seller_indices][:, None]
        noise = rng.normal(0.0, self._sigma, size=(seller_indices.size, num_pois))
        return mu + noise


class BernoulliQuality(QualityModel):
    """Bernoulli observations: quality is 1 w.p. ``q_i`` else 0.

    Exactly mean-``q_i``, maximal variance for a ``[0, 1]``-supported
    distribution — useful to stress-test the learning policies.
    """

    def effective_means(self, num_samples: int = 0, seed: int = 0) -> np.ndarray:
        return self._means.copy()

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        p = self._means[seller_indices][:, None]
        return (rng.random((seller_indices.size, num_pois)) < p).astype(float)


class BetaQuality(QualityModel):
    """Beta-distributed observations with mean ``q_i``.

    Parameterised by a concentration ``kappa > 0``:
    ``alpha = q_i * kappa``, ``beta = (1 - q_i) * kappa``.  Means of 0 or 1
    degenerate to point masses.
    """

    def __init__(self, means: np.ndarray, concentration: float = 20.0) -> None:
        super().__init__(means)
        if not (math.isfinite(concentration) and concentration > 0.0):
            raise ConfigurationError(
                f"concentration must be positive, got {concentration}"
            )
        self._kappa = float(concentration)

    @property
    def concentration(self) -> float:
        """The Beta concentration parameter ``alpha + beta``."""
        return self._kappa

    def effective_means(self, num_samples: int = 0, seed: int = 0) -> np.ndarray:
        return self._means.copy()

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        mu = self._means[seller_indices][:, None]
        mu = np.broadcast_to(mu, (seller_indices.size, num_pois))
        out = np.empty_like(mu)
        interior = (mu > 0.0) & (mu < 1.0)
        alpha = np.where(interior, mu * self._kappa, 1.0)
        beta = np.where(interior, (1.0 - mu) * self._kappa, 1.0)
        out = np.where(interior, rng.beta(alpha, beta), mu)
        return out


class UniformQuality(QualityModel):
    """Uniform observations on ``[q_i - width/2, q_i + width/2]`` clipped.

    Clipping skews the mean near the boundaries; use interior means when an
    unbiased model is needed.
    """

    def __init__(self, means: np.ndarray, width: float = 0.2) -> None:
        super().__init__(means)
        if not (math.isfinite(width) and width > 0.0):
            raise ConfigurationError(f"width must be positive, got {width}")
        self._width = float(width)

    @property
    def width(self) -> float:
        """Support width of the pre-clipping uniform distribution."""
        return self._width

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        mu = self._means[seller_indices][:, None]
        half = self._width / 2.0
        offsets = rng.uniform(
            -half, half, size=(seller_indices.size, num_pois)
        )
        return mu + offsets


class DeterministicQuality(QualityModel):
    """Noise-free observations: every draw equals ``q_i`` exactly.

    Useful in tests where learning should converge after a single
    observation, and in analytic experiments (Figs. 13-18) where the game
    is evaluated at known qualities.
    """

    def effective_means(self, num_samples: int = 0, seed: int = 0) -> np.ndarray:
        return self._means.copy()

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        mu = self._means[seller_indices][:, None]
        return np.broadcast_to(mu, (seller_indices.size, num_pois)).copy()


class DriftingQuality(QualityModel):
    """Non-stationary qualities: means drift sinusoidally over rounds.

    Implements the Definition-3 *remark* that exogenous factors (personal
    willingness, sensing context, daily routine) perturb the observed
    quality.  Each seller's instantaneous mean is::

        q_i(t) = clip(q_i + amplitude * sin(2*pi*t/period + phi_i), 0, 1)

    with a per-seller random phase ``phi_i``.  The waveform and phase
    seeding live in the shared
    :class:`~repro.quality.drift.SinusoidalDrift` helper — the same
    primitive the event runtime's arrival process modulates churn with.
    The current round must be advanced by the caller via
    :meth:`set_round`.  Used by the sliding-window-UCB extension
    experiments.
    """

    def __init__(self, means: np.ndarray, amplitude: float = 0.2,
                 period: float = 2_000.0, phase_seed: int = 7,
                 sigma: float = 0.1) -> None:
        super().__init__(means)
        if not (0.0 <= amplitude <= 0.5):
            raise ConfigurationError(
                f"amplitude must be in [0, 0.5], got {amplitude}"
            )
        if period <= 0.0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if sigma <= 0.0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self._drift = SinusoidalDrift(float(amplitude), float(period))
        self._phase_seed = int(phase_seed)
        self._sigma = float(sigma)
        self._phases = self._drift.seeded_phases(phase_seed,
                                                 self.num_sellers)
        self._round = 0

    @classmethod
    def from_drift(cls, means: np.ndarray, drift: SinusoidalDrift,
                   phase_seed: int = 7,
                   sigma: float = 0.1) -> "DriftingQuality":
        """Build from a shared :class:`~repro.quality.drift.SinusoidalDrift`.

        The preferred spelling for callers that already hold a drift
        envelope (the ``ext-drift`` experiment, runtime churn configs):
        one object carries the waveform to every site that uses it.
        """
        return cls(means, amplitude=drift.amplitude, period=drift.period,
                   phase_seed=phase_seed, sigma=sigma)

    @property
    def amplitude(self) -> float:
        """Drift amplitude applied to every seller's mean."""
        return self._drift.amplitude

    @property
    def period(self) -> float:
        """Drift period measured in rounds."""
        return self._drift.period

    def set_round(self, t: int) -> None:
        """Advance the model to round ``t`` (0-based)."""
        if t < 0:
            raise ConfigurationError(f"round index must be >= 0, got {t}")
        self._round = int(t)

    def means_at(self, t: int) -> np.ndarray:
        """Instantaneous means at round ``t`` (clipped to ``[0, 1]``)."""
        return self._drift.drifted_means(self._means, t, self._phases)

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        mu = self.means_at(self._round)[seller_indices][:, None]
        noise = rng.normal(0.0, self._sigma, size=(seller_indices.size, num_pois))
        return mu + noise


class PoiHeterogeneousQuality(QualityModel):
    """Per-PoI quality offsets — the Definition-3 remark, literally.

    The paper: *"for task l' != l, q_{i,l'} may not be equal to
    q_{i,l}"* — the device fixes the expected quality ``q_i``, but the
    place (distance, angle) shifts each observation.  This model gives
    every (seller, PoI) pair a fixed offset drawn once from
    ``N(0, poi_sigma^2)`` and adds per-observation Gaussian noise on
    top.  The per-seller mean across PoIs stays ``~q_i``, so CMAB-HS's
    per-seller learning remains well-posed; the ablation benches check
    its performance is robust to this heterogeneity.

    Parameters
    ----------
    means:
        Expected qualities ``q_i``.
    num_pois:
        Number of PoIs ``L`` the offsets are materialised for;
        :meth:`observe` must be called with the same ``num_pois``.
    poi_sigma:
        Standard deviation of the per-(seller, PoI) offsets.
    sigma:
        Per-observation noise level.
    offset_seed:
        Seed fixing the offset matrix.
    """

    def __init__(self, means: np.ndarray, num_pois: int,
                 poi_sigma: float = 0.1, sigma: float = 0.05,
                 offset_seed: int = 0) -> None:
        super().__init__(means)
        if num_pois <= 0:
            raise ConfigurationError(
                f"num_pois must be positive, got {num_pois}"
            )
        if poi_sigma < 0.0 or sigma <= 0.0:
            raise ConfigurationError(
                "poi_sigma must be >= 0 and sigma > 0"
            )
        self._num_pois = int(num_pois)
        self._sigma = float(sigma)
        # Call-time import: a top-level one would cycle via repro.sim.
        from repro.sim.rng import seeded_generator

        offset_rng = seeded_generator(offset_seed)
        raw = offset_rng.normal(0.0, poi_sigma,
                                size=(self.num_sellers, self._num_pois))
        # Centre each seller's offsets so the per-seller mean stays q_i.
        self._offsets = raw - raw.mean(axis=1, keepdims=True)

    @property
    def poi_offsets(self) -> np.ndarray:
        """The fixed per-(seller, PoI) offsets (read-only view)."""
        view = self._offsets.view()
        view.flags.writeable = False
        return view

    def poi_means(self, seller: int) -> np.ndarray:
        """The seller's per-PoI expected qualities (clipped to [0, 1])."""
        return np.clip(self._means[seller] + self._offsets[seller],
                       0.0, 1.0)

    def _draw(self, rng: np.random.Generator, seller_indices: np.ndarray,
              num_pois: int) -> np.ndarray:
        if num_pois != self._num_pois:
            raise ConfigurationError(
                f"model materialised offsets for {self._num_pois} PoIs "
                f"but was asked to observe {num_pois}"
            )
        mu = (self._means[seller_indices][:, None]
              + self._offsets[seller_indices])
        noise = rng.normal(0.0, self._sigma,
                           size=(seller_indices.size, num_pois))
        return mu + noise


_MODEL_FACTORIES = {
    "truncated_gaussian": TruncatedGaussianQuality,
    "bernoulli": BernoulliQuality,
    "beta": BetaQuality,
    "uniform": UniformQuality,
    "deterministic": DeterministicQuality,
    "drifting": DriftingQuality,
    "poi_heterogeneous": PoiHeterogeneousQuality,
}


def make_quality_model(name: str, means: np.ndarray, **kwargs: float) -> QualityModel:
    """Construct a quality model by name.

    Parameters
    ----------
    name:
        One of ``"truncated_gaussian"`` (paper default), ``"bernoulli"``,
        ``"beta"``, ``"uniform"``, ``"deterministic"``, ``"drifting"``.
    means:
        Expected qualities ``q_i`` of each seller.
    **kwargs:
        Model-specific parameters (for example ``sigma`` for the truncated
        Gaussian).

    Raises
    ------
    ConfigurationError
        If ``name`` is not a known model.
    """
    try:
        factory = _MODEL_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_MODEL_FACTORIES))
        raise ConfigurationError(
            f"unknown quality model {name!r}; expected one of: {known}"
        ) from None
    return factory(means, **kwargs)
