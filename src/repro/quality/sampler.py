"""Round-level quality sampling helpers.

Wraps a :class:`~repro.quality.distributions.QualityModel` with the
bookkeeping a trading round needs: draw one observation per (selected
seller, PoI) pair and summarise them the way the learning state consumes
them (per-seller sums and counts, Eqs. 17-18 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.quality.distributions import DriftingQuality, QualityModel

__all__ = ["RoundObservations", "QualitySampler"]


@dataclass(frozen=True)
class RoundObservations:
    """Quality observations gathered in one trading round.

    Attributes
    ----------
    seller_indices:
        The sellers that collected data this round, shape ``(K,)``.
    per_poi:
        Observation matrix of shape ``(K, L)``: entry ``(j, l)`` is
        ``q_{i_j, l}^t``.
    sums:
        Row sums of ``per_poi`` — the quantity added to each seller's
        running total in Eq. (18).
    num_pois:
        The number of PoIs ``L`` (each selection is learned ``L`` times,
        Eq. 17).
    """

    seller_indices: np.ndarray
    per_poi: np.ndarray
    sums: np.ndarray
    num_pois: int

    @property
    def per_seller_means(self) -> np.ndarray:
        """Mean observed quality of each selected seller this round."""
        return self.sums / float(self.num_pois)

    @property
    def total(self) -> float:
        """Total observed quality this round (the realised CMAB revenue)."""
        return float(self.sums.sum())


class QualitySampler:
    """Draws per-round quality observations from a quality model.

    Parameters
    ----------
    model:
        The observation model shared by all sellers.
    num_pois:
        Number of PoIs ``L`` in the job; every selected seller produces one
        observation per PoI per round (Definition 3).
    rng:
        Source of randomness.  Pass a seeded generator for reproducible
        simulations.
    """

    def __init__(self, model: QualityModel, num_pois: int,
                 rng: np.random.Generator) -> None:
        if num_pois <= 0:
            raise ConfigurationError(f"num_pois must be positive, got {num_pois}")
        self._model = model
        self._num_pois = int(num_pois)
        self._rng = rng

    @property
    def model(self) -> QualityModel:
        """The underlying observation model."""
        return self._model

    @property
    def num_pois(self) -> int:
        """Number of PoIs ``L`` observed per selected seller per round."""
        return self._num_pois

    def sample_round(self, seller_indices: np.ndarray,
                     round_index: int | None = None) -> RoundObservations:
        """Draw the observations for one round of data collection.

        Parameters
        ----------
        seller_indices:
            Indices of the sellers selected this round.
        round_index:
            0-based round number; forwarded to non-stationary models so
            their instantaneous means can drift.
        """
        seller_indices = np.asarray(seller_indices, dtype=int)
        if round_index is not None and isinstance(self._model, DriftingQuality):
            self._model.set_round(round_index)
        per_poi = self._model.observe(self._rng, seller_indices, self._num_pois)
        return RoundObservations(
            seller_indices=seller_indices,
            per_poi=per_poi,
            sums=per_poi.sum(axis=1),
            num_pois=self._num_pois,
        )

    def _sample_sums(self, seller_indices: np.ndarray,
                     round_index: int) -> np.ndarray:
        """Per-seller observation sums of one round, on trusted input.

        The round core's entry: the same draws, in the same order, and
        the same bits as ``sample_round(seller_indices, round_index).sums``,
        minus the model's index checks and the :class:`RoundObservations`
        wrapper.  ``seller_indices`` must be a 1-D in-range integer array
        (DESIGN.md, "Validate at the boundary").
        """
        if isinstance(self._model, DriftingQuality):
            self._model.set_round(round_index)
        per_poi = self._model._observe(self._rng, seller_indices,
                                       self._num_pois)
        return np.add.reduce(per_poi, axis=1)
