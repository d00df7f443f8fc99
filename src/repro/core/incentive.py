"""Closed-form optimal incentive strategy (Theorems 14-16).

The paper derives the unique Stackelberg Equilibrium of the three-stage
game by backward induction:

* **Stage 3** (Theorem 14): each selected seller's optimal sensing time is
  ``tau_i* = (p - qbar_i*b_i) / (2*qbar_i*a_i)``.
* **Stage 2** (Theorem 15): with ``A = sum 1/(2*qbar_i*a_i)`` and
  ``B = sum b_i/(2*a_i)`` (so that ``sum tau_i* = p*A - B``), the
  platform's optimal price solves ``dOmega/dp = 0``.
* **Stage 1** (Theorem 16): substituting both lower stages into the
  consumer's profit and re-parameterising by
  ``Upsilon = Lambda - Theta*p^J`` (``-Upsilon`` is the total sensing
  time) yields a quadratic first-order condition whose smaller root gives
  the optimal ``p^J*``.

**Formula variants.** Differentiating Eq. (7) after substituting Eq. (20)
gives the stage-2 first-order condition
``p^J*A - 2A(1+theta*A)*p + B + 2*theta*A*B - lambda*A = 0``, i.e. the
constant is ``lambda*A - 2*theta*A*B - B``.  The paper prints it as
``lambda*A - 2*theta*B*A + B`` (a sign slip on the ``-(p*A - B)`` product
term).  Both variants are implemented; :attr:`FormulaVariant.DERIVED` is
the default and is the one that matches a numerical ``argmax`` of the
profit functions (asserted by the test suite).  With ``b_i = 0`` the two
coincide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import GameError
from repro.game.profits import GameInstance, StrategyProfile
from repro.game.stackelberg import NumericalStackelbergSolver, SolvedGame

__all__ = [
    "FormulaVariant",
    "StageCoefficients",
    "optimal_sensing_times",
    "optimal_collection_price",
    "optimal_service_price",
    "ClosedFormStackelbergSolver",
    "initial_round_prices",
    "solve_round_fast",
]


class FormulaVariant(enum.Enum):
    """Which stage-2 constant to use in the closed forms.

    ``DERIVED``
        ``lambda*A - 2*theta*A*B - B`` — the constant obtained by
        differentiating the platform profit directly (default).
    ``PAPER``
        ``lambda*A - 2*theta*A*B + B`` — the constant as printed in
        Theorem 15 of the paper; kept for side-by-side comparison.
    """

    DERIVED = "derived"
    PAPER = "paper"


@dataclass(frozen=True)
class StageCoefficients:
    """The reduced-form coefficients the closed forms are written in.

    Attributes
    ----------
    a_sum:
        ``A = sum_i 1/(2*qbar_i*a_i)`` — total sensing time per unit price.
    b_sum:
        ``B = sum_i b_i/(2*a_i)`` — the price-independent time offset.
    constant:
        The stage-2 constant ``lambda*A - 2*theta*A*B -/+ B`` (variant
        dependent).
    theta_coef:
        ``Theta = A / (2*(1 + theta*A))`` (Theorem 16).
    lambda_coef:
        ``Lambda = constant / (2*(1 + theta*A)) + B`` (Theorem 16).
    """

    a_sum: float
    b_sum: float
    constant: float
    theta_coef: float
    lambda_coef: float

    @classmethod
    def from_game(cls, game: GameInstance,
                  variant: FormulaVariant = FormulaVariant.DERIVED,
                  ) -> "StageCoefficients":
        """Compute the coefficients of a game instance."""
        a_sum = game.coefficient_a
        b_sum = game.coefficient_b
        base = game.lam * a_sum - 2.0 * game.theta * a_sum * b_sum
        if variant is FormulaVariant.DERIVED:
            constant = base - b_sum
        else:
            constant = base + b_sum
        denominator = 2.0 * (1.0 + game.theta * a_sum)
        return cls(
            a_sum=a_sum,
            b_sum=b_sum,
            constant=constant,
            theta_coef=a_sum / denominator,
            lambda_coef=constant / denominator + b_sum,
        )


def optimal_sensing_times(game: GameInstance,
                          collection_price: float) -> np.ndarray:
    """Stage-3 optima ``tau_i*`` (Theorem 14, Eq. 20), clipped to ``[0, T]``."""
    return game.seller_best_responses(collection_price)


def optimal_collection_price(game: GameInstance, service_price: float,
                             variant: FormulaVariant = FormulaVariant.DERIVED,
                             ) -> float:
    """Stage-2 optimum ``p*`` (Theorem 15, Eq. 21), clipped to its bounds.

    ``p* = (p^J*A - constant) / (2*A*(1 + theta*A))`` with the
    variant-dependent constant (see module docstring).
    """
    coeffs = StageCoefficients.from_game(game, variant)
    numerator = float(service_price) * coeffs.a_sum - coeffs.constant
    denominator = 2.0 * coeffs.a_sum * (1.0 + game.theta * coeffs.a_sum)
    return game.clip_collection_price(numerator / denominator)


def optimal_service_price(game: GameInstance,
                          variant: FormulaVariant = FormulaVariant.DERIVED,
                          ) -> float:
    """Stage-1 optimum ``p^J*`` (Theorem 16, Eq. 22), clipped to its bounds.

    With ``qbar`` the mean estimated quality and
    ``Delta = (qbar*Lambda - 2)^2 + 8*Theta*omega*qbar^2``::

        p^J* = (3*qbar*Lambda + sqrt(Delta) - 2) / (4*qbar*Theta)

    Raises
    ------
    GameError
        If the optimal total sensing time implied by the interior solution
        is non-positive (``Upsilon_1 >= 0``) — the closed form's premise
        fails; callers should fall back to the numerical solver.
    """
    coeffs = StageCoefficients.from_game(game, variant)
    q = game.mean_quality
    lam_c, theta_c = coeffs.lambda_coef, coeffs.theta_coef
    delta = (q * lam_c - 2.0) ** 2 + 8.0 * theta_c * game.omega * q * q
    sqrt_delta = math.sqrt(delta)
    upsilon_1 = (q * lam_c + 2.0 - sqrt_delta) / (4.0 * q)
    if upsilon_1 >= 0.0:
        raise GameError(
            "closed-form Stage 1 has no interior optimum with positive "
            f"total sensing time (Upsilon_1 = {upsilon_1:.6f} >= 0)"
        )
    price = (3.0 * q * lam_c + sqrt_delta - 2.0) / (4.0 * q * theta_c)
    return game.clip_service_price(price)


def initial_round_prices(game: GameInstance,
                         initial_sensing_time: float) -> tuple[float, float]:
    """Prices of the initial exploration round (Algorithm 1, steps 2-4).

    In round 1 *all* sellers are selected with a fixed sensing time
    ``tau^0`` and paid the maximum collection price ``p_max``; the
    consumer pays the smallest service price keeping the platform's
    profit non-negative::

        p^J,1* = p_max + C^J(tau^0 * K) / (K * tau^0)

    (solving ``Omega = (p^J - p_max)*S - C^J(S) = 0`` for ``p^J`` with
    ``S = K * tau^0``), clipped to the consumer's price bounds.

    Returns
    -------
    tuple
        ``(service_price, collection_price)``.
    """
    if not (initial_sensing_time > 0.0):
        raise GameError(
            f"initial sensing time must be positive, got {initial_sensing_time}"
        )
    collection_price = game.collection_price_bounds[1]
    total = game.num_sellers * float(initial_sensing_time)
    aggregation = game.theta * total * total + game.lam * total
    service_price = collection_price + aggregation / total
    return game.clip_service_price(service_price), collection_price


def _solve_round_arrays(qualities: np.ndarray, cost_a: np.ndarray,
                        cost_b: np.ndarray, theta: float, lam: float,
                        omega: float,
                        service_price_bounds: tuple[float, float],
                        collection_price_bounds: tuple[float, float],
                        max_sensing_time: float,
                        paper_variant: bool,
                        ) -> tuple[float, float, np.ndarray, bool]:
    """Array-level closed-form solve with bound-aware Stage-1 candidates.

    When the platform's closed-form price falls inside its bounds and no
    sensing time clips, the result is the pure Theorems 14-16 solution.
    When a price bound *binds*, the consumer's problem becomes piecewise
    (the platform's response is pinned at the bound on part of the ``p^J``
    axis); the optimum then lies either at the interior formula value or
    at one of the kink/endpoint candidates, all of which are evaluated in
    closed form.

    Returns ``(p^J, p, tau, interior)`` where ``interior`` is False when
    any clipping affected the solution.
    """
    # Direct ufunc reductions: np.sum/ndarray.mean dispatch to these
    # same pairwise kernels, so the values are bit-identical — only the
    # per-call wrapper overhead goes (this runs once per round).
    inv = 1.0 / (2.0 * qualities * cost_a)
    a_sum = float(np.add.reduce(inv))
    b_sum = float(np.add.reduce(cost_b / (2.0 * cost_a)))
    base = lam * a_sum - 2.0 * theta * a_sum * b_sum
    constant = base + b_sum if paper_variant else base - b_sum
    denominator = 2.0 * (1.0 + theta * a_sum)
    theta_c = a_sum / denominator
    lam_c = constant / denominator + b_sum
    q = float(np.add.reduce(qualities) / qualities.size)
    delta = (q * lam_c - 2.0) ** 2 + 8.0 * theta_c * omega * q * q
    sqrt_delta = math.sqrt(delta)
    interior_service = (
        3.0 * q * lam_c + sqrt_delta - 2.0
    ) / (4.0 * q * theta_c)
    svc_lo, svc_hi = service_price_bounds
    col_lo, col_hi = collection_price_bounds
    stage2_denominator = 2.0 * a_sum * (1.0 + theta * a_sum)

    def stage2_unclipped(service_price: float) -> float:
        return (service_price * a_sum - constant) / stage2_denominator

    service_price = min(max(interior_service, svc_lo), svc_hi)
    collection_interior = stage2_unclipped(service_price)
    taus_interior = (collection_interior - qualities * cost_b) * inv
    interior = (
        svc_lo <= interior_service <= svc_hi
        and col_lo <= collection_interior <= col_hi
        and bool(np.logical_and.reduce(taus_interior >= 0.0))
        and bool(np.logical_and.reduce(taus_interior <= max_sensing_time))
    )
    if interior:
        return service_price, collection_interior, taus_interior, True

    # A bound binds somewhere: compare the clipped interior point against
    # the kink prices (where the platform's response hits each bound) and
    # the consumer's own endpoints.
    candidates = {service_price}
    for bound in (col_lo, col_hi):
        kink = (stage2_denominator * bound + constant) / a_sum
        candidates.add(min(max(kink, svc_lo), svc_hi))
    candidates.add(svc_lo)
    if math.isfinite(svc_hi):
        candidates.add(svc_hi)
    # All candidates at once: one (C, K) clip and one row-wise reduce,
    # element for element and row for row the bits of one candidate at
    # a time.  The first candidate with a strictly larger profit wins.
    order = list(candidates)
    prices = [min(max(stage2_unclipped(candidate), col_lo), col_hi)
              for candidate in order]
    taus = np.clip(
        (np.array(prices)[:, None] - qualities * cost_b) * inv, 0.0,
        max_sensing_time)
    totals = np.add.reduce(taus, axis=1).tolist()
    profits = [omega * math.log1p(q * total) - candidate * total
               for candidate, total in zip(order, totals)]
    # max() keeps the first of equal keys and replaces only on ``>``.
    best = max(range(len(order)), key=profits.__getitem__)
    return order[best], prices[best], taus[best], False


def solve_round_fast(qualities: np.ndarray, cost_a: np.ndarray,
                     cost_b: np.ndarray, theta: float, lam: float,
                     omega: float,
                     service_price_bounds: tuple[float, float],
                     collection_price_bounds: tuple[float, float],
                     max_sensing_time: float = float("inf"),
                     paper_variant: bool = False,
                     ) -> tuple[float, float, np.ndarray]:
    """Allocation-light closed-form solve of one round's game.

    Semantically identical to
    ``ClosedFormStackelbergSolver(fallback="clip").solve`` on the matching
    :class:`~repro.game.profits.GameInstance` (asserted by the test
    suite), but skips instance construction and validation — the
    simulation engine calls this once per round for up to ``2*10^5``
    rounds.  Inputs are assumed pre-validated: qualities in ``(0, 1]``,
    ``a > 0``, ``b >= 0``.  Binding price bounds are handled by the
    piecewise Stage-1 candidate evaluation (see
    :func:`_solve_round_arrays`).

    Returns
    -------
    tuple
        ``(service_price, collection_price, sensing_times)``.
    """
    service_price, collection_price, taus, __ = _solve_round_arrays(
        qualities, cost_a, cost_b, theta, lam, omega,
        service_price_bounds, collection_price_bounds,
        max_sensing_time, paper_variant,
    )
    return service_price, collection_price, taus


class ClosedFormStackelbergSolver:
    """Backward-induction solver using the paper's closed forms.

    Parameters
    ----------
    variant:
        Which stage-2 constant to use (see :class:`FormulaVariant`).
    fallback:
        What to do when the closed form's interior assumptions fail
        (Stage 1 has no positive-time optimum, or a Stage-3 response
        clips):

        * ``"clip"`` (default) — keep the closed-form prices and clip
          sensing times to ``[0, T]``; fast, exact whenever nothing
          actually clips, and the economically sensible projection when a
          low price makes a seller opt out.
        * ``"numeric"`` — re-solve the whole game numerically whenever a
          price bound binds or any sensing time clips.
        * ``"error"`` — raise :class:`~repro.exceptions.GameError`.
    """

    def __init__(self, variant: FormulaVariant = FormulaVariant.DERIVED,
                 fallback: str = "clip") -> None:
        if fallback not in ("clip", "numeric", "error"):
            raise GameError(
                f"fallback must be 'clip', 'numeric', or 'error', got {fallback!r}"
            )
        self._variant = variant
        self._fallback = fallback
        self._numeric = NumericalStackelbergSolver()

    @property
    def variant(self) -> FormulaVariant:
        """The formula variant this solver applies."""
        return self._variant

    def cascade(self, game: GameInstance,
                service_price: float) -> tuple[float, np.ndarray]:
        """Closed-form lower-tier responses ``(p*, tau*)`` to a ``p^J``."""
        price = optimal_collection_price(game, service_price, self._variant)
        return price, optimal_sensing_times(game, price)

    def solve(self, game: GameInstance) -> SolvedGame:
        """Solve all three stages; the result satisfies Definition 13.

        Falls back per the ``fallback`` policy when the closed form's
        interior assumptions do not hold (a price bound binds or a
        sensing time clips); in ``"clip"`` mode those situations are
        resolved by the closed-form piecewise candidate evaluation.
        """
        try:
            optimal_service_price(game, self._variant)
        except GameError:
            if self._fallback == "error":
                raise
            return self._numeric.solve(game)
        service_price, collection_price, taus, interior = _solve_round_arrays(
            game.qualities, game.cost_a, game.cost_b, game.theta,
            game.lam, game.omega, game.service_price_bounds,
            game.collection_price_bounds, game.max_sensing_time,
            self._variant is FormulaVariant.PAPER,
        )
        if not interior and self._fallback == "numeric":
            return self._numeric.solve(game)
        if not interior and self._fallback == "error":
            raise GameError(
                "closed-form solution required clipping (a price bound "
                "binds or a sensing time lies outside [0, T])"
            )
        profile = StrategyProfile(
            service_price=service_price,
            collection_price=collection_price,
            sensing_times=taus,
        )
        return SolvedGame.from_profile(game, profile)
