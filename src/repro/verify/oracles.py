"""Differential oracles: closed forms vs independent references.

The engine's hot path trusts the paper's closed forms (Theorems 14-16)
and the :func:`~repro.core.selection.top_k_indices` partition selection.
Both have slower, independently-derived references in this repo — the
purely numerical ``solve_stage{1,2,3}_numeric`` backward induction and a
brute-force top-K — that share *no code* with the trusted paths beyond
the profit functions themselves.  Each oracle here solves the same
problem both ways and checks agreement, so an algebra slip in a closed
form (a sign flip, a dropped coefficient) is caught by construction
rather than by eyeballing revenue curves.

The decisive criterion is **profit domination**, not price equality:
a closed form claims to be the exact argmax, so the true profit of its
decision must be at least the profit of the numerical optimiser's
decision (minus grid slack).  Any perturbation of a closed form moves
its decision off the optimum and *lowers its true profit*, failing the
check — whereas raw price comparison can be fooled by flat optima.
Price/time agreement is still checked, with tolerances matching the
numerical references' resolution.

Stage-1/2 closed forms assume an interior solution (no price bound
binds, no seller opts out or saturates); cases violating that premise
are reported as skipped rather than compared against a formula whose
derivation does not apply.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import would cycle: the engine runs oracles
    from repro.sim.replication import ReplicationResult

from repro.core.incentive import (
    ClosedFormStackelbergSolver,
    optimal_collection_price,
    optimal_sensing_times,
    optimal_service_price,
)
from repro.core.selection import top_k_indices
from repro.game.profits import GameInstance
from repro.game.stackelberg import (
    NumericalStackelbergSolver,
    Stage3Fn,
    solve_stage1_numeric,
    solve_stage2_numeric,
    solve_stage3_numeric,
)
from repro.sim.rng import seeded_generator
from repro.verify.compare import Check, join_problems

__all__ = [
    "brute_force_top_k",
    "check_stage3_oracle",
    "check_stage2_oracle",
    "check_stage1_oracle",
    "check_full_solve_oracle",
    "check_selection_oracle",
    "check_recovery_equivalence",
    "run_oracle_suite",
]

#: Absolute agreement required of Stage-3 sensing times (the numerical
#: golden-section search brackets to ~1e-11; 1e-5 matches the existing
#: closed-vs-numeric tests with margin for large tau scales).
_STAGE3_ATOL = 1e-5

#: Grid resolutions for the Stage-1 numerical reference.  Coarser than
#: the module defaults — every Stage-1 candidate price triggers a full
#: Stage-2 solve (itself a grid of Stage-3 solves), and the
#: golden-section polish restores precision afterwards, so the extra
#: coarse points only buy wall-clock time.  The basin-locating grids
#: stay dense enough for the unimodal profit surfaces involved.
_STAGE1_COARSE_POINTS = 61
_STAGE2_INNER_COARSE_POINTS = 201

#: Profit-domination slack: closed-form profit must be at least the
#: numerical reference's profit minus ``atol + rtol * |reference|``.
_DOMINATION_ATOL = 0.05
_DOMINATION_RTOL = 1e-3

#: Two-sided gross-agreement bound on profits — the numerical optimiser
#: must not be *beaten* by more than this either, or the references have
#: diverged structurally (e.g. different feasible regions).
_AGREEMENT_RTOL = 5e-2
_AGREEMENT_ATOL = 0.5


def _name(oracle: str, case: str) -> str:
    """A check's name: the oracle, then the case it compared."""
    return f"{oracle}/{case}" if case else oracle


def brute_force_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Reference top-K: exhaustive sort in plain Python.

    Highest score wins; ties break toward the lower index — the same
    contract :func:`~repro.core.selection.top_k_indices` documents, met
    here by sorting ``(-score, index)`` pairs instead of argsorting a
    numpy array.  Returns the winners in ascending index order.
    """
    values = [float(s) for s in np.asarray(scores, dtype=float)]
    ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return np.array(sorted(ranked[: int(k)]), dtype=np.int64)


def _dominates(closed_profit: float, reference_profit: float) -> bool:
    slack = _DOMINATION_ATOL + _DOMINATION_RTOL * abs(reference_profit)
    return closed_profit >= reference_profit - slack


def _grossly_agrees(closed_profit: float, reference_profit: float) -> bool:
    scale = max(1.0, abs(closed_profit), abs(reference_profit))
    return (abs(closed_profit - reference_profit)
            <= _AGREEMENT_ATOL + _AGREEMENT_RTOL * scale)


def _stage2_reference(game: GameInstance, service_price: float,
                      stage3: Stage3Fn | None = None) -> float:
    """Stage-2 numerical reference used inside the Stage-1 search.

    Identical to :func:`solve_stage2_numeric` with a coarser
    basin-locating grid — it runs once per Stage-1 candidate price, so
    its cost multiplies by :data:`_STAGE1_COARSE_POINTS`.
    """
    return solve_stage2_numeric(game, service_price, stage3,
                                coarse_points=_STAGE2_INNER_COARSE_POINTS)


def _stage2_premise(game: GameInstance, collection_price: float,
                    taus: np.ndarray) -> str | None:
    """Why the Theorem-15 interior assumption fails (or ``None``)."""
    col_lo, col_hi = game.collection_price_bounds
    if not (col_lo + 1e-9 < collection_price < col_hi - 1e-9):
        return "collection price binds its bound"
    if np.any(taus <= 0.0):
        return "a seller opts out (tau = 0)"
    if np.isfinite(game.max_sensing_time) and np.any(
            taus >= game.max_sensing_time * (1.0 - 1e-9)):
        return "a sensing time saturates at T"
    return None


def _stage1_premise(game: GameInstance, service_price: float,
                    collection_price: float,
                    taus: np.ndarray) -> str | None:
    """Why the Theorem-16 interior assumption fails (or ``None``)."""
    svc_lo, svc_hi = game.service_price_bounds
    if not (svc_lo + 1e-9 < service_price < svc_hi - 1e-9):
        return "service price binds its bound"
    return _stage2_premise(game, collection_price, taus)


def check_stage3_oracle(game: GameInstance, collection_price: float,
                        case: str = "") -> Check:
    """Theorem-14 sensing times vs golden-section search, all sellers."""
    closed = optimal_sensing_times(game, collection_price)
    numeric = solve_stage3_numeric(game, collection_price)
    error = float(np.max(np.abs(closed - numeric)))
    closed_profit = game.seller_profits(collection_price, closed)
    numeric_profit = game.seller_profits(collection_price, numeric)
    dominated = bool(np.all(closed_profit >= numeric_profit - 1e-9))
    passed = error <= _STAGE3_ATOL and dominated
    detail = (f"max |tau_closed - tau_numeric| = {error:.3e} at "
              f"p = {collection_price:.6g}")
    if not dominated:
        detail += "; closed-form seller profit below numerical reference"
    return Check(_name("stage3", case), passed, detail, error)


def check_stage2_oracle(game: GameInstance, service_price: float,
                        case: str = "") -> Check:
    """Theorem-15 collection price vs grid+golden-section reference."""
    closed = optimal_collection_price(game, service_price)
    closed_taus = optimal_sensing_times(game, closed)
    premise = _stage2_premise(game, closed, closed_taus)
    if premise is not None:
        return Check(_name("stage2", case), True, f"skipped: {premise}")
    numeric = solve_stage2_numeric(game, service_price)
    numeric_taus = solve_stage3_numeric(game, numeric)
    closed_profit = game.platform_profit(service_price, closed, closed_taus)
    numeric_profit = game.platform_profit(service_price, numeric,
                                          numeric_taus)
    error = abs(closed - numeric)
    passed = (_dominates(closed_profit, numeric_profit)
              and _grossly_agrees(closed_profit, numeric_profit))
    detail = (f"p_closed = {closed:.6g} vs p_numeric = {numeric:.6g} at "
              f"p^J = {service_price:.6g}; platform profit "
              f"{closed_profit:.6g} vs {numeric_profit:.6g}")
    return Check(_name("stage2", case), passed, detail, error)


def check_stage1_oracle(game: GameInstance, case: str = "") -> Check:
    """Theorem-16 service price vs full numerical backward induction."""
    closed_pj = optimal_service_price(game)
    closed_p = optimal_collection_price(game, closed_pj)
    closed_taus = optimal_sensing_times(game, closed_p)
    premise = _stage1_premise(game, closed_pj, closed_p, closed_taus)
    if premise is not None:
        return Check(_name("stage1", case), True, f"skipped: {premise}")
    numeric_pj = solve_stage1_numeric(game, stage2=_stage2_reference,
                                      coarse_points=_STAGE1_COARSE_POINTS)
    numeric_p = solve_stage2_numeric(game, numeric_pj)
    numeric_taus = solve_stage3_numeric(game, numeric_p)
    closed_profit = game.consumer_profit(closed_pj, closed_taus)
    numeric_profit = game.consumer_profit(numeric_pj, numeric_taus)
    error = abs(closed_pj - numeric_pj)
    passed = (_dominates(closed_profit, numeric_profit)
              and _grossly_agrees(closed_profit, numeric_profit))
    detail = (f"p^J_closed = {closed_pj:.6g} vs p^J_numeric = "
              f"{numeric_pj:.6g}; consumer profit {closed_profit:.6g} vs "
              f"{numeric_profit:.6g}")
    return Check(_name("stage1", case), passed, detail, error)


def check_full_solve_oracle(game: GameInstance,
                            case: str = "") -> Check:
    """Closed-form cascade vs the grid-based numerical solver, end to end.

    Compared only when the closed form's interior premise holds: in
    clipped corners the two solvers legitimately differ (the numerical
    reference additionally caps ``p <= p^J``, and the closed fallback's
    candidate evaluation does not enumerate ``T``-saturation kinks), so
    a comparison there would test the fallback heuristics, not the
    theorems.
    """
    closed = ClosedFormStackelbergSolver(fallback="clip").solve(game)
    premise = _stage1_premise(game, closed.profile.service_price,
                              closed.profile.collection_price,
                              closed.profile.sensing_times)
    if premise is not None:
        return Check(_name("full_solve", case), True,
                     f"skipped: {premise}")
    numeric = NumericalStackelbergSolver().solve(game)
    passed = (_dominates(closed.consumer_profit, numeric.consumer_profit)
              and _grossly_agrees(closed.consumer_profit,
                                  numeric.consumer_profit))
    error = abs(closed.consumer_profit - numeric.consumer_profit)
    detail = (f"consumer profit {closed.consumer_profit:.6g} (closed) vs "
              f"{numeric.consumer_profit:.6g} (numeric); p^J "
              f"{closed.profile.service_price:.6g} vs "
              f"{numeric.profile.service_price:.6g}")
    return Check(_name("full_solve", case), passed, detail, error)


def check_selection_oracle(scores: np.ndarray, k: int,
                           case: str = "") -> Check:
    """Vectorised top-K selection vs the brute-force reference."""
    fast = top_k_indices(np.asarray(scores, dtype=float), int(k))
    reference = brute_force_top_k(scores, k)
    passed = bool(np.array_equal(fast, reference))
    detail = (f"top-{k} of {len(scores)} scores: argsort "
              f"{fast.tolist()} vs brute-force {reference.tolist()}")
    return Check(_name("selection", case), passed, detail,
                 0.0 if passed else float(np.sum(fast != reference)))


def _floats_identical(a: float, b: float) -> bool:
    """Bit-level float agreement, treating NaN as equal to NaN.

    Plain ``==`` would flag two single-seed sweeps as diverging on
    their (honestly unknowable) NaN standard errors.
    """
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


#: MetricSummary fields the recovery-equivalence oracle compares.
_SUMMARY_FIELDS = ("mean", "std", "minimum", "maximum", "num_seeds",
                   "stderr")


def check_recovery_equivalence(golden: "ReplicationResult",
                               recovered: "ReplicationResult",
                               case: str = "") -> Check:
    """The recovery-equivalence oracle of the chaos harness.

    A sweep that survived injected infrastructure faults — interrupts,
    corrupted checkpoints, crashed or stalled workers — must end
    **bit-identical** to a fault-free golden sweep of the same
    configuration: every metric of every policy, to the last float.
    "Close" is not recovery; any drift means some recovery path
    recomputed, dropped, or double-counted a seed.
    """
    mismatches: list[str] = []
    max_error = 0.0
    if list(golden.seeds) != list(recovered.seeds):
        mismatches.append(
            f"seeds {recovered.seeds} != golden {golden.seeds}"
        )
    if golden.policy_names() != recovered.policy_names():
        mismatches.append(
            f"policies {recovered.policy_names()} != "
            f"golden {golden.policy_names()}"
        )
    else:
        for policy in golden.policy_names():
            for metric, expected in golden.summaries[policy].items():
                actual = recovered.summaries[policy].get(metric)
                if actual is None:
                    mismatches.append(f"{policy}.{metric} missing")
                    continue
                for field_name in _SUMMARY_FIELDS:
                    want = float(getattr(expected, field_name))
                    got = float(getattr(actual, field_name))
                    if _floats_identical(want, got):
                        continue
                    mismatches.append(
                        f"{policy}.{metric}.{field_name} {got!r} != "
                        f"golden {want!r}"
                    )
                    if math.isfinite(want) and math.isfinite(got):
                        max_error = max(max_error, abs(got - want))
    passed = not mismatches
    detail = (
        f"recovered sweep bit-identical to fault-free golden "
        f"({len(golden.policy_names())} policies x "
        f"{len(golden.seeds)} seeds)"
        if passed else join_problems(mismatches)
    )
    return Check(_name("recovery_equivalence", case), passed, detail,
                 max_error)


def _random_game(rng: np.random.Generator, num_sellers: int,
                 wide_bounds: bool) -> GameInstance:
    """One game drawn from the paper's Table-II parameter ranges."""
    if wide_bounds:
        svc_bounds, col_bounds = (0.0, 1_000.0), (0.0, 1_000.0)
    else:
        svc_bounds, col_bounds = (0.0, 1_000.0), (0.0, 5.0)
    return GameInstance(
        qualities=rng.uniform(0.1, 1.0, num_sellers),
        cost_a=rng.uniform(0.1, 0.5, num_sellers),
        cost_b=rng.uniform(0.0, 1.0, num_sellers),
        theta=float(rng.uniform(0.05, 0.5)),
        lam=float(rng.uniform(0.0, 2.0)),
        omega=float(rng.uniform(100.0, 2_000.0)),
        service_price_bounds=svc_bounds,
        collection_price_bounds=col_bounds,
    )


def _edge_case_games() -> list[tuple[str, GameInstance]]:
    """Deterministic corner cases every suite run includes."""
    single = GameInstance(
        qualities=np.array([0.6]), cost_a=np.array([0.3]),
        cost_b=np.array([0.4]), theta=0.1, lam=1.0, omega=1_000.0,
    )
    opt_out = GameInstance(
        # One seller's qbar*b is far above the others': at moderate
        # prices it senses zero time, exercising the clipped branch.
        qualities=np.array([0.9, 0.8, 0.2]),
        cost_a=np.array([0.2, 0.3, 0.4]),
        cost_b=np.array([20.0, 0.1, 0.2]),
        theta=0.1, lam=1.0, omega=500.0,
    )
    binding = GameInstance(
        # Collection price capped tight enough that the Stage-2 optimum
        # clips, exercising the bound-aware candidate logic.
        qualities=np.array([0.5, 0.7]),
        cost_a=np.array([0.2, 0.25]),
        cost_b=np.array([0.3, 0.5]),
        theta=0.2, lam=0.5, omega=800.0,
        collection_price_bounds=(0.0, 0.75),
    )
    capped = GameInstance(
        # A finite round duration T small enough to saturate tau.
        qualities=np.array([0.8, 0.9]),
        cost_a=np.array([0.1, 0.12]),
        cost_b=np.array([0.1, 0.2]),
        theta=0.1, lam=0.2, omega=1_500.0,
        max_sensing_time=3.0,
    )
    return [("single-seller", single), ("opt-out", opt_out),
            ("binding-bound", binding), ("capped-tau", capped)]


def run_oracle_suite(seed: int = 0, num_cases: int = 12,
                     stage1_cases: int = 6,
                     full_solve_cases: int = 3) -> list[Check]:
    """Run every differential oracle over edge cases + random games.

    ``num_cases`` random games from Table-II ranges (half with the
    paper's tight collection-price bounds) plus fixed corner cases
    (single seller, opt-out, binding bound, saturated ``tau``) are
    compared stage by stage.  The two expensive references — the full
    Stage-1 backward induction and the end-to-end grid solver — run on
    every corner case but only the first ``stage1_cases`` /
    ``full_solve_cases`` random games (several seconds each; the cheap
    Stage-2/3 oracles still cover every game).
    """
    rng = seeded_generator(seed)
    checks: list[Check] = []
    games = _edge_case_games()
    num_edge = len(games)
    for index in range(int(num_cases)):
        game = _random_game(rng, num_sellers=int(rng.integers(1, 9)),
                            wide_bounds=index % 2 == 0)
        games.append((f"random-{index}", game))

    for index, (case, game) in enumerate(games):
        closed_pj = optimal_service_price(game)
        mid_price = 0.5 * (game.opt_out_price + closed_pj) + 1.0
        for price_label, price in (("pj-star", closed_pj),
                                   ("mid", mid_price)):
            checks.append(check_stage3_oracle(
                game, optimal_collection_price(game, price),
                f"{case}/{price_label}"))
            checks.append(check_stage2_oracle(game, price,
                                              f"{case}/{price_label}"))
        if index < num_edge + int(stage1_cases):
            checks.append(check_stage1_oracle(game, case))
        if index < num_edge + int(full_solve_cases):
            checks.append(check_full_solve_oracle(game, case))

    for index in range(6):
        size = int(rng.integers(3, 40))
        scores = rng.normal(size=size)
        if index % 2 == 0 and size > 4:
            # Inject ties and infinities: the regimes where a fast
            # argsort and a naive sort can legitimately disagree.
            scores[: size // 2] = scores[0]
            scores[-1] = np.inf
        k = int(rng.integers(1, size + 1))
        checks.append(check_selection_oracle(scores, k, f"scores-{index}"))

    return checks
