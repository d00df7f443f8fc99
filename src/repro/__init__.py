"""CMAB-HS: crowdsensing data trading via combinatorial multi-armed
bandits and a three-stage hierarchical Stackelberg game.

Reproduction of An, Xiao, Liu, Xie, Zhou — "Crowdsensing Data Trading
based on Combinatorial Multi-Armed Bandit and Stackelberg Game"
(ICDE 2021).

Quickstart::

    import numpy as np
    from repro import (
        CMABHSMechanism, Consumer, Job, Platform, SellerPopulation,
    )

    rng = np.random.default_rng(7)
    population = SellerPopulation.random(num_sellers=30, rng=rng)
    job = Job.simple(num_pois=10, num_rounds=500)
    mechanism = CMABHSMechanism(
        population, job, Platform.default(), Consumer.default(), k=5,
    )
    result = mechanism.run()
    print(result.realized_revenue, result.cumulative_regret)

Package map:

* :mod:`repro.core` — the CMAB-HS mechanism (Algorithm 1), closed-form
  equilibrium, regret bound, SE verification.
* :mod:`repro.entities` — consumer / platform / sellers / jobs.
* :mod:`repro.game` — Stackelberg profit functions and numerical solvers.
* :mod:`repro.bandits` — seller-selection policies.
* :mod:`repro.quality` — quality observation models.
* :mod:`repro.data` — synthetic Chicago-style taxi-trace pipeline.
* :mod:`repro.sim` — simulation engine, configs, metrics.
* :mod:`repro.obs` — observability: structured tracing, metrics
  registry, logging setup, trace summaries.
* :mod:`repro.experiments` — drivers for every paper figure/table.
"""

from repro.bandits import (
    EpsilonFirstPolicy,
    EpsilonGreedyPolicy,
    OptimalPolicy,
    RandomPolicy,
    SelectionPolicy,
    SlidingWindowUCBPolicy,
    ThompsonSamplingPolicy,
    UCBPolicy,
)
from repro.core import (
    ClosedFormStackelbergSolver,
    CMABHSMechanism,
    FormulaVariant,
    LearningState,
    RegretTracker,
    TradingResult,
    assert_equilibrium,
    gap_statistics,
    theorem19_bound,
    verify_equilibrium,
)
from repro.entities import (
    Consumer,
    Job,
    LogValuation,
    Platform,
    PoI,
    QuadraticAggregationCost,
    QuadraticSellerCost,
    Seller,
    SellerPopulation,
)
from repro.exceptions import (
    ConfigurationError,
    DataTraceError,
    EquilibriumViolationError,
    GameError,
    InfeasibleStrategyError,
    PersistenceError,
    ReproError,
    SelectionError,
)
from repro.faults import (
    FaultLog,
    FaultModel,
    FaultSpec,
    parse_fault_spec,
)
from repro.game import (
    GameInstance,
    NumericalStackelbergSolver,
    StrategyProfile,
)
from repro.obs import (
    JsonlSink,
    LoggingSink,
    MetricsRegistry,
    NullTracer,
    RingBufferSink,
    TraceEvent,
    Tracer,
    configure_logging,
    summarize_trace,
)
from repro.quality import (
    BernoulliQuality,
    BetaQuality,
    DeterministicQuality,
    DriftingQuality,
    PoiHeterogeneousQuality,
    QualityModel,
    TruncatedGaussianQuality,
    UniformQuality,
)
from repro.sim import (
    PolicyComparison,
    RunMetrics,
    SimulationConfig,
    TradingSimulator,
)
from repro.version import __version__

__all__ = [
    "__version__",
    # core
    "CMABHSMechanism",
    "TradingResult",
    "ClosedFormStackelbergSolver",
    "FormulaVariant",
    "LearningState",
    "RegretTracker",
    "gap_statistics",
    "theorem19_bound",
    "verify_equilibrium",
    "assert_equilibrium",
    # entities
    "Consumer",
    "Platform",
    "Seller",
    "SellerPopulation",
    "Job",
    "PoI",
    "QuadraticSellerCost",
    "QuadraticAggregationCost",
    "LogValuation",
    # game
    "GameInstance",
    "StrategyProfile",
    "NumericalStackelbergSolver",
    # bandits
    "SelectionPolicy",
    "UCBPolicy",
    "OptimalPolicy",
    "EpsilonFirstPolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "ThompsonSamplingPolicy",
    "SlidingWindowUCBPolicy",
    # quality
    "QualityModel",
    "TruncatedGaussianQuality",
    "BernoulliQuality",
    "BetaQuality",
    "UniformQuality",
    "DeterministicQuality",
    "DriftingQuality",
    "PoiHeterogeneousQuality",
    # sim
    "SimulationConfig",
    "TradingSimulator",
    "RunMetrics",
    "PolicyComparison",
    # faults
    "FaultSpec",
    "FaultModel",
    "FaultLog",
    "parse_fault_spec",
    # obs
    "Tracer",
    "NullTracer",
    "TraceEvent",
    "RingBufferSink",
    "JsonlSink",
    "LoggingSink",
    "MetricsRegistry",
    "configure_logging",
    "summarize_trace",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "GameError",
    "InfeasibleStrategyError",
    "EquilibriumViolationError",
    "SelectionError",
    "DataTraceError",
    "PersistenceError",
]
