"""Command-line interface: ``python -m repro`` / ``repro-cdt``.

Subcommands:

* ``list`` — show every registered experiment.
* ``run <experiment-id> [...]`` — run experiments and print their text
  tables (``--paper-scale`` for Table II sizes, ``--seed N``).
* ``quickstart`` — run a small end-to-end trading simulation
  (``--strict`` checks every round against the paper's invariants).
* ``replicate`` — repeat the comparison over several seeds.
* ``trace`` — generate a synthetic taxi trace; ``trace summarize``
  rolls up a JSONL run trace written with ``--trace``; ``trace
  critical-path`` names the wall-clock-dominating phase chain.
* ``profile`` — run a profiled simulation and print the top-N hotspot
  table (rounds/sec, per-phase self time, peak memory); ``--out``
  writes the flat JSON profile.
* ``bench`` — the benchmark history store: ``record`` appends a
  machine-tagged measurement, ``history`` lists records, ``compare``
  gates regressions against the committed baseline (non-zero exit).
* ``serve`` — run the market as a service on the event-driven runtime:
  sellers arrive/depart (seeded churn or a recorded session script
  replayed by the load generator) while the CMAB-HS round loop fires as
  scheduled events; SIGINT drains gracefully into a resumable
  checkpoint and exits 0.
* ``verify`` — run the equilibrium verification subsystem (differential
  oracles, golden-trace regression, strict-mode invariant runs, the
  runtime batch-equivalence/churn-golden checks, and the kernels-vs-
  reference checks); exits non-zero on any failure.
  ``--update-goldens`` blesses new goldens.
* ``chaos`` — drill the resilience layers with seeded fault storms
  (interrupts, checkpoint corruption, worker crashes and stalls) and
  verify every recovered sweep is bit-identical to its fault-free
  golden; exits non-zero on any recovery-equivalence violation.
* ``lint`` — run the :mod:`repro.lint` determinism/correctness static
  analyser over source files; exits non-zero on any finding.

``quickstart`` and ``replicate`` accept ``--trace PATH.jsonl`` (write a
structured event trace of the run) and ``--log-level LEVEL`` (configure
the library's stdlib logging).
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def _distribution_version() -> str:
    """The installed distribution's version, or the in-tree fallback.

    ``importlib.metadata`` sees the version pinned in ``pyproject.toml``
    once the package is installed; a source checkout on ``PYTHONPATH``
    is not a distribution, so fall back to ``repro.version``.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        from repro.version import __version__

        return __version__


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared fault-injection and checkpoint/resume flags."""
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help=(
            "inject seller failures, e.g. "
            "'dropout=0.2,corrupt=0.05,stall=0.01' (default: none)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="periodically write crash-safe checkpoints into DIR",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoints in --checkpoint-dir (required)",
    )


def _add_timeout_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--timeout-s`` flag (default: none, byte-identical)."""
    parser.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help=(
            "wall-clock budget in seconds: the parallel watchdog's "
            "per-task deadline, and the point after which a failing "
            "checkpoint write is no longer retried (default: none)"
        ),
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared retry/timeout flags (default: no-op, byte-identical)."""
    _add_timeout_argument(parser)
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help=(
            "retry a failed checkpoint write up to N times, waiting "
            "min(0.05*2^(k-1), 5) s before retry k (default: 0); "
            "worker crashes are re-queued up to 2 times regardless"
        ),
    )


def _build_resilience(args: argparse.Namespace):
    """The :class:`ResiliencePolicy` requested by the shared flags."""
    from repro.resilience import ResiliencePolicy

    return ResiliencePolicy(max_retries=args.max_retries,
                            timeout_s=args.timeout_s)


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared tracing and logging flags."""
    parser.add_argument(
        "--trace", metavar="PATH", default=None, dest="trace_out",
        help=(
            "write a structured JSONL event trace of the run to PATH "
            "(inspect it with 'trace summarize PATH')"
        ),
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="configure library logging at LEVEL (default: off)",
    )


def _build_observability(args: argparse.Namespace):
    """The (tracer, metrics) pair requested by the CLI flags.

    Returns ``(None, None)`` when ``--trace`` was not given; otherwise
    a JSONL-backed :class:`~repro.obs.Tracer` (the sink opens eagerly,
    so unwritable paths fail fast with a clean error) plus a fresh
    :class:`~repro.obs.MetricsRegistry`.
    """
    from repro.obs import JsonlSink, MetricsRegistry, Tracer, configure_logging

    if args.log_level:
        configure_logging(args.log_level)
    if not args.trace_out:
        return None, None
    return Tracer(JsonlSink(args.trace_out)), MetricsRegistry()


def _finish_observability(args: argparse.Namespace, tracer, metrics) -> None:
    """Close the tracer and print where the telemetry went."""
    if tracer is None:
        return
    count = tracer.num_events
    tracer.close()
    print(f"\nwrote {count} trace events to {args.trace_out} "
          f"(inspect with 'trace summarize {args.trace_out}')")
    if metrics is not None and metrics.counters:
        counters = " ".join(
            f"{name}={value}" for name, value in sorted(metrics.counters.items())
        )
        print(f"counters: {counters}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-cdt",
        description=(
            "CMAB-HS crowdsensing data trading — reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_distribution_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments"
    )
    run_parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (for example fig7 fig13 table2), or 'all'",
    )
    run_parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's Table II sizes (slow)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    run_parser.add_argument(
        "--charts", action="store_true",
        help="append an ASCII chart per panel",
    )
    run_parser.add_argument(
        "--save-dir", metavar="DIR",
        help="also save each result as DIR/<experiment-id>.json",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "fan the experiments out across N crash-tolerant worker "
            "processes (default: 1, serial)"
        ),
    )
    # run writes no checkpoints, so --max-retries would govern nothing.
    _add_timeout_argument(run_parser)

    quick_parser = subparsers.add_parser(
        "quickstart", help="run a small end-to-end trading simulation"
    )
    quick_parser.add_argument("--sellers", type=int, default=50)
    quick_parser.add_argument("--selected", type=int, default=5)
    quick_parser.add_argument("--rounds", type=int, default=1_000)
    quick_parser.add_argument("--seed", type=int, default=0)
    quick_parser.add_argument(
        "--strict", action="store_true",
        help=(
            "check every round against the paper's analytic invariants "
            "and fail fast on the first violation"
        ),
    )
    _add_fault_tolerance_arguments(quick_parser)
    _add_resilience_arguments(quick_parser)
    _add_observability_arguments(quick_parser)

    replicate_parser = subparsers.add_parser(
        "replicate",
        help="repeat the policy comparison over several seeds",
    )
    replicate_parser.add_argument("--sellers", type=int, default=50)
    replicate_parser.add_argument("--selected", type=int, default=5)
    replicate_parser.add_argument("--rounds", type=int, default=1_000)
    replicate_parser.add_argument("--seeds", type=int, default=5,
                                  help="number of replications")
    replicate_parser.add_argument("--first-seed", type=int, default=0)
    replicate_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "shard the seeds across N crash-tolerant worker processes; "
            "metrics are bit-identical to a serial sweep (default: 1)"
        ),
    )
    _add_fault_tolerance_arguments(replicate_parser)
    _add_resilience_arguments(replicate_parser)
    _add_observability_arguments(replicate_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the market as a service on the event-driven runtime "
            "(seeded churn, session scripts, graceful SIGINT shutdown)"
        ),
    )
    serve_parser.add_argument("--sellers", type=int, default=50)
    serve_parser.add_argument("--selected", type=int, default=5)
    serve_parser.add_argument("--rounds", type=int, default=1_000)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--arrival-rate", type=float, default=0.0, metavar="P",
        help="per-round probability an offline slot comes online",
    )
    serve_parser.add_argument(
        "--departure-rate", type=float, default=0.0, metavar="P",
        help="per-round probability an online seller departs",
    )
    serve_parser.add_argument(
        "--min-online", type=int, default=1, metavar="N",
        help="floor on the online population under churn (default 1)",
    )
    serve_parser.add_argument(
        "--drift-amplitude", type=float, default=0.0, metavar="A",
        help="sinusoidal arrival-intensity drift amplitude (default 0)",
    )
    serve_parser.add_argument(
        "--drift-period", type=float, default=200.0, metavar="T",
        help="drift period in rounds (default 200)",
    )
    serve_parser.add_argument(
        "--script", metavar="SCRIPT.json", default=None,
        help=(
            "replay a recorded session script through the service "
            "instead of trading continuously"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint", metavar="PATH.npz", default=None,
        help="checkpoint file (written on graceful shutdown and, with "
             "--checkpoint-every, periodically)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also checkpoint every N completed rounds (default: off)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it exists",
    )
    _add_observability_arguments(serve_parser)

    verify_parser = subparsers.add_parser(
        "verify",
        help=(
            "verify the implementation: differential oracles, golden "
            "traces, strict-mode invariant runs"
        ),
    )
    verify_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized oracle games (default 0)",
    )
    verify_parser.add_argument(
        "--oracle-cases", type=int, default=12, metavar="N",
        help="randomized games per differential oracle (default 12)",
    )
    verify_parser.add_argument(
        "--strict-rounds", type=int, default=60, metavar="N",
        help="rounds per strict-mode scenario (default 60)",
    )
    verify_parser.add_argument(
        "--goldens-dir", metavar="DIR", default=None,
        help="override the golden store location (default: checked-in)",
    )
    verify_parser.add_argument(
        "--only", action="append",
        choices=("oracles", "goldens", "strict", "runtime", "kernels"),
        metavar="SECTION",
        help=(
            "run only this section (repeatable; "
            "oracles, goldens, strict, runtime, or kernels)"
        ),
    )
    verify_parser.add_argument(
        "--update-goldens", action="store_true",
        help="recompute and rewrite the golden files instead of verifying",
    )
    verify_parser.add_argument(
        "--report", metavar="PATH.json", default=None,
        help="also write the verification report as JSON to PATH",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help=(
            "run the determinism/correctness static analyser (rules "
            "RL002, RL004-RL006, RL101 and RL103, plus the RL007 pragma "
            "audit) over source files"
        ),
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--select", action="append", metavar="RULES", default=None,
        help=(
            "comma-separated rule ids to run, e.g. RL002,RL103 "
            "(repeatable; default: all rules)"
        ),
    )
    lint_parser.add_argument(
        "--strict-pragmas", action="store_true",
        help=(
            "treat unused '# repro-lint:' suppression pragmas (RL007) "
            "as errors instead of warnings"
        ),
    )
    lint_parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="report format on stdout (default: human)",
    )
    lint_parser.add_argument(
        "--report", metavar="PATH", default=None,
        help=(
            "also write the report to PATH (JSON report schema, or "
            "SARIF when --format sarif)"
        ),
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )

    chaos_parser = subparsers.add_parser(
        "chaos",
        help=(
            "drill the resilience layers with seeded fault storms and "
            "verify bit-identical recovery"
        ),
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed of the fault storm (default 0)",
    )
    chaos_parser.add_argument(
        "--rounds", type=int, default=3, metavar="N",
        help="independent chaos rounds (default 3)",
    )
    chaos_parser.add_argument(
        "--budget", type=int, default=3, metavar="B",
        help="maximum faults injected per round (default 3)",
    )
    chaos_parser.add_argument(
        "--no-process-faults", action="store_true",
        help=(
            "skip worker-crash/stall faults (no subprocesses; "
            "fastest smoke drill)"
        ),
    )
    chaos_parser.add_argument(
        "--report", metavar="PATH.json", default=None,
        help="also write the chaos report as JSON to PATH",
    )
    _add_observability_arguments(chaos_parser)

    trace_parser = subparsers.add_parser(
        "trace",
        help="generate a synthetic taxi trace and derive PoIs/sellers",
    )
    trace_parser.add_argument("--trips", type=int, default=27_465,
                              help="trip count (default: paper scale)")
    trace_parser.add_argument("--taxis", type=int, default=300)
    trace_parser.add_argument("--pois", type=int, default=10)
    trace_parser.add_argument("--sellers", type=int, default=50)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--out", metavar="CSV",
                              help="also save the trace as CSV")
    trace_subparsers = trace_parser.add_subparsers(
        dest="trace_command", required=False,
        metavar="{summarize,critical-path}",
    )
    summarize_parser = trace_subparsers.add_parser(
        "summarize",
        help="summarise a JSONL run trace written with --trace",
    )
    summarize_parser.add_argument(
        "path", metavar="TRACE.jsonl",
        help="the JSONL trace file to roll up",
    )
    critical_parser = trace_subparsers.add_parser(
        "critical-path",
        help=(
            "name the wall-clock-dominating phase chain of a JSONL "
            "run trace"
        ),
    )
    critical_parser.add_argument(
        "path", metavar="TRACE.jsonl",
        help="the JSONL trace file to analyse",
    )
    critical_parser.add_argument(
        "--report", metavar="PATH.json", default=None,
        help="also write the analysis as JSON to PATH",
    )

    profile_parser = subparsers.add_parser(
        "profile",
        help=(
            "run a profiled simulation and print the top-N hotspot "
            "table (rounds/sec, per-phase self time, peak memory)"
        ),
    )
    profile_parser.add_argument("--sellers", type=int, default=300)
    profile_parser.add_argument("--selected", type=int, default=10)
    profile_parser.add_argument("--rounds", type=int, default=500)
    profile_parser.add_argument("--seeds", type=int, default=1,
                                help="replication seeds to profile over")
    profile_parser.add_argument("--seed", type=int, default=0,
                                help="first seed (default 0)")
    profile_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="profile a parallel sweep across N workers (default: serial)",
    )
    profile_parser.add_argument(
        "--policy", default="cmab-hs",
        choices=("cmab-hs", "optimal", "epsilon-first", "random", "all"),
        help="which policy to drive (default: cmab-hs)",
    )
    profile_parser.add_argument(
        "--memory", default="rss", choices=("off", "rss", "tracemalloc"),
        help=(
            "memory probe: cheap process peak RSS (default), exact "
            "tracemalloc peak (slow), or off"
        ),
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hotspot table rows (default 10)",
    )
    profile_parser.add_argument(
        "--out", metavar="PATH.json", default=None,
        help="also write the flat JSON profile to PATH",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help=(
            "benchmark history store: record measurements, list "
            "history, gate regressions against the committed baseline"
        ),
    )
    bench_subparsers = bench_parser.add_subparsers(
        dest="bench_command", required=True,
        metavar="{record,history,compare}",
    )
    record_parser = bench_subparsers.add_parser(
        "record",
        help="run a profiled simulation and append one history record",
    )
    record_parser.add_argument(
        "--store", metavar="BENCH.json", default="BENCH_micro.json",
        help="history file to append to (default: BENCH_micro.json)",
    )
    record_parser.add_argument(
        "--name", required=True,
        help="benchmark name, e.g. engine.m300",
    )
    record_parser.add_argument("--sellers", type=int, default=300)
    record_parser.add_argument("--selected", type=int, default=10)
    record_parser.add_argument("--rounds", type=int, default=500)
    record_parser.add_argument("--seeds", type=int, default=1,
                               help="replication seeds (default 1)")
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="measure a parallel sweep across N workers",
    )
    record_parser.add_argument(
        "--scale", default=None,
        help="free-form scale tag stored with the record (e.g. small)",
    )
    record_parser.add_argument(
        "--baseline", action="store_true",
        help=(
            "flag the record as the committed baseline future "
            "'bench compare' runs are judged against"
        ),
    )
    history_parser = bench_subparsers.add_parser(
        "history", help="list the records of a history file",
    )
    history_parser.add_argument(
        "store", metavar="BENCH.json", nargs="?",
        default="BENCH_micro.json",
        help="history file to list (default: BENCH_micro.json)",
    )
    history_parser.add_argument(
        "--name", default=None, help="only this benchmark name",
    )
    compare_parser = bench_subparsers.add_parser(
        "compare",
        help=(
            "judge the newest measurements against the committed "
            "baselines; exits non-zero on regression"
        ),
    )
    compare_parser.add_argument(
        "stores", metavar="BENCH.json", nargs="*",
        default=["BENCH_micro.json"],
        help="history files to judge (default: BENCH_micro.json)",
    )
    compare_parser.add_argument(
        "--max-slowdown", type=float, default=0.20, metavar="FRAC",
        help=(
            "fail when rounds/sec drops by more than this fraction of "
            "the baseline (default 0.20)"
        ),
    )
    compare_parser.add_argument(
        "--max-memory-growth", type=float, default=0.25, metavar="FRAC",
        help=(
            "fail when peak memory grows by more than this fraction of "
            "the baseline (default 0.25)"
        ),
    )
    compare_parser.add_argument(
        "--report", metavar="PATH.json", default=None,
        help="also write the verdict as JSON to PATH",
    )
    return parser


def _command_list() -> int:
    from repro.experiments import list_experiments

    for experiment_id, title in list_experiments():
        print(f"{experiment_id:<10} {title}")
    return 0


def _experiment_task_runner(payload, context):
    """Worker-side runner for ``run --workers N``.

    The payload and return value cross process boundaries, so both are
    plain picklable data: ``(experiment_id, scale_value, seed)`` in, the
    experiment result's JSON dict out.
    """
    experiment_id, scale_value, seed = payload
    from repro.experiments import Scale, run_experiment
    from repro.sim.persistence import experiment_result_to_dict

    result = run_experiment(experiment_id, Scale(scale_value), seed)
    return experiment_result_to_dict(result)


def _command_run(args: argparse.Namespace) -> int:
    import os

    from repro.experiments import Scale, list_experiments, run_experiment
    from repro.experiments.reporting import render_experiment
    from repro.sim.persistence import save_experiment_result

    # --paper-scale forces Table II sizes; otherwise the REPRO_FULL_SCALE
    # environment variable decides (default: small).
    scale = Scale.PAPER if args.paper_scale else Scale.from_environment()
    wanted = list(args.experiments)
    if wanted == ["all"]:
        wanted = [experiment_id for experiment_id, __ in list_experiments()]
    if args.workers > 1 and len(wanted) > 1:
        from repro.parallel import ParallelExecutor
        from repro.resilience import ResiliencePolicy, task_watchdog
        from repro.sim.persistence import experiment_result_from_dict

        # One experiment per chunk: the work units are few and heavy,
        # so fine-grained scheduling beats round-trip amortisation.
        executor = ParallelExecutor(
            _experiment_task_runner,
            workers=min(args.workers, len(wanted)),
            chunk_size=1,
            watchdog=task_watchdog(ResiliencePolicy(timeout_s=args.timeout_s)),
        )
        payloads = [(experiment_id, scale.value, args.seed)
                    for experiment_id in wanted]
        results = [
            experiment_result_from_dict(
                task.value,
                what=f"experiment {wanted[task.task_id]!r} worker result",
            )
            for task in executor.map(payloads)
        ]
    else:
        results = [run_experiment(experiment_id, scale, args.seed)
                   for experiment_id in wanted]
    for experiment_id, result in zip(wanted, results):
        if args.charts:
            print(render_experiment(result))
        else:
            print(result.to_text())
        print()
        if args.save_dir:
            os.makedirs(args.save_dir, exist_ok=True)
            path = os.path.join(args.save_dir, f"{experiment_id}.json")
            save_experiment_result(result, path)
            print(f"saved {path}")
    return 0


def _command_quickstart(args: argparse.Namespace) -> int:
    import os

    from repro.bandits import (
        EpsilonFirstPolicy,
        OptimalPolicy,
        RandomPolicy,
        UCBPolicy,
    )
    from repro.faults import FaultLog, parse_fault_spec
    from repro.sim import (
        PolicyComparison,
        SimulationConfig,
        TradingSimulator,
    )

    config = SimulationConfig(
        num_sellers=args.sellers,
        num_selected=args.selected,
        num_rounds=args.rounds,
        seed=args.seed,
    )
    simulator = TradingSimulator(config)
    policies = [
        OptimalPolicy(simulator.population.expected_qualities),
        UCBPolicy(),
        EpsilonFirstPolicy(0.1),
        RandomPolicy(),
    ]
    spec = parse_fault_spec(args.faults)
    fault_model = simulator.fault_model(spec) if spec is not None else None
    tracer, metrics = _build_observability(args)
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
    fault_logs: dict[str, FaultLog] = {}
    comparison = PolicyComparison()
    for policy in policies:
        log = FaultLog() if fault_model is not None else None
        checkpoint_path = (
            os.path.join(args.checkpoint_dir,
                         f"quickstart-{policy.name}.npz")
            if args.checkpoint_dir else None
        )
        comparison.add(simulator.run(
            policy, args.rounds,
            fault_model=fault_model,
            fault_log=log,
            checkpoint_path=checkpoint_path,
            checkpoint_every=(max(1, args.rounds // 10)
                              if checkpoint_path else 0),
            resume=args.resume,
            tracer=tracer,
            metrics=metrics,
            strict=args.strict,
            resilience=_build_resilience(args),
        ))
        if log is not None:
            fault_logs[policy.name] = log
    print(
        f"M={config.num_sellers} K={config.num_selected} "
        f"L={config.num_pois} N={args.rounds}"
    )
    print(f"{'policy':>12} {'revenue':>12} {'regret':>10} "
          f"{'PoC/round':>10} {'PoP/round':>10} {'PoS/round':>10}")
    for name, run in comparison.runs.items():
        print(
            f"{name:>12} {run.total_realized_revenue:>12.1f} "
            f"{run.final_regret:>10.1f} {run.mean_consumer_profit:>10.2f} "
            f"{run.mean_platform_profit:>10.2f} "
            f"{run.mean_seller_profit:>10.3f}"
        )
    if spec is not None:
        print(f"\nfault injection: dropout={spec.dropout_rate} "
              f"corrupt={spec.corruption_rate} stall={spec.stall_rate}")
        for name, log in fault_logs.items():
            print(f"  {name}: {log.summary() or 'no events'}")
    _finish_observability(args, tracer, metrics)
    return 0


def _command_replicate(args: argparse.Namespace) -> int:
    import os

    from repro.bandits import (
        EpsilonFirstPolicy,
        OptimalPolicy,
        RandomPolicy,
        UCBPolicy,
    )
    from repro.faults import parse_fault_spec
    from repro.sim import SimulationConfig, replicate_comparison

    config = SimulationConfig(
        num_sellers=args.sellers,
        num_selected=args.selected,
        num_rounds=args.rounds,
    )

    def factory(qualities):
        return [
            OptimalPolicy(qualities),
            UCBPolicy(),
            EpsilonFirstPolicy(0.1),
            RandomPolicy(),
        ]

    spec = parse_fault_spec(args.faults)
    tracer, metrics = _build_observability(args)
    checkpoint_path = None
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
        checkpoint_path = os.path.join(args.checkpoint_dir,
                                       "replicate-sweep.npz")
    result = replicate_comparison(
        config, factory, num_seeds=args.seeds, first_seed=args.first_seed,
        fault_spec=spec,
        checkpoint_path=checkpoint_path,
        resume=args.resume,
        workers=args.workers,
        tracer=tracer,
        metrics=metrics,
        resilience=_build_resilience(args),
    )
    print(f"M={config.num_sellers} K={config.num_selected} "
          f"N={config.num_rounds}, seeds={result.seeds}"
          + (f", workers={args.workers}" if args.workers > 1 else ""))
    if spec is not None:
        print(f"fault injection: dropout={spec.dropout_rate} "
              f"corrupt={spec.corruption_rate} stall={spec.stall_rate}")
    print(result.to_table())
    separation = result.separation("CMAB-HS", "random")
    print(f"\nCMAB-HS vs random revenue separation: "
          f"{separation:.1f} pooled standard deviations")
    _finish_observability(args, tracer, metrics)
    return 0


def _write_report(path: str, payload: dict, what: str) -> None:
    """Write a JSON artefact; an unwritable path is a named error."""
    from repro.exceptions import PersistenceError
    from repro.sim.persistence import atomic_write_json

    try:
        atomic_write_json(path, payload)
    except OSError as error:
        raise PersistenceError(f"cannot write {what} {path}: {error}") \
            from error


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import ChaosConfig, run_chaos

    tracer, metrics = _build_observability(args)
    report = run_chaos(
        ChaosConfig(
            seed=args.seed,
            rounds=args.rounds,
            budget=args.budget,
            include_process_faults=not args.no_process_faults,
        ),
        tracer=tracer,
        metrics=metrics,
    )
    print(report.to_text())
    if args.report:
        _write_report(args.report, report.to_dict(), "chaos report")
        print(f"wrote report to {args.report}")
    _finish_observability(args, tracer, metrics)
    return 0 if report.passed else 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import GracefulShutdownInterrupt
    from repro.quality.drift import SinusoidalDrift
    from repro.resilience.shutdown import GracefulShutdown
    from repro.runtime import (
        ChurnSpec,
        MarketRuntime,
        MarketService,
        load_script,
        replay_script,
    )
    from repro.sim import SimulationConfig

    config = SimulationConfig(
        num_sellers=args.sellers,
        num_selected=args.selected,
        num_rounds=args.rounds,
        seed=args.seed,
    )
    drift = (SinusoidalDrift(amplitude=args.drift_amplitude,
                             period=args.drift_period)
             if args.drift_amplitude > 0.0 else None)
    churn = ChurnSpec(arrival_rate=args.arrival_rate,
                      departure_rate=args.departure_rate,
                      min_online=args.min_online, drift=drift)
    tracer, metrics = _build_observability(args)
    print(f"serving market: M={config.num_sellers} "
          f"K={config.num_selected} N={config.num_rounds} "
          f"seed={config.seed}"
          + (f" churn=arrival:{churn.arrival_rate}/"
             f"departure:{churn.departure_rate}" if churn.enabled else ""))

    if args.script:
        # Scripted mode: the load generator drives the service through
        # a recorded register/quote/trade/close session script.
        service = MarketService(config, churn=churn if churn.enabled
                                else None, tracer=tracer, metrics=metrics)
        report = replay_script(service, load_script(args.script))
        status = service.status()
        print(f"replayed {args.script}: "
              f"{report.sessions_opened} sessions opened, "
              f"{report.sessions_closed} closed, "
              f"{report.rounds_traded} rounds traded, "
              f"{report.quotes} quotes "
              f"({report.sessions_per_s:,.0f} sessions/s)")
        print(f"ledger: {status['trades']} trades, "
              f"digest {report.ledger_digest[:16]}…")
        if args.checkpoint:
            service.runtime.save(args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}")
        _finish_observability(args, tracer, metrics)
        return 0

    # Continuous mode: every slot starts online and the market trades
    # round after round (with organic churn if configured) until the
    # round budget is spent or a SIGINT/SIGTERM drains it gracefully.
    runtime = MarketRuntime(config, churn=churn if churn.enabled else None,
                            tracer=tracer, metrics=metrics)
    with GracefulShutdown() as stop:
        try:
            run_metrics = runtime.run(
                shutdown=stop,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
            )
        except GracefulShutdownInterrupt as interrupt:
            print(f"\ngraceful shutdown at round {runtime.next_round}: "
                  f"{interrupt}")
            _finish_observability(args, tracer, metrics)
            return 0
    summary = run_metrics.summary()
    print(f"completed {runtime.next_round} rounds: "
          f"revenue={summary['total_revenue']:.1f} "
          f"regret={summary['regret']:.1f}")
    print(f"sessions: {runtime.sessions_opened} opened, "
          f"{runtime.sessions_closed} closed; "
          f"messages: {runtime.kernel.messages_delivered} delivered, "
          f"{runtime.kernel.messages_dropped} dropped")
    print(f"ledger: {len(runtime.ledger)} trades, "
          f"digest {runtime.ledger.digest()[:16]}…")
    _finish_observability(args, tracer, metrics)
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_verification, update_goldens

    if args.update_goldens:
        for path in update_goldens(args.goldens_dir):
            print(f"wrote {path}")
        return 0
    sections = tuple(args.only) if args.only else None
    report = run_verification(
        seed=args.seed,
        oracle_cases=args.oracle_cases,
        goldens_dir=args.goldens_dir,
        sections=sections,
        strict_rounds=args.strict_rounds,
    )
    print(report.to_text())
    if args.report:
        _write_report(args.report, report.to_dict(), "verification report")
        print(f"wrote report to {args.report}")
    return 0 if report.passed else 1


def _command_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import (
        findings_to_json,
        findings_to_sarif,
        lint_paths,
        render_findings,
        rule_meta,
    )

    if args.list_rules:
        for rule_id, meta in rule_meta().items():
            print(f"{rule_id}  {meta['title']}")
            print(f"       {meta['rationale']}")
        return 0

    select = None
    if args.select:
        select = [rule_id.strip().upper()
                  for chunk in args.select
                  for rule_id in chunk.split(",") if rule_id.strip()]
    findings, files_checked = lint_paths(args.paths, select=select,
                                         strict=args.strict_pragmas)
    if args.format == "sarif":
        report = findings_to_sarif(findings)
        print(json.dumps(report, indent=2))
    else:
        report = findings_to_json(findings, files_checked=files_checked)
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            print(render_findings(findings, files_checked=files_checked))
    if args.report:
        _write_report(args.report, report, "lint report")
        if args.format == "human":
            print(f"wrote report to {args.report}")
    return 1 if any(f.severity == "error" for f in findings) else 0


def _command_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import summarize_trace

    print(summarize_trace(args.path).to_text())
    return 0


def _command_trace_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import critical_path

    report = critical_path(args.path)
    print(report.to_text())
    if args.report:
        _write_report(args.report, report.to_dict(), "critical-path report")
        print(f"wrote report to {args.report}")
    return 0


def _profile_policy_factory(choice: str):
    """``factory(qualities) -> [policies]`` for ``profile --policy``."""
    from repro.bandits import (
        EpsilonFirstPolicy,
        OptimalPolicy,
        RandomPolicy,
        UCBPolicy,
    )

    def factory(qualities):
        if choice == "all":
            return [
                OptimalPolicy(qualities),
                UCBPolicy(),
                EpsilonFirstPolicy(0.1),
                RandomPolicy(),
            ]
        if choice == "optimal":
            return [OptimalPolicy(qualities)]
        if choice == "epsilon-first":
            return [EpsilonFirstPolicy(0.1)]
        if choice == "random":
            return [RandomPolicy()]
        return [UCBPolicy()]

    return factory


def _run_profiled_sweep(args: argparse.Namespace, *,
                        policy: str = "cmab-hs", memory: str = "rss"):
    """One profiled replication sweep; returns the finished report."""
    from repro.obs import PhaseProfiler
    from repro.sim import SimulationConfig, replicate_comparison

    config = SimulationConfig(
        num_sellers=args.sellers,
        num_selected=args.selected,
        num_rounds=args.rounds,
    )
    profiler = PhaseProfiler(memory=memory)
    with profiler.profile(
        num_seeds=args.seeds, first_seed=args.seed, workers=args.workers,
        num_sellers=config.num_sellers, num_selected=config.num_selected,
        num_rounds=config.num_rounds,
    ):
        replicate_comparison(
            config, _profile_policy_factory(policy),
            num_seeds=args.seeds, first_seed=args.seed,
            workers=args.workers, metrics=profiler.registry,
        )
    return profiler.report()


def _command_profile(args: argparse.Namespace) -> int:
    report = _run_profiled_sweep(args, policy=args.policy,
                                 memory=args.memory)
    print(f"M={args.sellers} K={args.selected} N={args.rounds} "
          f"seeds={args.seeds} policy={args.policy}"
          + (f" workers={args.workers}" if args.workers > 1 else ""))
    print(report.hotspot_table(args.top))
    if args.out:
        _write_report(args.out, report.to_dict(), "profile")
        print(f"\nwrote profile to {args.out}")
    return 0


def _command_bench_record(args: argparse.Namespace) -> int:
    from repro.obs import BenchStore
    from repro.obs.benchstore import BenchRecord

    report = _run_profiled_sweep(args)
    record = BenchRecord.measure(
        name=args.name,
        rounds=report.rounds,
        wall_s=report.wall_s,
        peak_mb=report.peak_memory_mb,
        sellers=args.sellers,
        selected=args.selected,
        scale=args.scale,
        baseline=args.baseline,
        extra=({"seeds": args.seeds, "workers": args.workers}
               if args.seeds > 1 or args.workers > 1 else None),
    )
    store = BenchStore(args.store)
    store.append(record)
    kind = "baseline" if args.baseline else "record"
    print(f"appended {kind} {args.name!r} to {args.store}: "
          f"{record.rounds_per_s:,.1f} rounds/s, "
          f"{record.wall_s:.3f}s wall"
          + (f", {record.peak_mb:.1f} MiB peak"
             if record.peak_mb is not None else ""))
    return 0


def _command_bench_history(args: argparse.Namespace) -> int:
    from repro.obs import BenchStore

    store = BenchStore(args.store)
    records = store.records(args.name)
    if not records:
        print(f"{args.store}: no records"
              + (f" named {args.name!r}" if args.name else ""))
        return 0
    print(f"{'name':<28} {'rounds/s':>12} {'peak MiB':>9} "
          f"{'wall':>9} {'sha':>9}  {'flags'}")
    for record in records:
        peak = (f"{record.peak_mb:>9.1f}" if record.peak_mb is not None
                else f"{'n/a':>9}")
        print(f"{record.name:<28} {record.rounds_per_s:>12,.1f} {peak} "
              f"{record.wall_s:>8.3f}s {record.git_sha:>9}  "
              f"{'baseline' if record.baseline else ''}")
    return 0


def _command_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs import BenchStore, compare

    verdicts = []
    for store_path in args.stores:
        store = BenchStore(store_path)
        verdict = compare(
            store,
            max_slowdown=args.max_slowdown,
            max_memory_growth=args.max_memory_growth,
        )
        print(f"{store_path}:")
        print(verdict.to_text())
        verdicts.append(verdict)
    if args.report:
        _write_report(args.report, {
            "schema": 1,
            "ok": all(verdict.ok for verdict in verdicts),
            "stores": {
                path: verdict.to_dict()
                for path, verdict in zip(args.stores, verdicts)
            },
        }, "bench comparison report")
        print(f"wrote report to {args.report}")
    return 0 if all(verdict.ok for verdict in verdicts) else 1


def _command_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "record":
        return _command_bench_record(args)
    if args.bench_command == "history":
        return _command_bench_history(args)
    return _command_bench_compare(args)


def _command_trace(args: argparse.Namespace) -> int:
    from repro.data import (
        TraceSpec,
        extract_pois,
        generate_trace,
        save_trace,
        sellers_from_trace,
    )
    from repro.sim.rng import seeded_generator

    spec = TraceSpec(num_trips=args.trips, num_taxis=args.taxis,
                     seed=args.seed)
    trace = generate_trace(spec)
    print(f"generated {len(trace)} trips by {spec.num_taxis} taxis "
          f"over {spec.days} days (seed {spec.seed})")
    if args.out:
        count = save_trace(trace, args.out)
        print(f"saved {count} records to {args.out}")
    pois = extract_pois(trace, num_pois=args.pois)
    print(f"extracted {len(pois)} PoIs (busiest first):")
    for poi in pois:
        print(f"  PoI {poi.poi_id}: ({poi.latitude:.4f}, "
              f"{poi.longitude:.4f}), {poi.weight:.0f} events")
    derived = sellers_from_trace(
        trace, pois, num_sellers=args.sellers,
        rng=seeded_generator(args.seed), radius_degrees=0.02,
    )
    print(f"derived {len(derived.population)} sellers; PoI coverage "
          f"{derived.poi_coverage.min()}-{derived.poi_coverage.max()} "
          f"of {len(pois)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "quickstart":
            return _command_quickstart(args)
        if args.command == "replicate":
            return _command_replicate(args)
        if args.command == "trace":
            if getattr(args, "trace_command", None) == "summarize":
                return _command_trace_summarize(args)
            if getattr(args, "trace_command", None) == "critical-path":
                return _command_trace_critical_path(args)
            return _command_trace(args)
        if args.command == "profile":
            return _command_profile(args)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "verify":
            return _command_verify(args)
        if args.command == "chaos":
            return _command_chaos(args)
        if args.command == "lint":
            return _command_lint(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; exit quietly
        # (stdout is unusable, so point it at devnull to suppress the
        # interpreter's exit-time flush as well).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
