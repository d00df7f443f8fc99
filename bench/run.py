"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1] [--out DIR]

Each workload runs in its own process (``bench/measure.py``), one at a
time, with the BLAS/OpenMP thread pools pinned to one thread, and times
repeats for ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).
Results of different ``--seconds`` are not comparable.  Every
metric is printed by name with its unit, a results file is written to
``--out`` (default ``bench/out``), and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when a workload fails its check
or cannot run at all; in the latter case no result line is printed.

``--trace 0`` (default) reports the end-to-end metrics; ``--trace 1``
runs one traced repeat per workload and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fig7_point", "large_m", "serve_soak", "faults_resume")

#: A workload process that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 170

#: One thread per numeric pool: the measured process is the only load.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 out: Path) -> dict | None:
    """One workload in a fresh process; ``None`` when it produced no result."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH / "measure.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {name} exited with code {child.returncode} and no result",
              file=sys.stderr)
        return None


def report(result: dict) -> None:
    """Print every metric of one workload by name, with unit and sample count."""
    for name, metric in result["metrics"].items():
        note = result["samples"].get(name, result["samples"].get("*", ""))
        print(f"{result['workload']:<14} {name:<31} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} {note}")
    for error in result["errors"]:
        print(f"{result['workload']:<14} FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    results = []
    for name in args.workload or WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              args.out.resolve())
        if result is None:
            return 2
        result["seconds"] = args.seconds
        result["machine"] = {"cpus": os.cpu_count(),
                             "platform": platform.platform(),
                             "python": platform.python_version()}
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = args.out / (f"results-{name}-s{args.seed}-t{args.trace}-"
                           f"{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        report(result)
        results.append(result)
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(name if single else f"{r['workload']}.{name}"): metric
                    for r in results for name, metric in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
