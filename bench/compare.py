"""Compare two sets of benchmark results: A, the parent, and B, the change.

    python3 bench/compare.py A B

``A`` and ``B`` are directories of results files written by ``run.py``.
Runs of one workload are paired by seed; a seed run on one side only is
left out and named.  For every (workload, metric) the script prints each
side's median and quartiles over the paired runs and the share of pairs
B won (ties count for neither side), then one verdict under the bounds
of ``BENCHMARK.json``:

* ``regressed`` - B's median is worse than A's by more than the bound;
* ``improved`` - B won at least 9 in 10 pairs and the medians differ by
  more than A's interquartile range;
* ``unresolved`` - either side's interquartile range, as a share of its
  median, is wider than the bound;
* ``unchanged`` - none of these.

Per-layer metrics have no bound and get no verdict.  The exit code is 1
when any metric regressed, and 2, with nothing compared, when either
side holds a failed run or two runs of one seed, or when the runs were
not all timed for the same ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


class Refused(ValueError):
    """The result sets cannot be compared."""


def load(directory: Path) -> tuple[dict[tuple[str, str], dict[int, float]],
                                   set[float]]:
    """``(workload, metric) -> {seed: value}`` over every results file,
    and the ``--seconds`` the runs were timed for."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    seconds: set[float] = set()
    for path in sorted(directory.glob("results-*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result["correct"]:
            raise Refused(f"{path} is a failed run: {result['errors']}")
        seconds.add(result["seconds"])
        for name, metric in result["metrics"].items():
            values = runs.setdefault((result["workload"], name), {})
            if result["seed"] in values:
                raise Refused(f"{directory} holds two runs of "
                              f"{result['workload']} with seed {result['seed']}")
            values[result["seed"]] = metric["value"]
    return runs, seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], wins: float, better: str,
            bound: float) -> str:
    """The verdict on one (workload, metric), B against A."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b_median - a_median)
    if -gain > bound * abs(a_median):
        return "regressed"
    if wins >= WIN_SHARE and gain > a_q3 - a_q1:
        return "improved"
    if (a_q3 - a_q1 > bound * abs(a_median)
            or b_q3 - b_q1 > bound * abs(b_median)):
        return "unresolved"
    return "unchanged"


def compare(a_dir: Path, b_dir: Path) -> bool:
    """Print the comparison; ``True`` when any metric regressed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (a_runs, a_seconds), (b_runs, b_seconds) = load(a_dir), load(b_dir)
    if len(a_seconds | b_seconds) > 1:
        raise Refused(f"runs timed for different --seconds: "
                      f"A {sorted(a_seconds)}, B {sorted(b_seconds)}")
    regressed = False
    print(f"{'workload':<14} {'metric':<31} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B won':>6}  verdict")
    for key in sorted(a_runs.keys() & b_runs.keys()):
        workload, name = key
        if name not in metrics:  # results of an older benchmark definition
            continue
        seeds = sorted(a_runs[key].keys() & b_runs[key].keys())
        unpaired = sorted(a_runs[key].keys() ^ b_runs[key].keys())
        if unpaired:
            print(f"{workload} {name}: seeds {unpaired} ran on one side only "
                  f"and are left out", file=sys.stderr)
        if not seeds:
            continue
        a = [a_runs[key][seed] for seed in seeds]
        b = [b_runs[key][seed] for seed in seeds]
        better = metrics[name]["better"]
        won = sum(y > x if better == "higher" else y < x for x, y in zip(a, b))
        wins = won / len(seeds)
        bound = metrics[name].get("bound")
        result = "-" if bound is None else verdict(a, b, wins, better, bound)
        regressed |= result == "regressed"
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        print(f"{workload:<14} {name:<31} "
              f"{a_med:>12.6g} [{a_q1:>9.5g}, {a_q3:>9.5g}] "
              f"{b_med:>12.6g} [{b_q1:>9.5g}, {b_q3:>9.5g}] "
              f"{wins:>6.0%}  {result}")
    return regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="results of the parent")
    parser.add_argument("b", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    try:
        return 1 if compare(args.a, args.b) else 0
    except Refused as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
