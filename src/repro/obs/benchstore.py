"""Benchmark history store with regression gates.

``BENCH_micro.json`` / ``BENCH_parallel.json`` hold the repo's
performance trajectory: one machine-tagged record per benchmark run
(git SHA, host, scale, M, K, rounds/sec, peak MiB, wall-clock),
appended over time so "did the vectorization arc actually deliver 50×"
is answerable from committed history rather than anecdote.

Three layers:

* :class:`BenchRecord` — one measurement.  Records flagged
  ``baseline=True`` are the committed reference the regression gate
  compares against (the newest baseline per benchmark name wins).
* :class:`BenchStore` — load/append/save over one JSON history file,
  via the same :func:`~repro.sim.persistence.atomic_write_json`
  machinery checkpoints use; corrupt files surface as
  :class:`~repro.exceptions.PersistenceError`.
* :func:`compare` — the regression verdict: for every benchmark name
  with both a baseline and a later measurement, fail on a >20%
  rounds/sec drop or >25% peak-memory growth (thresholds
  configurable; CI's hard gate re-runs with ``--max-slowdown 0.5``,
  i.e. "fail only on a >2x drop", to ride out shared-runner noise).

Exposed on the CLI as ``repro bench record | history | compare``;
``benchmarks/conftest.py`` appends records automatically when
``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, PersistenceError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchStore",
    "ComparisonResult",
    "ComparisonVerdict",
    "compare",
    "current_git_sha",
    "machine_tag",
]

BENCH_SCHEMA_VERSION = 1

#: Default regression thresholds (fractions, not percent).
DEFAULT_MAX_SLOWDOWN = 0.20
DEFAULT_MAX_MEMORY_GROWTH = 0.25


def current_git_sha(repo_dir: str | None = None) -> str:
    """The short git SHA of ``repo_dir`` (or CWD), or ``"unknown"``."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = output.stdout.strip()
    return sha if output.returncode == 0 and sha else "unknown"


def machine_tag() -> str:
    """A short host descriptor (``hostname/machine``) for records."""
    node = platform.node() or "unknown-host"
    return f"{node}/{platform.machine() or 'unknown-arch'}"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement.

    ``name`` identifies the benchmark (e.g. ``engine.m300``);
    history and comparisons group by it.  ``baseline=True`` marks the
    committed reference record the regression gate compares against.
    """

    name: str
    rounds_per_s: float
    wall_s: float
    peak_mb: float | None = None
    sellers: int | None = None
    selected: int | None = None
    rounds: int | None = None
    scale: str | None = None
    git_sha: str = "unknown"
    machine: str = "unknown"
    timestamp: float = 0.0
    baseline: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("benchmark record needs a name")
        if self.rounds_per_s < 0.0 or self.wall_s < 0.0:
            raise ConfigurationError(
                f"benchmark record {self.name!r} has negative "
                f"rounds_per_s/wall_s"
            )

    @classmethod
    def measure(cls, *, name: str, rounds: int, wall_s: float,
                peak_mb: float | None = None,
                sellers: int | None = None, selected: int | None = None,
                scale: str | None = None, baseline: bool = False,
                extra: dict | None = None) -> "BenchRecord":
        """Build a machine-tagged record from one timed run."""
        if wall_s <= 0.0:
            raise ConfigurationError(
                f"benchmark {name!r} measured non-positive wall time "
                f"{wall_s!r}"
            )
        return cls(
            name=name,
            rounds_per_s=rounds / wall_s,
            wall_s=wall_s,
            peak_mb=peak_mb,
            sellers=sellers,
            selected=selected,
            rounds=rounds,
            scale=scale,
            git_sha=current_git_sha(),
            machine=machine_tag(),
            timestamp=time.time(),
            baseline=baseline,
            extra=dict(extra or {}),
        )

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "rounds_per_s": self.rounds_per_s,
            "wall_s": self.wall_s,
            "peak_mb": self.peak_mb,
            "sellers": self.sellers,
            "selected": self.selected,
            "rounds": self.rounds,
            "scale": self.scale,
            "git_sha": self.git_sha,
            "machine": self.machine,
            "timestamp": self.timestamp,
            "baseline": self.baseline,
        }
        if self.extra:
            record["extra"] = dict(self.extra)
        return record

    @classmethod
    def from_dict(cls, record: dict, *, what: str) -> "BenchRecord":
        if not isinstance(record, dict):
            raise PersistenceError(
                f"{what}: benchmark record must be a JSON object, "
                f"got {type(record).__name__}"
            )
        try:
            return cls(
                name=str(record["name"]),
                rounds_per_s=float(record["rounds_per_s"]),
                wall_s=float(record["wall_s"]),
                peak_mb=(None if record.get("peak_mb") is None
                         else float(record["peak_mb"])),
                sellers=(None if record.get("sellers") is None
                         else int(record["sellers"])),
                selected=(None if record.get("selected") is None
                          else int(record["selected"])),
                rounds=(None if record.get("rounds") is None
                        else int(record["rounds"])),
                scale=(None if record.get("scale") is None
                       else str(record["scale"])),
                git_sha=str(record.get("git_sha", "unknown")),
                machine=str(record.get("machine", "unknown")),
                timestamp=float(record.get("timestamp", 0.0)),
                baseline=bool(record.get("baseline", False)),
                extra=dict(record.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError, ConfigurationError
                ) as error:
            raise PersistenceError(
                f"{what}: malformed benchmark record: {error}"
            ) from error


class BenchStore:
    """One ``BENCH_*.json`` history file: load, append, query, save."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._records: list[BenchRecord] = []
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        what = f"benchmark history {self.path!r}"
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError
                ) as error:
            raise PersistenceError(
                f"{what} is corrupt or unreadable: {error}",
                path=self.path,
            ) from error
        if not isinstance(payload, dict):
            raise PersistenceError(
                f"{what} does not hold a JSON object", path=self.path
            )
        found = payload.get("schema_version")
        if found is not None and int(found) != BENCH_SCHEMA_VERSION:
            raise PersistenceError(
                f"{what} has an unsupported schema version",
                path=self.path, schema_found=int(found),
                schema_expected=BENCH_SCHEMA_VERSION,
            )
        records = payload.get("records", [])
        if not isinstance(records, list):
            raise PersistenceError(
                f"{what} field 'records' must be a list", path=self.path
            )
        self._records = [
            BenchRecord.from_dict(record, what=what) for record in records
        ]

    def __len__(self) -> int:
        return len(self._records)

    def records(self, name: str | None = None) -> list[BenchRecord]:
        """All records, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._records)
        return [record for record in self._records
                if record.name == name]

    def names(self) -> list[str]:
        """Every benchmark name present, sorted."""
        return sorted({record.name for record in self._records})

    def latest(self, name: str) -> BenchRecord | None:
        """The newest (last-appended) record for ``name``."""
        for record in reversed(self._records):
            if record.name == name:
                return record
        return None

    def baseline(self, name: str) -> BenchRecord | None:
        """The newest record for ``name`` flagged ``baseline=True``."""
        for record in reversed(self._records):
            if record.name == name and record.baseline:
                return record
        return None

    def append(self, record: BenchRecord) -> None:
        """Append one record and persist the store atomically."""
        self._records.append(record)
        self.save()

    def save(self) -> None:
        """Write the history file atomically."""
        # Imported lazily: repro.sim pulls the whole engine stack in,
        # which itself imports repro.obs — a module-level import here
        # would be circular.
        from repro.sim.persistence import atomic_write_json

        atomic_write_json(self.path, {
            "schema_version": BENCH_SCHEMA_VERSION,
            "records": [record.to_dict() for record in self._records],
        })


@dataclass(frozen=True)
class ComparisonResult:
    """Baseline-vs-latest verdict for one benchmark name."""

    name: str
    baseline: BenchRecord
    latest: BenchRecord
    #: latest/baseline rounds-per-second (<1 means slower).
    speed_ratio: float
    #: latest/baseline peak memory (``None`` when either lacks it).
    memory_ratio: float | None
    regressions: tuple[str, ...]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "baseline": self.baseline.to_dict(),
            "latest": self.latest.to_dict(),
            "speed_ratio": self.speed_ratio,
            "memory_ratio": self.memory_ratio,
            "regressions": list(self.regressions),
        }


@dataclass(frozen=True)
class ComparisonVerdict:
    """The full ``repro bench compare`` outcome over a store."""

    results: tuple[ComparisonResult, ...]
    #: Names that have a baseline but no later measurement (or vice
    #: versa) — reported, never failed on.
    unmatched: tuple[str, ...]
    max_slowdown: float
    max_memory_growth: float

    @property
    def ok(self) -> bool:
        return not any(result.regressed for result in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "ok": self.ok,
            "max_slowdown": self.max_slowdown,
            "max_memory_growth": self.max_memory_growth,
            "results": [result.to_dict() for result in self.results],
            "unmatched": list(self.unmatched),
        }

    def to_text(self) -> str:
        lines = []
        for result in self.results:
            verdict = "REGRESSED" if result.regressed else "ok"
            memory = (f" mem x{result.memory_ratio:.2f}"
                      if result.memory_ratio is not None else "")
            lines.append(
                f"{result.name:<28} speed x{result.speed_ratio:.2f}"
                f"{memory}  [{verdict}]"
            )
            for reason in result.regressions:
                lines.append(f"  - {reason}")
        for name in self.unmatched:
            lines.append(f"{name:<28} (no baseline/measurement pair)")
        if not self.results and not self.unmatched:
            lines.append("no benchmark records to compare")
        lines.append(
            "verdict: " + ("OK" if self.ok else "REGRESSION DETECTED")
        )
        return "\n".join(lines)


def compare(store: BenchStore, *,
            max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
            max_memory_growth: float = DEFAULT_MAX_MEMORY_GROWTH,
            ) -> ComparisonVerdict:
    """Judge every benchmark's latest measurement against its baseline.

    A name regresses when its newest non-baseline record is more than
    ``max_slowdown`` slower (rounds/sec) or more than
    ``max_memory_growth`` hungrier (peak MiB) than its newest
    ``baseline=True`` record.  Names lacking either side are listed as
    unmatched, never failed.

    Raises
    ------
    ConfigurationError
        For nonsensical thresholds.
    """
    if not 0.0 <= max_slowdown < 1.0:
        raise ConfigurationError(
            f"max_slowdown must be in [0, 1), got {max_slowdown!r}"
        )
    if max_memory_growth < 0.0:
        raise ConfigurationError(
            f"max_memory_growth must be >= 0, got {max_memory_growth!r}"
        )
    results = []
    unmatched = []
    for name in store.names():
        baseline = store.baseline(name)
        latest = next(
            (record for record in reversed(store.records(name))
             if not record.baseline),
            None,
        )
        if baseline is None or latest is None:
            unmatched.append(name)
            continue
        speed_ratio = (latest.rounds_per_s / baseline.rounds_per_s
                       if baseline.rounds_per_s > 0.0 else 0.0)
        memory_ratio = None
        if (baseline.peak_mb is not None and latest.peak_mb is not None
                and baseline.peak_mb > 0.0):
            memory_ratio = latest.peak_mb / baseline.peak_mb
        regressions = []
        if speed_ratio < 1.0 - max_slowdown:
            regressions.append(
                f"rounds/sec dropped to {speed_ratio:.0%} of baseline "
                f"({latest.rounds_per_s:,.1f} vs "
                f"{baseline.rounds_per_s:,.1f}; floor "
                f"{1.0 - max_slowdown:.0%})"
            )
        if (memory_ratio is not None
                and memory_ratio > 1.0 + max_memory_growth):
            regressions.append(
                f"peak memory grew to {memory_ratio:.0%} of baseline "
                f"({latest.peak_mb:.1f} MiB vs {baseline.peak_mb:.1f} "
                f"MiB; ceiling {1.0 + max_memory_growth:.0%})"
            )
        results.append(ComparisonResult(
            name=name, baseline=baseline, latest=latest,
            speed_ratio=speed_ratio, memory_ratio=memory_ratio,
            regressions=tuple(regressions),
        ))
    return ComparisonVerdict(
        results=tuple(results), unmatched=tuple(unmatched),
        max_slowdown=max_slowdown, max_memory_growth=max_memory_growth,
    )
