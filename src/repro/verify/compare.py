"""Comparison utilities and the one result record of verification.

Every cross-check in this package — differential oracles comparing the
closed forms against numerical baselines, golden-trace comparisons
against checked-in JSON — reduces to "are these two values the same up
to a tolerance?".  This module answers that question once, correctly,
for the awkward cases: NaN (equal to itself here, unlike IEEE),
infinities (equal only with matching sign), mixed int/float payloads,
and arbitrarily nested dict/list structures, reporting every mismatch
with its path instead of failing fast on the first.  Runs that must
agree bit for bit compare through :func:`first_diverging_field`.

Every leg reports its verdict as a :class:`Check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.results import SERIES_FIELDS, RunMetrics

__all__ = ["Check", "ToleranceSpec", "Mismatch", "values_close",
           "diff_values", "first_diverging_field", "join_problems"]


@dataclass(frozen=True)
class Check:
    """One verification verdict: what was checked, whether it held, why.

    Attributes
    ----------
    name:
        What was checked, e.g. ``stage2/random-3/mid`` or ``ucb-small``.
    passed:
        Whether it held (skipped oracle cases count as passed).
    detail:
        What was compared, or why it was skipped / how it failed.
    max_error:
        The worst discrepancy observed (0 for skips and for checks with
        no numeric error).
    """

    name: str
    passed: bool
    detail: str
    max_error: float = 0.0

    def describe(self) -> str:
        """One-line rendering for reports."""
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def join_problems(problems: list[str], limit: int = 5) -> str:
    """The first ``limit`` problems, ``; ``-joined, plus how many more."""
    more = len(problems) - limit
    return "; ".join(problems[:limit]) + (f" (+{more} more)"
                                          if more > 0 else "")


def first_diverging_field(expected: RunMetrics,
                          actual: RunMetrics) -> str | None:
    """The first :data:`SERIES_FIELDS` array that differs in any bit.

    ``None`` when every series is identical.  Telemetry carries
    wall-clock timers and is never compared.
    """
    for field in SERIES_FIELDS:
        if not np.array_equal(getattr(expected, field),
                              getattr(actual, field)):
            return field
    return None


@dataclass(frozen=True)
class ToleranceSpec:
    """How close two numbers must be to count as equal.

    Two finite values ``a`` and ``b`` are close when
    ``|a - b| <= atol + rtol * max(|a|, |b|)`` — the symmetric variant
    of :func:`numpy.isclose` (neither side is privileged, so comparing
    golden-vs-actual gives the same verdict as actual-vs-golden).

    Attributes
    ----------
    rtol, atol:
        Relative and absolute tolerance.
    nan_equal:
        Whether two NaNs compare equal (the right semantics for
        serialized payloads: a stored NaN *matching* a computed NaN is
        agreement, not error).
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    nan_equal: bool = True

    def __post_init__(self) -> None:
        if self.rtol < 0.0 or self.atol < 0.0:
            raise ConfigurationError(
                f"tolerances must be >= 0, got rtol={self.rtol} "
                f"atol={self.atol}"
            )


#: Default spec for golden comparisons: tight enough to pin results to
#: ~9 significant digits across refactors, loose enough to absorb
#: run-to-run float-reassociation noise from compiler/numpy updates.
DEFAULT_TOLERANCE = ToleranceSpec()


def values_close(expected: float, actual: float,
                 tolerance: ToleranceSpec = DEFAULT_TOLERANCE) -> bool:
    """Whether two scalars agree within the tolerance (NaN/inf-aware).

    NaN equals NaN when the spec says so; infinities must match sign
    exactly; a finite value never equals a non-finite one.
    """
    a, b = float(expected), float(actual)
    if math.isnan(a) or math.isnan(b):
        return tolerance.nan_equal and math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tolerance.atol + tolerance.rtol * max(abs(a), abs(b))


@dataclass(frozen=True)
class Mismatch:
    """One point of disagreement between two payloads.

    Attributes
    ----------
    path:
        Dotted/indexed location, e.g. ``summary.regret`` or
        ``regret_curve[17]``.
    expected, actual:
        The disagreeing values (``<missing>`` markers for absent keys).
    detail:
        Human-readable explanation of the disagreement.
    """

    path: str
    expected: object
    actual: object
    detail: str

    def describe(self) -> str:
        """One-line rendering used in reports and error messages."""
        return f"{self.path or '<root>'}: {self.detail}"


_MISSING = "<missing>"

#: Scalar types compared numerically (bool first: it subclasses int but
#: must compare by identity of truth value, not tolerance).
_NUMERIC_TYPES = (int, float)


def _is_number(value: object) -> bool:
    return isinstance(value, _NUMERIC_TYPES) and not isinstance(value, bool)


def diff_values(expected: object, actual: object,
                tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                path: str = "") -> list[Mismatch]:
    """Every disagreement between two nested JSON-like payloads.

    Recurses through dicts and lists; numbers compare via
    :func:`values_close` (an int may equal a float); everything else
    compares with ``==``.  Numpy arrays/scalars are accepted on either
    side and treated as their list/scalar equivalents.  Returns an
    empty list when the payloads agree everywhere.
    """
    if isinstance(expected, np.ndarray):
        expected = expected.tolist()
    if isinstance(actual, np.ndarray):
        actual = actual.tolist()
    if isinstance(expected, np.generic):
        expected = expected.item()
    if isinstance(actual, np.generic):
        actual = actual.item()

    if isinstance(expected, dict) or isinstance(actual, dict):
        if not (isinstance(expected, dict) and isinstance(actual, dict)):
            other = actual if isinstance(expected, dict) else expected
            return [Mismatch(path, expected, actual,
                             f"type mismatch: dict vs {type(other).__name__}")]
        mismatches: list[Mismatch] = []
        for key in expected:
            child = f"{path}.{key}" if path else str(key)
            if key not in actual:
                mismatches.append(Mismatch(child, expected[key], _MISSING,
                                           "missing from actual"))
            else:
                mismatches.extend(
                    diff_values(expected[key], actual[key], tolerance, child)
                )
        for key in actual:
            if key not in expected:
                child = f"{path}.{key}" if path else str(key)
                mismatches.append(Mismatch(child, _MISSING, actual[key],
                                           "unexpected key in actual"))
        return mismatches

    if isinstance(expected, (list, tuple)) or isinstance(actual, (list, tuple)):
        if not (isinstance(expected, (list, tuple))
                and isinstance(actual, (list, tuple))):
            return [Mismatch(path, expected, actual, "type mismatch: "
                             "sequence vs scalar")]
        if len(expected) != len(actual):
            return [Mismatch(path, expected, actual,
                             f"length {len(expected)} != {len(actual)}")]
        mismatches = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            mismatches.extend(
                diff_values(e, a, tolerance, f"{path}[{index}]")
            )
        return mismatches

    if _is_number(expected) and _is_number(actual):
        if values_close(expected, actual, tolerance):
            return []
        return [Mismatch(path, expected, actual,
                         f"{expected!r} != {actual!r} "
                         f"(rtol={tolerance.rtol:g}, atol={tolerance.atol:g})")]

    if expected != actual:
        return [Mismatch(path, expected, actual,
                         f"{expected!r} != {actual!r}")]
    return []
