"""Seed-driven fault injection for trading simulations.

Real crowdsensing fleets are not the paper's happy path: sellers drop
out mid-round, return garbage readings, or report after the settlement
deadline.  A :class:`FaultModel` injects exactly those failures into a
run in a *reproducible* way — every round's faults are drawn from a
dedicated :class:`~repro.sim.rng.RngFactory` stream keyed by the round
index, so

* the same seed always yields the same fault schedule,
* fault draws never perturb the population / observation / policy
  streams (a zero-rate fault model is bit-identical to no fault model),
* a resumed run replays the identical schedule without having to replay
  earlier rounds (no sequential RNG state to restore).

Faults are assigned per seller per round with a single uniform draw
partitioned by rate: dropout takes precedence over corruption, which
takes precedence over stalling, and a seller suffers at most one fault
per round.

Stream layout
-------------
Round ``t``'s stream holds ``3M`` uniforms, one per seller in each of
three segments:

* ``[0, M)`` — the draw that decides dropout, corruption or stall;
* ``[M, 2M)`` — the corruption mode (NaN, negative or oversized);
* ``[2M, 3M)`` — the corruption magnitude.

Seller ``i``'s values sit at positions ``i``, ``M + i`` and ``2M + i``
whoever else is selected, which is what makes the faults common
random numbers across policies.  A plan reads only the positions it
uses: the selected sellers' uniforms, then the mode and magnitude of
the corrupted ones.  A small selection skips from one position to the
next (``PCG64.advance``; ``Generator.random()`` consumes exactly one
64-bit output), a large one draws whole segments and indexes them;
both read the same values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.log import FaultKind, FaultLog

if TYPE_CHECKING:  # avoid a runtime repro.sim <-> repro.faults cycle
    from repro.sim.rng import RngFactory

__all__ = ["FaultSpec", "RoundFaultPlan", "FaultModel", "parse_fault_spec"]

#: A selection of at most ``M / _SKIP_RATIO`` sellers is read by
#: skipping to each position; a larger one draws whole segments.  One
#: skip-and-read costs ~1.5 us and a drawn uniform ~3.8 ns (2-vCPU x86
#: VM, numpy 2.4), so at ``M / K = 200`` a K=10 or K=40 plan costs what
#: drawing all ``3M`` uniforms did (44 vs 47 us, 98 vs 102 us), and
#: from ``M / K`` of about 350 up it beats drawing whole segments too.
_SKIP_RATIO = 200


@dataclass(frozen=True)
class FaultSpec:
    """Per-round, per-seller fault probabilities.

    Attributes
    ----------
    dropout_rate:
        Probability a selected seller returns nothing at all.
    corruption_rate:
        Probability a seller's report is replaced with garbage (NaN,
        negative, or impossibly large values).
    stall_rate:
        Probability a seller's report arrives after settlement: it
        misses the round's revenue accounting but still reaches the
        quality learner.
    """

    dropout_rate: float = 0.0
    corruption_rate: float = 0.0
    stall_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "corruption_rate", "stall_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.dropout_rate + self.corruption_rate + self.stall_rate > 1.0:
            raise ConfigurationError(
                "fault rates must sum to at most 1 (each seller suffers at "
                "most one fault per round)"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault has positive probability."""
        return (self.dropout_rate > 0.0 or self.corruption_rate > 0.0
                or self.stall_rate > 0.0)

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form (checkpoint fingerprints)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Rebuild a spec serialised by :meth:`to_dict`."""
        try:
            return cls(
                dropout_rate=float(payload["dropout_rate"]),
                corruption_rate=float(payload["corruption_rate"]),
                stall_rate=float(payload["stall_rate"]),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"fault-spec dict is missing field {error.args[0]!r}"
            ) from error

    @classmethod
    def random(cls, rng: np.random.Generator) -> "FaultSpec":
        """A random mild spec drawn from ``rng`` (chaos drills).

        Rates are rounded to three decimals so the spec survives a
        JSON checkpoint-fingerprint round trip exactly, and kept mild
        (summing to well under 1) so every round still settles trades.
        """
        return cls(
            dropout_rate=round(float(rng.uniform(0.0, 0.2)), 3),
            corruption_rate=round(float(rng.uniform(0.0, 0.1)), 3),
            stall_rate=round(float(rng.uniform(0.0, 0.1)), 3),
        )


#: Aliases accepted by :func:`parse_fault_spec`.
_SPEC_KEYS = {
    "dropout": "dropout_rate",
    "drop": "dropout_rate",
    "corrupt": "corruption_rate",
    "corruption": "corruption_rate",
    "stall": "stall_rate",
}


def parse_fault_spec(text: str | None) -> FaultSpec | None:
    """Parse a CLI-style fault spec like ``"dropout=0.2,corrupt=0.05"``.

    Accepted keys: ``dropout``/``drop``, ``corrupt``/``corruption``,
    ``stall``.  ``None``, the empty string, ``"none"``, and ``"off"``
    all mean *no fault injection* and return ``None``.

    Raises
    ------
    ConfigurationError
        On unknown keys, malformed entries, or invalid rates.
    """
    if text is None:
        return None
    text = text.strip()
    if text == "" or text.lower() in ("none", "off"):
        return None
    rates: dict[str, float] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, raw = entry.partition("=")
        key = key.strip().lower()
        if not sep or key not in _SPEC_KEYS:
            known = ", ".join(sorted(set(_SPEC_KEYS)))
            raise ConfigurationError(
                f"bad fault-spec entry {entry!r}; expected key=rate with "
                f"key one of: {known}"
            )
        field = _SPEC_KEYS[key]
        if field in rates:
            raise ConfigurationError(f"duplicate fault-spec key {key!r}")
        try:
            rates[field] = float(raw)
        except ValueError as error:
            raise ConfigurationError(
                f"fault rate for {key!r} is not a number: {raw!r}"
            ) from error
    return FaultSpec(**rates)


@dataclass(frozen=True)
class RoundFaultPlan:
    """The faults injected into one round.

    All seller arrays hold population-level indices (not positions in
    the selected set) and are disjoint.

    Attributes
    ----------
    round_index:
        The round this plan applies to.
    dropped:
        Sellers that return no observation.
    corrupted:
        Sellers whose reports are replaced with garbage.
    corrupted_sums:
        The garbage per-seller observation sums, aligned with
        ``corrupted``.
    stalled:
        Sellers whose reports arrive after settlement.
    """

    round_index: int
    dropped: np.ndarray
    corrupted: np.ndarray
    corrupted_sums: np.ndarray
    stalled: np.ndarray

    @property
    def is_clean(self) -> bool:
        """Whether this round carries no fault at all."""
        return (self.dropped.size == 0 and self.corrupted.size == 0
                and self.stalled.size == 0)


class _FaultStream:
    """One round's fault stream, read forward at the positions a plan uses.

    ``read(segment, sellers)`` returns the ``segment``'s values of
    ``sellers`` (any order, repeats allowed), aligned with them; calls
    must come in increasing segment order.  With ``skip`` each distinct
    seller costs one ``advance`` and one ``random()``; without it the
    whole segment is drawn and indexed.  Both return the values a
    dense ``rng.random(3 * M)`` holds at those positions.
    """

    def __init__(self, rng: np.random.Generator, num_sellers: int,
                 skip: bool) -> None:
        self._rng = rng
        self._num_sellers = num_sellers
        self._skip = skip
        self._position = 0

    def read(self, segment: int, sellers: np.ndarray) -> np.ndarray:
        start = segment * self._num_sellers
        if not self._skip:
            if start > self._position:
                self._rng.bit_generator.advance(start - self._position)
            self._position = start + self._num_sellers
            return self._rng.random(self._num_sellers)[sellers]
        advance, draw = self._rng.bit_generator.advance, self._rng.random
        offsets = sellers.tolist()
        values = {}
        position = self._position
        for offset in sorted(set(offsets)):
            target = start + offset
            if target > position:
                advance(target - position)
            values[offset] = draw()
            position = target + 1
        self._position = position
        return np.array([values[offset] for offset in offsets], dtype=float)


class FaultModel:
    """Draws reproducible per-round fault plans for a population.

    Parameters
    ----------
    spec:
        The fault probabilities.
    factory:
        The simulation's RNG factory; fault draws use the dedicated
        ``("faults", round)`` streams, independent of every other
        stream the run consumes.
    num_sellers:
        Population size ``M`` — each round's stream holds a draw for
        *every* seller at a fixed position (see the module notes), so
        the schedule is identical across policies selecting different
        sets (common random faults), though a plan reads only the
        selected sellers' positions.
    """

    def __init__(self, spec: FaultSpec, factory: RngFactory,
                 num_sellers: int) -> None:
        if num_sellers <= 0:
            raise ConfigurationError(
                f"num_sellers must be positive, got {num_sellers}"
            )
        self._spec = spec
        self._factory = factory
        self._num_sellers = int(num_sellers)

    @property
    def spec(self) -> FaultSpec:
        """The fault probabilities this model injects."""
        return self._spec

    @property
    def num_sellers(self) -> int:
        """Population size the per-round draws cover."""
        return self._num_sellers

    def plan_round(self, round_index: int, selected: np.ndarray,
                   num_observations: int) -> RoundFaultPlan:
        """The fault plan of one round, restricted to the selected set.

        Parameters
        ----------
        round_index:
            0-based round number (keys the RNG stream).
        selected:
            Population indices of the sellers selected this round.
        num_observations:
            Observations per seller per round (``L``); corrupted sums
            are drawn out of the feasible ``[0, L]`` range (or NaN /
            negative) so validation can detect them.

        Raises
        ------
        ConfigurationError
            If a selected index falls outside the population.
        """
        selected = np.asarray(selected, dtype=int)
        if selected.size and (selected.min() < 0
                              or selected.max() >= self._num_sellers):
            raise ConfigurationError("selected seller index out of range")
        stream = _FaultStream(
            self._factory.generator("faults", int(round_index)),
            self._num_sellers,
            skip=selected.size * _SKIP_RATIO <= self._num_sellers,
        )

        d = self._spec.dropout_rate
        c = self._spec.corruption_rate
        s = self._spec.stall_rate
        u = stream.read(0, selected)
        dropped = selected[u < d]
        corrupted = selected[(u >= d) & (u < d + c)]
        stalled = selected[(u >= d + c) & (u < d + c + s)]

        # Three garbage flavours, all caught by the feasibility check
        # "finite and within [0, L]": NaN, negative, and larger than the
        # L-observation maximum.
        sums = np.empty(corrupted.size)
        if corrupted.size:
            mode = stream.read(1, corrupted)
            magnitude = stream.read(2, corrupted)
            sums[mode < 1.0 / 3.0] = np.nan
            negative = (mode >= 1.0 / 3.0) & (mode < 2.0 / 3.0)
            sums[negative] = -1.0 - 4.0 * magnitude[negative]
            oversized = mode >= 2.0 / 3.0
            sums[oversized] = num_observations * (
                1.5 + 8.5 * magnitude[oversized])

        return RoundFaultPlan(
            round_index=int(round_index),
            dropped=dropped,
            corrupted=corrupted,
            corrupted_sums=sums,
            stalled=stalled,
        )

    def log_plan(self, plan: RoundFaultPlan, log: FaultLog | None,
                 tracer=None) -> None:
        """Record a plan's injected events (helper shared by runners).

        The log takes each fault kind in one :meth:`FaultLog.record_many`
        call, the same events as one ``record`` per seller.  ``tracer``
        may be a :class:`repro.obs.Tracer`; each injected failure is
        then also emitted as a structured ``fault`` trace event (kind
        value, seller, corrupted value where applicable).
        """
        if log is not None:
            t = plan.round_index
            log.record_many(t, FaultKind.DROPOUT, plan.dropped)
            log.record_many(t, FaultKind.CORRUPTION, plan.corrupted,
                            plan.corrupted_sums)
            log.record_many(t, FaultKind.STALL, plan.stalled)
        if tracer is None or not tracer.enabled:
            return
        for seller in plan.dropped:
            tracer.emit("fault", round_index=plan.round_index,
                        fault=FaultKind.DROPOUT.value, seller=int(seller))
        for seller, value in zip(plan.corrupted, plan.corrupted_sums):
            tracer.emit("fault", round_index=plan.round_index,
                        fault=FaultKind.CORRUPTION.value,
                        seller=int(seller), value=float(value))
        for seller in plan.stalled:
            tracer.emit("fault", round_index=plan.round_index,
                        fault=FaultKind.STALL.value, seller=int(seller))
