"""Structured record of every fault-related event in a run.

A :class:`FaultLog` is the audit trail of a fault-injected simulation:
each injected failure (dropout, corruption, stall), each platform-side
reaction (quarantine, degraded game re-solve, no-trade fallback) is
appended as one event and read back as a :class:`FaultEvent`.  The log
is append-only during a run and serialisable to plain arrays so
checkpoints can carry it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["FaultKind", "FaultEvent", "FaultLog"]


class FaultKind(str, Enum):
    """Every event category a :class:`FaultLog` can record.

    Injected failures:

    * ``DROPOUT`` — a selected seller returned no observation at all;
    * ``CORRUPTION`` — a seller's report was replaced with garbage
      (NaN, negative, or out-of-range values);
    * ``STALL`` — a seller responded after the settlement deadline, so
      its data missed revenue accounting but still reached the learner.

    Platform reactions:

    * ``QUARANTINE`` — the platform's validation detected an invalid
      report and excluded it from the quality-learning update;
    * ``DEGRADED`` — the round's Stackelberg game was re-solved on a
      survivor set smaller than the selected set;
    * ``NO_TRADE`` — every selected seller failed, so the round settled
      with no trade at all (the documented empty-set fallback).
    """

    DROPOUT = "dropout"
    CORRUPTION = "corruption"
    STALL = "stall"
    QUARANTINE = "quarantine"
    DEGRADED = "degraded"
    NO_TRADE = "no_trade"


#: Stable integer codes used when a log round-trips through an NPZ
#: checkpoint (insertion order of :class:`FaultKind` is the code).
_KIND_CODES = {kind: code for code, kind in enumerate(FaultKind)}
_CODE_KINDS = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One fault-related event.

    Attributes
    ----------
    round_index:
        0-based round the event happened in.
    kind:
        The event category.
    seller:
        The affected seller index, or ``-1`` for round-level events
        (``DEGRADED``, ``NO_TRADE``).
    value:
        Free-slot detail: the corrupted report value for ``CORRUPTION``
        / ``QUARANTINE`` events, the survivor count for ``DEGRADED``,
        ``0.0`` otherwise.
    """

    round_index: int
    kind: FaultKind
    seller: int = -1
    value: float = 0.0


class FaultLog:
    """Append-only, serialisable log of fault events.

    Stored as four aligned typed buffers — rounds, kind codes and
    sellers as ``array('q')``, values as ``array('d')`` — so recording
    one event is four appends, recording a batch of sellers
    (:meth:`record_many`) is four bulk extends, and serialising for a
    checkpoint is four buffer copies; :class:`FaultEvent` objects are
    built only when a query asks for them.
    """

    def __init__(self) -> None:
        self._rounds = array("q")
        self._codes = array("q")
        self._sellers = array("q")
        self._values = array("d")

    # -- recording -----------------------------------------------------------------

    def record(self, round_index: int, kind: FaultKind, seller: int = -1,
               value: float = 0.0) -> None:
        """Append one event."""
        # Convert everything before appending, so a bad argument cannot
        # leave the columns misaligned.
        round_index, code = int(round_index), _KIND_CODES[FaultKind(kind)]
        seller, value = int(seller), float(value)
        array("q", (round_index, seller))  # raises on a 64-bit overflow
        self._rounds.append(round_index)
        self._codes.append(code)
        self._sellers.append(seller)
        self._values.append(value)

    def record_many(self, round_index: int, kind: FaultKind,
                    sellers: np.ndarray,
                    values: np.ndarray | None = None) -> None:
        """Append one event of ``kind`` per seller, in order.

        The same events as one :meth:`record` per seller; ``values``
        (aligned with ``sellers``) defaults to ``0.0`` each.
        """
        code = _KIND_CODES[FaultKind(kind)]
        sellers = np.asarray(sellers, dtype=np.int64)
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
        if sellers.ndim != 1 or (values is not None
                                 and values.shape != sellers.shape):
            raise ConfigurationError(
                "sellers and values must be 1-D and aligned"
            )
        size = sellers.size
        if size == 0:
            return
        # Only the round can still fail (a 64-bit overflow): build its
        # column before extending any, so the columns stay aligned.
        rounds = array("q", (int(round_index),)) * size
        self._rounds.extend(rounds)
        self._codes.extend(array("q", (code,)) * size)
        self._sellers.frombytes(sellers.tobytes())
        if values is None:
            self._values.extend(array("d", (0.0,)) * size)
        else:
            self._values.frombytes(values.tobytes())

    # -- queries -------------------------------------------------------------------

    def _event(self, i: int) -> FaultEvent:
        return FaultEvent(self._rounds[i], _CODE_KINDS[self._codes[i]],
                          self._sellers[i], self._values[i])

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """All events in insertion (chronological) order."""
        return tuple(map(self._event, range(len(self._rounds))))

    def __len__(self) -> int:
        return len(self._rounds)

    def count(self, kind: FaultKind) -> int:
        """Number of events of one kind."""
        return self._codes.count(_KIND_CODES[FaultKind(kind)])

    def events_in_round(self, round_index: int) -> list[FaultEvent]:
        """Every event of one round, in order."""
        return [self._event(i) for i, r in enumerate(self._rounds)
                if r == round_index]

    def sellers_hit(self, kind: FaultKind,
                    round_index: int | None = None) -> list[int]:
        """Seller indices affected by one kind (optionally one round)."""
        code = _KIND_CODES[FaultKind(kind)]
        return [
            seller for c, r, seller in zip(self._codes, self._rounds,
                                           self._sellers)
            if c == code and (round_index is None or r == round_index)
        ]

    def summary(self) -> dict[str, int]:
        """Event counts keyed by kind value (only non-zero kinds)."""
        return {_CODE_KINDS[code].value: n
                for code, n in Counter(self._codes).items()}

    # -- (de)serialisation, for checkpoints ------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The log as four aligned plain arrays (checkpoint payload)."""
        return {
            "rounds": np.array(self._rounds, dtype=np.int64),
            "kinds": np.array(self._codes, dtype=np.int64),
            "sellers": np.array(self._sellers, dtype=np.int64),
            "values": np.array(self._values, dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "FaultLog":
        """Rebuild a log serialised by :meth:`to_arrays`."""
        try:
            rounds = np.asarray(arrays["rounds"], dtype=np.int64)
            kinds = np.asarray(arrays["kinds"], dtype=np.int64)
            sellers = np.asarray(arrays["sellers"], dtype=np.int64)
            values = np.asarray(arrays["values"], dtype=float)
        except KeyError as error:
            raise ConfigurationError(
                f"fault-log arrays are missing field {error.args[0]!r}"
            ) from error
        if not (rounds.ndim == kinds.ndim == sellers.ndim == values.ndim == 1
                and rounds.size == kinds.size == sellers.size
                == values.size):
            raise ConfigurationError("fault-log arrays are misaligned")
        unknown = (kinds < 0) | (kinds >= len(_CODE_KINDS))
        if unknown.any():
            raise ConfigurationError(
                f"unknown fault-kind code {int(kinds[unknown][0])}"
            )
        log = cls()
        log._rounds.frombytes(rounds.tobytes())
        log._codes.frombytes(kinds.tobytes())
        log._sellers.frombytes(sellers.tobytes())
        log._values.frombytes(values.tobytes())
        return log

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace this log's contents with serialised events (resume)."""
        restored = FaultLog.from_arrays(arrays)
        self._rounds, self._codes = restored._rounds, restored._codes
        self._sellers, self._values = restored._sellers, restored._values

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"FaultLog({self.summary()!r})"
