"""Outside-in layer tracing for the benchmark.

The benchmark attributes time to the stages of a trading round without
touching ``src/``: :func:`install` wraps each layer's public functions
from the outside and records one span per call into a :class:`Recorder`.

A target is named ``"module:function"`` or ``"module:Class.method"``.
Wrappers replace a target *by identity*:

* a function is replaced in every loaded ``repro`` module that binds
  the same object, under whatever name it was imported (so a helper
  re-exported or aliased elsewhere is still caught);
* a method is replaced in its defining class and in every subclass
  that overrides it.

Span rules:

* a call nested inside an open span of the same layer is part of that
  span and records nothing of its own;
* a span's self time is its duration minus the time its child spans
  cover; the ``harness`` layer is whatever wall time no layer claims.

Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import pkgutil
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

#: ``(layer, target)`` pairs: the stages of one trading round, then the
#: engine, fault, persistence and runtime layers around them.
TARGETS: tuple[tuple[str, str], ...] = (
    ("bandits", "repro.bandits.base:SelectionPolicy.select"),
    ("bandits", "repro.core.state:LearningState.ucb_values"),
    ("bandits", "repro.core.selection:top_k_indices"),
    ("incentive", "repro.core.incentive:solve_round_fast"),
    ("quality", "repro.quality.sampler:QualitySampler.sample_round"),
    ("state", "repro.core.state:LearningState.update"),
    ("state", "repro.bandits.base:SelectionPolicy.observe"),
    ("regret", "repro.core.regret:RegretTracker.record"),
    ("regret", "repro.sim.rounds:estimation_error_scalar"),
    ("regret", "repro.kernels.selection:estimation_error"),
    ("rounds", "repro.sim.rounds:play_clean_round"),
    ("rounds", "repro.sim.rounds:play_degraded_round"),
    ("engine", "repro.sim.engine:TradingSimulator.run"),
    ("faults", "repro.faults.model:FaultModel.plan_round"),
    ("faults", "repro.faults.model:FaultModel.log_plan"),
    ("persistence", "repro.sim.persistence:save_checkpoint"),
    ("persistence", "repro.sim.persistence:load_checkpoint"),
    ("runtime", "repro.runtime.kernel:EventKernel.run"),
    ("runtime", "repro.runtime.loadgen:replay_script"),
    ("runtime", "repro.runtime.service:MarketService.register"),
    ("runtime", "repro.runtime.service:MarketService.quote"),
    ("runtime", "repro.runtime.service:MarketService.trade"),
    ("runtime", "repro.runtime.service:MarketService.close"),
)

#: Layers in report order; ``harness`` is the residual and has no target.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in TARGETS))

#: The checkpoint writer: its spans also record the bytes each write left.
WRITE_TARGET = "repro.sim.persistence:save_checkpoint"

#: The checkpoint reader.
READ_TARGET = "repro.sim.persistence:load_checkpoint"


class TargetError(LookupError):
    """A traced target no longer exists where the target table says."""


class Recorder:
    """Collects spans while active; computes self time as spans close.

    Parameters
    ----------
    layers:
        Layer names, in report order.
    clock:
        Monotonic clock in seconds (a test substitutes a fake).
    """

    def __init__(self, layers: tuple[str, ...] = LAYERS,
                 clock: Callable[[], float] = perf_counter) -> None:
        self.layers = layers
        self.clock = clock
        self.active = False
        #: Round or request id stamped on spans opened from now on.
        self.op: int = -1
        #: ``(layer, target, start, end, parent, op)``; ``parent`` is the
        #: index of the enclosing span, ``-1`` at top level.
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s = [0.0] * len(layers)
        self.calls = [0] * len(layers)
        #: ``target -> [calls, total seconds]`` over recorded spans.
        self.by_target: dict[str, list[float]] = {}
        self.bytes_written = 0
        self._open: list[list] = []  # [span index, seconds its children cover]
        self._depth = [0] * len(layers)

    def mark(self, op: int) -> None:
        """Stamp the spans that follow with round or request ``op``."""
        self.op = op

    def call(self, layer: int, target: str, fn: Callable, args: tuple,
             kwargs: dict) -> object:
        """Run ``fn`` inside a span of ``layer`` (or inside the open one)."""
        if not self.active or self._depth[layer]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((layer, target, 0.0, 0.0, parent, self.op))
        frame = [index, 0.0]
        self._open.append(frame)
        self._depth[layer] += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._depth[layer] -= 1
            self._open.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            if self._open:
                self._open[-1][1] += duration
            stats = self.by_target.setdefault(target, [0, 0.0])
            stats[0] += 1
            stats[1] += duration
            if target == WRITE_TARGET:
                path = args[0] if args else kwargs["path"]
                self.bytes_written += os.path.getsize(path)
            self.spans[index] = (layer, target, start, end, parent, self.op)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer."""
        return dict(zip(self.layers, self.self_s))

    def layer_calls(self) -> dict[str, int]:
        """Recorded spans per layer."""
        return dict(zip(self.layers, self.calls))

    def write(self, path: str | os.PathLike) -> None:
        """Write every span as one gzipped JSON line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, (layer, target, start, end, parent, op) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "layer": self.layers[layer], "name": target,
                    "start": start, "end": end, "parent": parent, "op": op,
                }) + "\n")


def _resolve(target: str) -> tuple[object, str, object]:
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as error:
        raise TargetError(f"traced target {target!r} not found: {error}") from None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TargetError(f"traced target {target!r} not found")
    if attribute not in vars(owner):
        raise TargetError(f"traced target {target!r} not found")
    return owner, attribute, vars(owner)[attribute]


def _subclasses(cls: type) -> Iterator[type]:
    """``cls`` and every subclass, each once."""
    seen: set[type] = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.add(current)
            yield current
            pending.extend(current.__subclasses__())


def _repro_modules() -> list[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def import_all() -> None:
    """Import every ``repro`` module, so every binding and subclass exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


@contextmanager
def installed(recorder: Recorder,
              targets: tuple[tuple[str, str], ...]) -> Iterator[Recorder]:
    """Wrap every ``(layer, target)`` for the duration of the block.

    Raises :class:`TargetError` naming the first target that cannot be
    found, before anything is wrapped.
    """
    import_all()
    resolved = [(recorder.layers.index(layer), target, *_resolve(target))
                for layer, target in targets]
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, target, owner, attribute, original in resolved:
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    if attribute in vars(cls):
                        method = vars(cls)[attribute]
                        undo.append((cls, attribute, method))
                        setattr(cls, attribute,
                                _wrap(recorder, layer, target, method))
            else:
                wrapper = _wrap(recorder, layer, target, original)
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, name, value))
                            setattr(module, name, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def _wrap(recorder: Recorder, layer: int, target: str,
          fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> object:
        return recorder.call(layer, target, fn, args, kwargs)

    return wrapper
