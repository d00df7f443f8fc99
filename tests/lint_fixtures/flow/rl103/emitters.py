"""RL103 fixture: literal kinds at every ``emit`` and ``TraceEvent``.

Clean as committed: every literal kind is a member of ``EVENT_KINDS``,
and every declared kind is emitted somewhere.  The meta-tests route a
kind through a forwarding wrapper (which hides it from the census, so
the wrapper is flagged and the kind goes dead), misspell a literal, add
a kind nobody emits (dead kind), and add a replay that re-emits a
recorded ``event.kind`` (clean: the kind is not a parameter).
"""
# repro-lint: package=repro.sim.emitters
from repro.obs.events import TraceEvent


def run_round(tracer):
    tracer.emit("round_start")
    tracer.emit("round_end")
    return TraceEvent("trade_settled")
