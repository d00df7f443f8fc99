"""RL103 fixture: kinds reach ``Tracer.emit`` only through wrappers.

Clean as committed: every literal forwarded through ``forward`` (and
every ``TraceEvent`` construction) is a member of ``EVENT_KINDS``, and
every declared kind is produced by some call chain.  The meta-tests
mutate a forwarded literal to a typo (invalid kind through a wrapper —
invisible to a check of literal ``emit`` calls alone) and add a kind
nobody emits (dead kind).
"""
# repro-lint: package=repro.sim.emitters
from repro.obs.events import TraceEvent


def forward(tracer, kind):
    """Wrapper a literal-``emit`` check cannot see through."""
    tracer.emit(kind)


def run_round(tracer):
    forward(tracer, "round_start")
    forward(tracer, "round_end")
    return TraceEvent("trade_settled")
