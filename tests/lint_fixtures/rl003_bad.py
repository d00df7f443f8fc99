"""RL103 fixture: literal emit kinds missing from EVENT_KINDS (6 findings)."""


def trace_round(tracer, index):
    tracer.emit("round_strat", round_index=index)  # typo for round_start


def trace_recovery(tracer):
    tracer.emit("watchdog_killed", worker=0)  # typo for watchdog_kill


def trace_runtime(tracer):
    tracer.emit("agent_spawned", agent="seller-3")  # typo for agent_spawn


class Recorder:
    opened = TRACER.emit("recorder_open")  # class body runs at import


def trace_default(tracer, marker=TRACER.emit("marker_set")):
    return marker


@register(TRACER.emit("hook_added"))
def trace_hook(tracer):
    return tracer
