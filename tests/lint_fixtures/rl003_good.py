"""RL103 fixture: registered literal kinds and dynamic kinds (clean)."""


def trace_round(tracer, index, kind):
    tracer.emit("round_start", round_index=index)
    tracer.emit("round_end", round_index=index)
    tracer.emit(kind, round_index=index)  # dynamic kinds are not checked


def trace_recovery(tracer, index):
    # The resilience-layer kinds are registered in EVENT_KINDS too.
    tracer.emit("retry_attempt", op="engine.checkpoint_write", attempt=1)
    tracer.emit("watchdog_kill", worker=0, reason="heartbeat_lost")
    tracer.emit("task_deadline_exceeded", worker=0, task=3)
    tracer.emit("checkpoint_quarantined", path="ck.npz")
    tracer.emit("graceful_shutdown", round_index=index)


def trace_runtime(tracer, index):
    # The event-runtime lifecycle kinds are registered as well.
    tracer.emit("agent_spawn", agent="seller-3", kind="seller", slot=3)
    tracer.emit("message_delivered", topic="collect", time=float(index))
    tracer.emit("session_open", session=7, slot=3)
    tracer.emit("session_close", session=7, slot=3, rounds_online=12)
    tracer.emit("agent_depart", agent="seller-3", kind="seller", slot=3)
