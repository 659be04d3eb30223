"""One hook table per machine: the single dispatch point for observers.

The paper's own mechanisms (the lockstep monitor, the syscall orderer,
the sync agents) always run.  Everything around them is optional and
purely observational: metrics (:class:`repro.obs.ObsHub`) and tracing
(its :class:`repro.obs.tracer.Tracer`), cycle profiling
(:class:`repro.prof.accounting.CycleProfiler`), per-variant syscall and
sync-op traces (:class:`repro.perf.timeline.VariantTraces`), race and
deadlock detection (:mod:`repro.races`) and the record/replay decision
stream (:mod:`repro.replay`).  Each of them is a *consumer* of one fixed event
vocabulary, :data:`EVENTS`, and they all attach the same way: ``obs``,
``races``, ``deadlocks`` and ``replay`` have their own
:class:`repro.core.mvee.MVEE` keyword, and any other consumer goes in
its ``consumers`` tuple (``run_native`` takes one too).  None of them
has a branch of its own in the step loop.

:meth:`Hooks.attach` compiles a consumer into the table once, at attach
time: every vocabulary method the consumer defines is appended to that
event's tuple of bound callbacks.  A fire site is therefore just::

    for hook in hooks.park:
        hook(variant, thread_global, thread, wait_key)

With no consumer attached the tuple is empty, so an event costs one
attribute load and an empty loop; a site that must compute arguments
first tests the tuple once.  Callbacks run in attach order, and
consumers never charge simulated cycles or draw scheduler randomness,
so any set of them leaves the simulated timeline byte-identical.

Fault injection is the one exception.  Its calls answer a question
("does a planned fault trigger here?") and return the answer, so they
cannot fan out.  The injector sits alone in :attr:`Hooks.faults`, which
is None (falsy) when no fault plan is attached.  What it, the race and
deadlock detectors, the checkpointer and the decision replayer *find*
is reported back through the table as ordinary events
(``fault_injected`` ... ``replay_diverged``), so an observer such as
the :class:`repro.obs.ObsHub` or its tracer hears about them the same
way it hears about a park.  The injector, the detectors and the
replayer reach the table through ``bind_machine``; the checkpointer
already holds its machine.
"""

from __future__ import annotations

#: The event vocabulary, with each callback's signature.
EVENTS = (
    # -- machine ---------------------------------------------------------
    "thread_created",       # (variant, thread_global, thread)
    "thread_finished",      # (variant, thread_global, thread)
    "step_committed",       # (variant, thread_global, thread, kind, duration)
    "sched_grant",          # (variant, thread)
    "park",                 # (variant, thread_global, thread, wait_key)
    "unpark",               # (variant, thread_global, thread)
    "sync_op",              # (vm, thread, event, value)
    "syscall",              # (vm, thread, event, result)
    "spawn",                # (parent, child)
    "join",                 # (joiner, target)
    "divergence",           # (report)
    # -- monitor and MVEE ------------------------------------------------
    "monitored_call",       # (variant, thread, name, call_class, seq)
    "rendezvous_arrive",    # (rdv_key, variant, thread)
    "rendezvous_complete",  # (rdv_key, variant, thread, matched)
    "clock_tick",           # (variant, thread, time)
    "clock_stall",          # (variant, thread, wait_key)
    "stream_publish",       # (variant, thread, index)
    "stream_wait",          # (variant, thread, index)
    "watchdog_timeout",     # (thread, seq, missing)
    "variant_quarantined",  # (variant, kind, thread, seq)
    "variant_restarted",    # (variant)
    "variant_caught_up",    # (variant)
    # -- sync agents -----------------------------------------------------
    "sync_record",          # (variant, thread, buffer, occupancy)
    "sync_replay",          # (variant, thread, buffer, occupancy)
    "sync_stall",           # (variant, thread, kind, buffer)
    "clock_lag",            # (variant, thread, clock_id, lag)
    # -- kernel futex table ----------------------------------------------
    "futex_park",           # (variant, addr, thread_global)
    "futex_unpark",         # (variant, addr, thread_global)
    "futex_wake",           # (variant, addr, waker, woken)
    # -- reports from the fault injector, detectors and replay -----------
    "fault_injected",       # (kind, variant, thread, site, detail)
    "race_detected",        # (race)
    "deadlock_detected",    # (record)
    "checkpoint_taken",     # (index, at_cycles, decisions)
    "replay_diverged",      # (step, index)
)


class Hooks:
    """Per-event tuples of bound callbacks, plus the fault injector."""

    __slots__ = EVENTS + ("faults",)

    def __init__(self):
        for event in EVENTS:
            setattr(self, event, ())
        #: The :class:`repro.faults.injector.FaultInjector`, or None.
        self.faults = None

    def attach(self, consumer) -> None:
        """Append each vocabulary method ``consumer`` defines."""
        for event in EVENTS:
            callback = getattr(consumer, event, None)
            if callable(callback):
                setattr(self, event, getattr(self, event) + (callback,))
