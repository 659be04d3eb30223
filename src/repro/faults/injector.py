"""The fault-injection runtime.

One :class:`FaultInjector` is attached per MVEE run (never for native
runs), in the ``faults`` slot of the machine's hook table
(:mod:`repro.sched.hooks`).  It is not fanned out like the observers,
because each check returns an answer; when disabled the slot is None
and a site pays one falsy test.  Each check is keyed to a deterministic
logical counter, so a fixed plan and machine seed reproduce the same
faults at the same simulated cycles.

The injector never *acts* on the simulation itself; it only answers
"does a planned fault trigger here?" and records what fired.  The
machine, buffers, futex table, and syscall orderer apply the effect at
their own hook sites, and the monitor's resilience machinery
(:mod:`repro.core.monitor`) deals with the fallout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan, FaultSpec


@dataclass
class InjectedFault:
    """One fault that actually fired, with its injection context."""

    spec: FaultSpec
    at_cycles: float
    variant: int
    thread: str
    site: str
    detail: str

    @property
    def kind(self) -> str:
        return self.spec.kind

    def to_dict(self) -> dict:
        return {
            "kind": self.spec.kind,
            "variant": self.variant,
            "thread": self.thread,
            "site": self.site,
            "at": self.spec.at,
            "param": self.spec.param,
            "at_cycles": self.at_cycles,
            "detail": self.detail,
        }


class FaultInjector:
    """Runtime dispatch from hook sites to pending :class:`FaultSpec`s.

    Pending specs are indexed by ``(kind, variant)`` and consumed in
    trigger order; a spec fires at most once.  Trigger comparisons use
    ``>=`` so a spec whose exact index was skipped (e.g. a
    thread-restricted spec) still fires at the first later opportunity,
    while a spec beyond the workload's horizon simply never fires.
    """

    def __init__(self, plan):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self.plan = plan
        self.injected: list[InjectedFault] = []
        self._hooks = None
        self._clock = lambda: 0.0
        #: (kind, variant) -> pending specs sorted by trigger index.
        self._pending: dict[tuple[str, int], list[FaultSpec]] = {}
        for spec in plan:
            self._pending.setdefault((spec.kind, spec.variant),
                                     []).append(spec)
        for queue in self._pending.values():
            queue.sort(key=lambda spec: spec.at)
        #: Global count of sync-buffer records produced (all buffers).
        self._produced = 0
        #: variant -> futex wake operations (with waiters) executed.
        self._wakes: dict[int, int] = {}
        #: variant -> ordered-syscall completions (slave replay clock).
        self._order_finishes: dict[int, int] = {}

    def bind_clock(self, clock) -> None:
        """Attach the machine's simulated clock (``lambda: machine.now``)."""
        self._clock = clock

    def bind_machine(self, machine) -> None:
        """Report each injected fault on the machine's hook table."""
        self._hooks = machine.hooks

    # -- hook entry points ---------------------------------------------------

    def check_syscall(self, variant: int, thread: str, name: str,
                      completed: int) -> FaultSpec | None:
        """Crash/stall check when a variant is about to issue a
        monitored syscall, having ``completed`` monitored calls so far."""
        for kind in ("crash", "stall"):
            queue = self._pending.get((kind, variant))
            if not queue:
                continue
            spec = queue[0]
            if completed < spec.at:
                continue
            if spec.thread is not None and spec.thread != thread:
                continue
            queue.pop(0)
            self._record(spec, variant, thread, site=name,
                         detail=f"{kind} entering {name!r} after "
                                f"{completed} monitored calls")
            return spec
        return None

    def on_sync_produce(self, record) -> None:
        """Corruption check for the n-th record appended to *any* shared
        sync buffer; mutates ``record`` in place when a spec fires."""
        index = self._produced
        self._produced += 1
        queue = self._pending.get(("corrupt_sync", 0))
        if not queue or index < queue[0].at:
            return
        spec = queue.pop(0)
        if isinstance(record.payload, tuple) and len(record.payload) == 2:
            # WoC record: inflate the recorded clock time so replicas
            # gate on a timestamp their local wall may never reach.
            clock_id, time = record.payload
            record.payload = (clock_id, time + spec.param)
            detail = (f"sync record #{index}: clock time {time} -> "
                      f"{time + spec.param}")
        else:
            # Order-based record: clobber the producer-thread field so
            # replay attributes the op to a thread that does not exist.
            original = record.thread
            record.thread = f"{original}?corrupt"
            detail = (f"sync record #{index}: thread {original!r} "
                      "clobbered")
        self._record(spec, 0, record.thread, site=record.site,
                     detail=detail)

    def check_drop_wake(self, variant: int, addr: int) -> int:
        """How many wakeups to suppress at this futex wake (0 = none).

        Counts only wake operations that found waiters, so a dropped
        wake is always a *lost* wake."""
        count = self._wakes.get(variant, 0)
        self._wakes[variant] = count + 1
        queue = self._pending.get(("drop_wake", variant))
        if not queue or count < queue[0].at:
            return 0
        spec = queue.pop(0)
        self._record(spec, variant, thread="", site=f"futex@{addr:#x}",
                     detail=f"wake op #{count} on {addr:#x}: dropped "
                            f"{spec.param} wakeup(s)")
        return max(spec.param, 0)

    def check_clock_skew(self, variant: int) -> int:
        """Skew to add to a slave's replay clock at this ordered finish."""
        count = self._order_finishes.get(variant, 0)
        self._order_finishes[variant] = count + 1
        queue = self._pending.get(("clock_skew", variant))
        if not queue or count < queue[0].at:
            return 0
        spec = queue.pop(0)
        self._record(spec, variant, thread="", site="order_clock",
                     detail=f"ordered finish #{count}: replay clock "
                            f"skewed by +{spec.param}")
        return spec.param

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, spec: FaultSpec, variant: int, thread: str,
                site: str, detail: str) -> None:
        event = InjectedFault(spec=spec, at_cycles=self._clock(),
                              variant=variant, thread=thread, site=site,
                              detail=detail)
        self.injected.append(event)
        for hook in self._hooks.fault_injected if self._hooks else ():
            hook(spec.kind, variant, thread, site, detail)
