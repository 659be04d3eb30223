"""Guest thread contexts.

Threads are identified by *logical ids* that are stable across variants:
the main thread is ``"main"`` and the k-th thread spawned by thread P is
``"P/k"``.  Because spawning follows each parent's program order (which is
deterministic in the data-race-free programs the paper targets), the same
logical id denotes the same logical thread in every variant — this is how
the monitor pairs "equivalent threads" (Section 4: each monitor thread
monitors one set of equivalent variant threads) and how per-master-thread
sync buffers are matched to slave threads (Section 4.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Generator


class ThreadState(enum.Enum):
    READY = "ready"        # runnable, waiting for a core
    RUNNING = "running"    # occupying a core, step in flight
    BLOCKED = "blocked"    # parked on a wait key
    DONE = "done"          # generator finished
    KILLED = "killed"      # terminated by the monitor


@dataclass
class ThreadStats:
    """Per-thread accounting used by the performance reports."""

    busy_cycles: float = 0.0
    stall_cycles: float = 0.0
    queue_cycles: float = 0.0
    syscalls: int = 0
    sync_ops: int = 0
    compute_events: int = 0
    #: Deterministic logical progress (unjittered; scaled by the variant's
    #: instruction_factor).  This is the "executed instructions" counter
    #: performance-counter DMT systems schedule on (Section 2.1) — and
    #: exactly what software diversity perturbs.
    logical_instructions: float = 0.0


class GuestThread:
    """One guest thread: a generator plus scheduling state."""

    __slots__ = (
        "vm", "logical_id", "gen", "state", "inbox", "park_key",
        "park_resume", "result", "stats", "child_count", "global_id",
        "burst_cycles", "burst_quantum", "ready_since", "park_time",
        "pending_event", "_step_extra", "alive", "sync_agent",
    )

    def __init__(self, vm, logical_id: str,
                 gen: Generator):
        self.vm = vm
        self.logical_id = logical_id
        #: Globally unique id: "v0:main/1".  Used for futex waiter lists
        #: and wait keys.
        self.global_id = f"v{vm.index}:{logical_id}"
        self.gen = gen
        self.state = ThreadState.READY
        #: False once the thread is DONE or KILLED.  A plain attribute
        #: because the step loop reads it on every event; states change
        #: to DONE/KILLED only through :meth:`terminate`, which keeps it
        #: in step.
        self.alive = True
        #: Value sent into the generator at the next resume.
        self.inbox: Any = None
        self.park_key: tuple | None = None
        #: How to resume after a wake: ("retry_syscall", ev) /
        #: ("deliver", value) / ("recheck_syncop", ev) /
        #: ("reask_syscall", ev).
        self.park_resume: tuple | None = None
        self.result: Any = None
        self.stats = ThreadStats()
        self.child_count = 0
        #: Cycles run since this thread was last granted a core (for
        #: quantum-based preemption).
        self.burst_cycles = 0.0
        self.burst_quantum = float("inf")
        self.ready_since = 0.0
        self.park_time = 0.0
        #: The event currently being processed (between resume and commit).
        self.pending_event = None
        #: Extra cycles carried into the next step (monitor/agent costs).
        self._step_extra = 0.0
        #: The agent the pending sync op calls, or None when it is not
        #: instrumented: decided once when the op begins, read again at
        #: every commit attempt.
        self.sync_agent = None

    # -- lifecycle ------------------------------------------------------------

    def next_child_id(self) -> str:
        """Logical id for this thread's next spawned child."""
        self.child_count += 1
        return f"{self.logical_id}/{self.child_count}"

    def carry_cost(self, cycles: float) -> None:
        """Charge ``cycles`` of overhead to this thread's next step."""
        self._step_extra += cycles

    def take_carried_cost(self) -> float:
        """Consume the accumulated carried cost."""
        extra, self._step_extra = self._step_extra, 0.0
        return extra

    def terminate(self, state: ThreadState) -> None:
        """Move to ``DONE`` or ``KILLED``: the thread stops being alive."""
        self.state = state
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GuestThread {self.global_id} {self.state.value}>"
