"""Cross-thread system-call ordering via Lamport clocks (Section 4.1).

Per-thread lockstep alone does not order *different* threads' syscalls
against each other, yet calls operating on shared kernel resources (FD
allocation, brk, mmap) have order-dependent results (Section 3.1).  ReMon
solves this with a logical clock per monitor:

* When the **master** executes an ordered call, its monitor enters a
  critical section, records the current syscall-ordering-clock time with
  the call, executes, and leaves the critical section (incrementing the
  clock).
* A **slave** about to execute its thread's k-th ordered call looks up the
  timestamp the master recorded for that same logical call and spins until
  its own variant's clock reaches it; executing the call then advances the
  slave clock.

Blocking calls are excluded by construction (they never carry the
``ordered`` spec flag) because the monitor could not guarantee the
critical section is ever exited (Section 4.1, "Limitations").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sched.hooks import Hooks
from repro.sched.interceptor import Proceed, Wait


@dataclass
class _OrderState:
    """Mutable ordering state for one variant set."""

    #: Master's ordered-call log: logical thread id per position; the
    #: position *is* the Lamport timestamp.
    master_log: list[str] = field(default_factory=list)
    #: thread -> positions of that thread's ordered calls in master_log.
    thread_positions: dict[str, list[int]] = field(default_factory=dict)
    #: Whether a master thread currently holds the ordering critical section.
    master_cs_holder: str | None = None
    #: Per-slave-variant Lamport clock (next expected timestamp).
    slave_clock: dict[int, int] = field(default_factory=dict)
    #: Per (variant, thread) count of *completed* ordered calls.
    ordered_count: dict[tuple[int, str], int] = field(default_factory=dict)


class SyscallOrderer:
    """Implements the ordering protocol for one variant set."""

    def __init__(self, n_variants: int, wake):
        self.n_variants = n_variants
        self._wake = wake
        self._state = _OrderState(
            slave_clock={v: 0 for v in range(1, n_variants)})
        #: The machine's hook table; an attached fault injector's
        #: ``clock_skew`` fault silently advances one slave's replay
        #: clock (see repro.faults).
        self.hooks = Hooks()

    def bind_machine(self, machine) -> None:
        """Install the wake callback and the hook table."""
        self._wake = machine.wake_key
        self.hooks = machine.hooks

    # -- entry check (called from monitor.before_syscall) -------------------

    def check(self, variant: int, thread_logical: str, thread_global: str):
        """May this variant's thread execute its next ordered call now?"""
        state = self._state
        if variant == 0:
            if (state.master_cs_holder is not None
                    and state.master_cs_holder != thread_global):
                return Wait(("order_cs",))
            state.master_cs_holder = thread_global
            return Proceed()
        count = state.ordered_count.get((variant, thread_logical), 0)
        positions = state.thread_positions.get(thread_logical)
        if positions is None or count >= len(positions):
            # The master has not recorded this logical call yet.
            return Wait(("order_log", variant))
        timestamp = positions[count]
        if state.slave_clock[variant] != timestamp:
            return Wait(("order_clock", variant))
        return Proceed()

    # -- completion (called from monitor.after_syscall) ------------------------

    def finish(self, variant: int, thread_logical: str,
               thread_global: str) -> int:
        """The ordered call returned; record/advance and wake waiters.

        Returns the Lamport timestamp the call was sequenced at (the
        master's log position, or the slave clock value just consumed).
        """
        state = self._state
        if variant == 0:
            timestamp = len(state.master_log)
            state.master_log.append(thread_logical)
            state.thread_positions.setdefault(thread_logical,
                                              []).append(timestamp)
            state.master_cs_holder = None
            self._wake(("order_cs",))
            for slave in range(1, self.n_variants):
                self._wake(("order_log", slave))
        else:
            faults = self.hooks.faults
            if faults:
                state.slave_clock[variant] += faults.check_clock_skew(
                    variant)
            timestamp = state.slave_clock[variant]
            state.slave_clock[variant] += 1
            self._wake(("order_clock", variant))
        key = (variant, thread_logical)
        state.ordered_count[key] = state.ordered_count.get(key, 0) + 1
        return timestamp

    # -- restart support -----------------------------------------------------------

    def reset_variant(self, variant: int) -> None:
        """Rewind one slave's replay state so a restarted variant
        re-sequences the master's retained log from the beginning."""
        state = self._state
        if variant == 0:  # pragma: no cover - master is never restarted
            return
        state.slave_clock[variant] = 0
        for key in [k for k in state.ordered_count if k[0] == variant]:
            del state.ordered_count[key]

    # -- introspection -------------------------------------------------------------

    @property
    def master_log(self) -> list[str]:
        return list(self._state.master_log)
