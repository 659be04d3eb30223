"""Futex wait queues for one variant.

``sys_futex`` is the one blocking call the paper's syscall-ordering
mechanism must exempt (Section 4.1, footnote 5): the monitor cannot hold a
blocking call inside the ordering critical section because it may never
return.  ReMon therefore treats futex like an I/O operation.  Our monitor
does the same; the futex implementation itself is entirely per-variant.

The simulator (not this class) parks and wakes the actual threads; this
class only tracks, per futex word address, which thread identifiers are
waiting.
"""

from __future__ import annotations

from repro.sched.hooks import Hooks


class FutexTable:
    """Per-variant map from futex word address to waiting thread ids."""

    def __init__(self, variant: int = 0):
        self._waiters: dict[int, list[str]] = {}
        #: Index of the variant whose kernel owns this table.
        self.variant = variant
        #: The machine's hook table (:mod:`repro.sched.hooks`), installed
        #: when the variant is added to a machine.  Parks and wakes fire
        #: ``futex_*`` events; a planned ``drop_wake`` fault can suppress
        #: wakeups (the waiters stay queued: a lost wake).
        self.hooks = Hooks()

    def add_waiter(self, addr: int, thread_id: str) -> None:
        """Register ``thread_id`` as blocked on the futex word ``addr``."""
        self._waiters.setdefault(addr, []).append(thread_id)
        for hook in self.hooks.futex_park:
            hook(self.variant, addr, thread_id)

    def remove_waiter(self, addr: int, thread_id: str) -> None:
        """Remove a waiter (e.g. on timeout or variant shutdown)."""
        queue = self._waiters.get(addr)
        if queue and thread_id in queue:
            queue.remove(thread_id)
            if not queue:
                del self._waiters[addr]
            for hook in self.hooks.futex_unpark:
                hook(self.variant, addr, thread_id)

    def wake(self, addr: int, count: int,
             waker: str | None = None) -> list[str]:
        """Dequeue up to ``count`` waiters in FIFO order and return them."""
        queue = self._waiters.get(addr)
        if not queue:
            return []
        hooks = self.hooks
        if hooks.faults:
            count = max(count - hooks.faults.check_drop_wake(self.variant,
                                                             addr), 0)
        woken = queue[:count]
        remaining = queue[count:]
        if remaining:
            self._waiters[addr] = remaining
        else:
            del self._waiters[addr]
        for hook in hooks.futex_wake:
            hook(self.variant, addr, waker, woken)
        return woken

    def waiters(self, addr: int) -> list[str]:
        """Current waiters on ``addr`` (FIFO order)."""
        return list(self._waiters.get(addr, []))

    def snapshot(self) -> dict:
        """JSON-safe view of the wait queues (checkpoint fingerprints)."""
        return {str(addr): list(queue)
                for addr, queue in sorted(self._waiters.items())}

    def all_waiting_threads(self) -> list[str]:
        """Every thread currently blocked on any futex (for diagnostics)."""
        result = []
        for queue in self._waiters.values():
            result.extend(queue)
        return result
