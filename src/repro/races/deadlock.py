"""The dynamic side: per-variant held-sets and a runtime wait-for-graph.

Attached as a consumer on the machine's hook table
(:mod:`repro.sched.hooks`, zero cost when absent, like every other
observer), the detector watches two event streams:

* **committed SyncOps** (:meth:`DeadlockDetector.sync_op`), from
  which lock ownership is reconstructed *structurally* — no site
  knowledge needed: a successful ``cas(0 -> nonzero)`` or an ``xchg``
  of a nonzero value returning 0 acquires the word; a store of 0, a
  ``cas`` to 0, or an ``xchg(0)`` by the owner releases it.  This
  covers the guest SpinLock and Mutex exactly and is inert for ticket
  locks, semaphores, barriers and condvars (their words never gain an
  owner, so they can never contribute a wait-for edge).
* **futex parking** (:meth:`DeadlockDetector.futex_park`, fired by
  :class:`~repro.kernel.futex.FutexTable`): a thread blocking on a word
  somebody owns adds a wait-for edge.  Each thread has at most one
  outgoing edge, so the cycle check at edge-insertion time is a linear
  chain walk — a guest deadlock is detected *at cycle formation*, in
  bounded time, instead of burning the watchdog budget.

On a cycle the detector flags the machine
(:meth:`~repro.sched.machine.Machine.flag_guest_deadlock`), which ends
the run with a ``deadlock`` verdict naming the cycle and the held /
wanted locks.  Like the race detector, it never charges simulated
cycles, never consumes scheduler randomness, and never parks threads:
clean runs with the detector attached are cycle-identical to detached
runs (pinned in ``tests/test_determinism.py``).

The static mirror is :mod:`repro.analysis.lockorder`;
:func:`repro.analysis.lockorder.cross_check` consumes this module's
:class:`DeadlockReport` to classify each static candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Substring marking an acquisition site as a non-blocking attempt
#: (kept in sync with :data:`repro.analysis.lockorder.TRYLOCK_MARKER`).
TRYLOCK_MARKER = ".trylock"


def _logical(tid: str) -> str:
    """``v0:main`` -> ``main`` (global ids are ``v<variant>:<logical>``)."""
    return tid.split(":", 1)[1] if ":" in tid else tid


@dataclass(frozen=True)
class DeadlockThread:
    """One thread on a wait-for cycle."""

    thread: str                      # logical id, stable across variants
    holds: tuple[int, ...]           # lock words owned
    hold_sites: tuple[str, ...]      # acquisition site of each held word
    wants: int                       # the word this thread is parked on
    wants_site: str | None           # site of the failed acquire, if seen

    def to_dict(self) -> dict:
        return {"thread": self.thread, "holds": list(self.holds),
                "hold_sites": list(self.hold_sites), "wants": self.wants,
                "wants_site": self.wants_site}

    def __str__(self) -> str:
        held = ", ".join(f"{a:#x}" for a in self.holds) or "-"
        return f"{self.thread} holds [{held}] wants {self.wants:#x}"


@dataclass(frozen=True)
class DeadlockRecord:
    """One detected wait-for cycle (the ``deadlock`` verdict payload)."""

    variant: int
    at_cycles: float
    threads: tuple[DeadlockThread, ...]

    def cycle_name(self) -> str:
        names = [t.thread for t in self.threads]
        return " -> ".join(names + names[:1])

    def locks(self) -> tuple[int, ...]:
        """The lock words forming the cycle."""
        return tuple(t.wants for t in self.threads)

    def sites(self) -> frozenset[str]:
        """Every site label involved: hold sites + failed-acquire sites."""
        sites: set[str] = set()
        for thread in self.threads:
            sites.update(thread.hold_sites)
            if thread.wants_site is not None:
                sites.add(thread.wants_site)
        return frozenset(sites)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "at_cycles": self.at_cycles,
                "cycle": self.cycle_name(),
                "threads": [t.to_dict() for t in self.threads]}

    def __str__(self) -> str:
        return (f"deadlock in v{self.variant} at "
                f"{self.at_cycles:.0f} cycles: {self.cycle_name()}")


@dataclass
class DeadlockReport:
    """Everything one detector session saw."""

    records: list[DeadlockRecord] = field(default_factory=list)
    acquires_seen: int = 0
    releases_seen: int = 0
    waits_seen: int = 0
    #: Every site label that reached the detector (exercised code).
    observed_sites: set[str] = field(default_factory=set)
    #: Trylock-marked sites seen at least once.
    guard_sites: set[str] = field(default_factory=set)
    #: Failed trylock attempts — the guard doing its job.
    guard_refusals: int = 0

    @property
    def deadlocked(self) -> bool:
        return bool(self.records)

    def summary(self) -> str:
        if not self.records:
            guard = (f", {self.guard_refusals} trylock refusal(s)"
                     if self.guard_refusals else "")
            return (f"no deadlock ({self.acquires_seen} acquire(s), "
                    f"{self.releases_seen} release(s), "
                    f"{self.waits_seen} futex wait(s){guard})")
        first = self.records[0]
        return (f"{len(self.records)} deadlock cycle(s); first: "
                f"{first.cycle_name()} in v{first.variant}")


class DeadlockDetector:
    """Held-set tracker + wait-for graph for one machine run."""

    def __init__(self):
        self.report = DeadlockReport()
        self._clock = lambda: 0.0
        self._machine = None
        #: (variant, addr) -> owning thread global id.
        self._holders: dict[tuple[int, int], str] = {}
        #: (variant, addr) -> site label of the owning acquisition.
        self._hold_sites: dict[tuple[int, int], str | None] = {}
        #: thread global id -> set of owned addrs.
        self._held: dict[str, set[int]] = {}
        #: thread global id -> (variant, addr) it is parked on.
        self._waiting: dict[str, tuple[int, int]] = {}
        #: thread global id -> (addr, site) of its last failed acquire.
        self._last_attempt: dict[str, tuple[int, str | None]] = {}
        self._seen_cycles: set[tuple] = set()

    # -- wiring ----------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Attach the machine's simulated clock (``lambda: machine.now``)."""
        self._clock = clock

    def bind_machine(self, machine) -> None:
        """Report each detected cycle on the machine's hook table and
        end the run via its sticky deadlock flag (unit tests may leave
        this unbound)."""
        self._machine = machine

    def variant_restarted(self, variant: int) -> None:
        """Forget one variant's state (quarantine-restart support).

        A restarted variant has fresh memory; stale ownership would
        manufacture false wait-for edges against the new incarnation.
        """
        prefix = f"v{variant}:"
        for mapping in (self._held, self._waiting, self._last_attempt):
            for tid in [t for t in mapping if t.startswith(prefix)]:
                del mapping[tid]
        for mapping in (self._holders, self._hold_sites):
            for key in [k for k in mapping if k[0] == variant]:
                del mapping[key]

    # -- hook-table events ------------------------------------------------

    def sync_op(self, vm, thread, event, value) -> None:
        """Classify one committed SyncOp structurally as acquire /
        release / attempt; everything else is inert."""
        site = event.site
        if site is not None:
            self.report.observed_sites.add(site)
        op = event.op
        tid = thread.global_id
        addr = event.addr
        if op == "cas":
            expected, new = event.args
            if expected == 0 and new != 0:
                trylock = site is not None and TRYLOCK_MARKER in site
                if trylock:
                    self.report.guard_sites.add(site)
                if value == expected:
                    self._acquire(vm.index, addr, tid, site)
                else:
                    if trylock:
                        self.report.guard_refusals += 1
                    self._last_attempt[tid] = (addr, site)
            elif new == 0 and value == expected:
                self._release(vm.index, addr, tid)
        elif op == "xchg":
            (new,) = event.args
            if new == 0:
                self._release(vm.index, addr, tid)
            elif value == 0:
                self._acquire(vm.index, addr, tid, site)
            else:
                self._last_attempt[tid] = (addr, site)
        elif op == "store":
            if event.args and event.args[0] == 0:
                self._release(vm.index, addr, tid)
        # load / fetch_add never transfer ownership.

    # -- futex events (FutexTable) ---------------------------------------

    def futex_park(self, variant: int, addr: int, tid: str) -> None:
        """A thread parked on a futex word: add its wait-for edge and
        check for a cycle (linear: each thread has <= 1 outgoing edge)."""
        self.report.waits_seen += 1
        self._waiting[tid] = (variant, addr)
        cycle = self._find_cycle(tid)
        if cycle is not None:
            self._emit(variant, cycle)

    def futex_unpark(self, variant: int, addr: int, tid: str) -> None:
        self._waiting.pop(tid, None)

    def futex_wake(self, variant: int, addr: int, waker, woken) -> None:
        for tid in woken:
            self._waiting.pop(tid, None)

    # -- ownership -------------------------------------------------------

    def _acquire(self, variant: int, addr: int, tid: str,
                 site: str | None) -> None:
        self.report.acquires_seen += 1
        self._holders[(variant, addr)] = tid
        self._hold_sites[(variant, addr)] = site
        self._held.setdefault(tid, set()).add(addr)
        self._last_attempt.pop(tid, None)

    def _release(self, variant: int, addr: int, tid: str) -> None:
        key = (variant, addr)
        if self._holders.get(key) != tid:
            return  # a plain store-0 to a word this thread doesn't own
        self.report.releases_seen += 1
        del self._holders[key]
        self._hold_sites.pop(key, None)
        held = self._held.get(tid)
        if held is not None:
            held.discard(addr)

    # -- cycle detection -------------------------------------------------

    def _find_cycle(self, start: str) -> list[str] | None:
        path = [start]
        on_path = {start: 0}
        current = start
        while True:
            wanted = self._waiting.get(current)
            if wanted is None:
                return None
            holder = self._holders.get(wanted)
            if holder is None:
                return None
            position = on_path.get(holder)
            if position is not None:
                return path[position:]
            on_path[holder] = len(path)
            path.append(holder)
            current = holder

    def _emit(self, variant: int, cycle: list[str]) -> None:
        threads = []
        for tid in cycle:
            wanted_variant, wanted_addr = self._waiting[tid]
            holds = tuple(sorted(self._held.get(tid, ())))
            hold_sites = tuple(
                self._hold_sites.get((wanted_variant, a)) or "?"
                for a in holds)
            attempt = self._last_attempt.get(tid)
            wants_site = (attempt[1] if attempt is not None
                          and attempt[0] == wanted_addr else None)
            threads.append(DeadlockThread(
                thread=_logical(tid), holds=holds,
                hold_sites=hold_sites, wants=wanted_addr,
                wants_site=wants_site))
        # Canonicalize the rotation: the same cycle re-discovered from a
        # different starting thread must dedup to one record.
        pivot = min(range(len(threads)), key=lambda i: threads[i].thread)
        threads = threads[pivot:] + threads[:pivot]
        key = (variant, tuple(t.thread for t in threads),
               tuple(t.wants for t in threads))
        if key in self._seen_cycles:
            return
        self._seen_cycles.add(key)
        record = DeadlockRecord(variant=variant,
                                at_cycles=self._clock(),
                                threads=tuple(threads))
        self.report.records.append(record)
        if self._machine is not None:
            for hook in self._machine.hooks.deadlock_detected:
                hook(record)
            self._machine.flag_guest_deadlock(record)
