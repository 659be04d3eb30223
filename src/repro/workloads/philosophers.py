"""Dining philosophers — the canonical guest lock-order deadlock.

Two variants of the classic table:

* ``DiningPhilosophers(trylock=False)`` — every philosopher picks up the
  left fork, then the right.  A seating barrier (an atomic counter each
  philosopher bumps after taking the left fork, then spins on) forces the
  full hold-and-wait pattern *deterministically*: no philosopher reaches
  for the right fork until every left fork is held, so the run always
  wedges into the complete ``fork_0 -> fork_1 -> ... -> fork_0`` cycle.
  Under an MVEE with an attached :class:`repro.races.deadlock.DeadlockDetector`
  the run ends in a ``deadlock`` verdict at cycle formation; without one
  it burns the watchdog budget and dies as a ``WATCHDOG_TIMEOUT``
  (now tagged ``deadlock-suspected`` by the cause hint).

* ``DiningPhilosophers(trylock=True)`` — same seating gate, but the
  right fork is taken with ``pthread_mutex_trylock``; on refusal the
  philosopher puts the left fork back and retries both forks in global
  address order (lowest index first).  The total order makes a cycle
  impossible: the run completes cleanly, and the detector's report shows
  the trylock guard refusing — the dynamic evidence behind the static
  analyzer's ``refuted-by-guard`` classification
  (:func:`repro.analysis.lockorder.cross_check`).
"""

from __future__ import annotations

from repro.guest.program import GuestContext, GuestProgram
from repro.guest.sync import Mutex

#: Cycles spent "eating" once both forks are held.
EAT_CYCLES = 2_000.0


class DiningPhilosophers(GuestProgram):
    """N philosophers, N fork mutexes; see the module docstring."""

    def __init__(self, philosophers: int = 3, trylock: bool = False):
        if philosophers < 2:
            raise ValueError("need at least 2 philosophers for a cycle")
        self.philosophers = philosophers
        self.trylock = trylock
        self.name = ("dining_philosophers_trylock" if trylock
                     else "dining_philosophers")
        self.static_vars = tuple(
            f"fork{i}" for i in range(philosophers)) + ("seated", "meals")

    def main(self, ctx: GuestContext):
        forks = [Mutex(ctx.static_addr(f"fork{i}"))
                 for i in range(self.philosophers)]
        tids = []
        for i in range(self.philosophers):
            tid = yield from ctx.spawn(self.philosopher, i, forks,
                                       name=f"phil{i}")
            tids.append(tid)
        yield from ctx.join_all(tids)
        meals = ctx.mem_load(ctx.static_addr("meals"))
        yield from ctx.printf(f"meals={meals}\n")
        return {"meals": meals}

    def philosopher(self, ctx: GuestContext, index: int, forks):
        left = forks[index]
        right = forks[(index + 1) % self.philosophers]
        seated = ctx.static_addr("seated")
        yield from left.acquire(ctx)
        # Seating gate: only reach for the right fork once every
        # philosopher holds a left one — the hold-and-wait pattern is
        # complete and (in the blocking variant) the cycle guaranteed.
        yield from ctx.fetch_add(seated, 1, site="philosophers.seated.xadd")
        while True:
            count = yield from ctx.atomic_load(
                seated, site="philosophers.seated.load")
            if count >= self.philosophers:
                break
            yield from ctx.sched_yield()
        if not self.trylock:
            yield from right.acquire(ctx)       # wedges: full cycle
            yield from self._eat(ctx)
            yield from right.release(ctx)
            yield from left.release(ctx)
            return index
        got_right = yield from right.try_acquire(ctx)
        if got_right:
            yield from self._eat(ctx)
            yield from right.release(ctx)
            yield from left.release(ctx)
            return index
        # Guard refused: put the left fork back and retake both in
        # global order — the total order makes a wait-for cycle
        # impossible, so this always terminates.
        yield from left.release(ctx)
        first, second = sorted((index, (index + 1) % self.philosophers))
        yield from forks[first].acquire(ctx)
        yield from forks[second].acquire(ctx)
        yield from self._eat(ctx)
        yield from forks[second].release(ctx)
        yield from forks[first].release(ctx)
        return index

    def _eat(self, ctx: GuestContext):
        yield from ctx.compute(EAT_CYCLES)
        yield from ctx.fetch_add(ctx.static_addr("meals"), 1,
                                 site="philosophers.meals.xadd")
