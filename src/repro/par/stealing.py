"""Work-stealing deque scheduler over sweep cells.

Static partitioning strands workers: the committed BENCH_par.json shows
per-cell walls spanning 0.003s–0.3s (a 100x spread), so a worker whose
shard happens to hold the cheap cells goes idle while a sibling grinds
through the expensive ones.  :class:`StealScheduler` fixes that with the
classic per-worker-deque shape:

* cell ``i`` starts on worker ``i % workers`` — the *initial partition*
  is a pure function of the cell index, so which worker *first owns* a
  cell never depends on timing;
* a worker takes its next cell from the **head** of its own deque (the
  order a static partition would have run them);
* a worker whose deque is empty **steals half** (rounded up) from the
  **tail** of the busiest victim's deque — the victim keeps the cells it
  was about to run, the thief takes the far end;
* the victim is chosen deterministically: most remaining cells, ties
  broken by lowest worker index.  Given the same sequence of
  "worker X asks for work" events, the schedule is reproducible.

Scheduling can therefore affect *when and where* a cell runs but never
*what it computes*: cell seeds derive from the cell index alone
(:mod:`repro.par.seeds`) and results are slotted by task position, so
any interleaving of :meth:`next_for` calls yields the same sweep output.
``tests/property/test_work_stealing.py`` drives random interleavings
with Hypothesis to pin exactly that: every cell scheduled exactly once,
no losses, no duplicates, aggregation order independent of victim
choice.

The scheduler is deliberately not thread-safe: the process runner drives
it from its single dispatch loop.
"""

from __future__ import annotations

from collections import deque

__all__ = ["StealScheduler"]


class StealScheduler:
    """Deal ``items`` cell positions across ``workers`` local deques."""

    def __init__(self, items: int, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if items < 0:
            raise ValueError(f"items must be >= 0, got {items}")
        self.workers = workers
        self._deques: list[deque[int]] = [deque()
                                          for _ in range(workers)]
        for position in range(items):
            self._deques[position % workers].append(position)
        self._remaining = items
        #: Diagnostics: (thief, victim, cells moved) per steal event.
        self.steals: list[tuple[int, int, int]] = []

    @property
    def remaining(self) -> int:
        """Cells not yet handed out (in-flight cells are not counted)."""
        return self._remaining

    def done(self) -> bool:
        return self._remaining == 0

    def pending_of(self, worker: int) -> int:
        return len(self._deques[worker])

    def next_for(self, worker: int) -> int | None:
        """The next cell position worker ``worker`` should run.

        Pops the head of the worker's own deque; if it is empty, steals
        half of the busiest victim's deque first.  Returns ``None`` when
        no cell is available anywhere (the sweep is fully handed out).
        """
        own = self._deques[worker]
        if not own:
            self._steal_into(worker)
            if not own:
                # Nothing left to steal: this worker is done.
                return None
        self._remaining -= 1
        return own.popleft()

    def _steal_into(self, thief: int) -> None:
        victim = self._pick_victim(thief)
        if victim is None:
            return
        source = self._deques[victim]
        count = (len(source) + 1) // 2
        # Take from the tail: the victim keeps the cells it was about to
        # run, the thief takes the far end in original cell order.
        stolen = [source.pop() for _ in range(count)]
        self._deques[thief].extend(reversed(stolen))
        self.steals.append((thief, victim, count))

    def _pick_victim(self, thief: int) -> int | None:
        """Busiest worker with >= 1 pending cell; ties break toward the
        lowest worker index — a pure function of deque state."""
        victim = None
        best = 0
        for index, pending in enumerate(self._deques):
            if index == thief:
                continue
            if len(pending) > best:
                best = len(pending)
                victim = index
        return victim

    def stats(self) -> dict:
        """Plain-data scheduling diagnostics (never part of digests).

        Like :meth:`WorkerPool.stats`, reading also publishes the steal
        counters into the host metrics registry — the scheduler's own
        ``steals`` list stays the single source of truth.
        """
        from repro.telemetry import hostmetrics

        stats = {
            "workers": self.workers,
            "steals": len(self.steals),
            "cells_stolen": sum(count for _, _, count in self.steals),
        }
        hostmetrics.publish_pool_stats({"scheduler": stats})
        return stats
