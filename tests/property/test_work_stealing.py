"""Property-based tests for the work-stealing scheduler.

The environment abstraction's determinism argument has three legs
(``docs/PERFORMANCE.md``): (1) the scheduler hands every cell out
exactly once no matter how worker requests interleave, (2) results are
slotted by task position so aggregation order never depends on
completion order, and (3) a cell's seed is a pure function of its index
— never of the worker that ran it.  Hypothesis drives randomized
interleavings of ``next_for`` calls to pin each leg: if any interleaving
could lose a cell, run one twice, or leak the victim choice into the
output, these properties would fail.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.par.seeds import derive_cell_seed
from repro.par.stealing import StealScheduler
from repro.par.transport import ListBuffer

counts = st.integers(min_value=0, max_value=64)
worker_counts = st.integers(min_value=1, max_value=8)


def drain(scheduler: StealScheduler, order: list[int]) -> list[int]:
    """Drive the scheduler with a worker-request interleaving.

    ``order`` picks which worker asks next; when it runs out (or a
    worker comes up empty-handed) the remaining cells are drained
    round-robin so every run ends with a fully handed-out sweep.
    """
    handed = []
    for worker in order:
        if scheduler.done():
            break
        position = scheduler.next_for(worker % scheduler.workers)
        if position is not None:
            handed.append(position)
    worker = 0
    while not scheduler.done():
        position = scheduler.next_for(worker % scheduler.workers)
        if position is not None:
            handed.append(position)
        worker += 1
    return handed


class TestExactlyOnce:
    @given(counts, worker_counts,
           st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    def test_every_cell_handed_out_exactly_once(self, items, workers,
                                                order):
        scheduler = StealScheduler(items, workers)
        handed = drain(scheduler, order)
        assert sorted(handed) == list(range(items))
        assert scheduler.remaining == 0 and scheduler.done()

    @given(counts, worker_counts)
    def test_exhausted_scheduler_keeps_returning_none(self, items,
                                                      workers):
        scheduler = StealScheduler(items, workers)
        drain(scheduler, [])
        for worker in range(workers):
            assert scheduler.next_for(worker) is None


class TestAggregationOrder:
    """Results land at their task position, so the collected output is
    in task order regardless of which worker ran what when."""

    @given(counts, worker_counts,
           st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    def test_buffer_collects_in_task_order(self, items, workers, order):
        scheduler = StealScheduler(items, workers)
        buffer = ListBuffer(items)
        for position in drain(scheduler, order):
            buffer.put(position, f"cell-{position}")
        assert buffer.collect() == [f"cell-{i}" for i in range(items)]

    @given(st.integers(min_value=1, max_value=64), worker_counts,
           worker_counts,
           st.lists(st.integers(min_value=0, max_value=7), max_size=200),
           st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    def test_output_independent_of_interleaving_and_width(
            self, items, workers_a, workers_b, order_a, order_b):
        """Two arbitrary schedules — different worker counts, different
        interleavings — aggregate to the same output."""
        def run(workers, order):
            scheduler = StealScheduler(items, workers)
            buffer = ListBuffer(items)
            for position in drain(scheduler, order):
                buffer.put(position, position * position)
            return buffer.collect()

        assert run(workers_a, order_a) == run(workers_b, order_b)


class TestSeedWorkerIndependence:
    """A cell's seed depends on (sweep_id, index, base_seed) only —
    handing the cell to a different worker cannot move it."""

    @given(st.integers(min_value=1, max_value=64), worker_counts,
           worker_counts, st.integers(min_value=0, max_value=2**32),
           st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    def test_seed_schedule_is_invariant(self, items, workers_a,
                                        workers_b, base_seed, order):
        def seeds_by_position(workers, order):
            scheduler = StealScheduler(items, workers)
            seeds = {}
            for position in drain(scheduler, order):
                seeds[position] = derive_cell_seed("ws-prop", position,
                                                   base_seed)
            return seeds

        assert (seeds_by_position(workers_a, order)
                == seeds_by_position(workers_b, []))


class TestSchedulerShape:
    """Deterministic structure: initial partition and victim choice are
    pure functions of state, so identical request sequences replay to
    identical schedules."""

    @given(counts, worker_counts,
           st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    def test_same_interleaving_same_schedule(self, items, workers,
                                             order):
        first = drain(StealScheduler(items, workers), order)
        second = drain(StealScheduler(items, workers), order)
        assert first == second

    @given(counts, worker_counts)
    def test_initial_partition_is_round_robin(self, items, workers):
        scheduler = StealScheduler(items, workers)
        for worker in range(workers):
            expected = len(range(worker, items, workers))
            assert scheduler.pending_of(worker) == expected

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=2, max_value=8))
    def test_idle_worker_steals_half_from_busiest(self, items, workers):
        scheduler = StealScheduler(items, workers)
        # Drain worker 0 completely, then ask again: it must steal.
        while scheduler.pending_of(0):
            scheduler.next_for(0)
        before = [scheduler.pending_of(w) for w in range(workers)]
        victim = max(range(1, workers), key=lambda w: (before[w], -w))
        if before[victim] == 0:
            assert scheduler.next_for(0) is None
            return
        position = scheduler.next_for(0)
        assert position is not None
        thief, chosen, moved = scheduler.steals[-1]
        assert (thief, chosen) == (0, victim)
        assert moved == (before[victim] + 1) // 2
        assert scheduler.pending_of(victim) == before[victim] - moved
