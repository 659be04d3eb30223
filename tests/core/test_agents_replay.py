"""Replay-correctness tests for the three synchronization agents.

These are the paper's central claims (Sections 3-4): with any agent
injected, a set of variants executes communicating multithreaded programs
without benign divergence — under any scheduling seed, any variant count,
and full address-space diversity — while without an agent the monitor
(correctly) detects divergence.
"""

import pytest

from repro.core.mvee import run_mvee
from repro.diversity.spec import DiversitySpec
from tests.guestlib import (
    BarrierPhasesProgram,
    CounterProgram,
    FDRaceProgram,
    MallocStormProgram,
    MutexCounterProgram,
    ProducerConsumerProgram,
)

AGENTS = ["total_order", "partial_order", "wall_of_clocks"]


class TestBenignDivergenceWithoutAgent:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_communicating_counter_diverges(self, seed, fast_costs):
        outcome = run_mvee(CounterProgram(), variants=2, agent=None,
                           seed=seed, costs=fast_costs)
        assert outcome.verdict == "divergence"
        assert outcome.divergence is not None

    def test_fd_race_diverges_without_ordering(self, fast_costs):
        """Section 3.1's motivating example: with the Lamport syscall
        ordering disabled, threads race to open files and the FD values
        handed to equivalent threads differ across variants."""
        from repro.core.divergence import MonitorPolicy
        from repro.kernel.fs import VirtualDisk
        disk = VirtualDisk()
        FDRaceProgram.populate(disk)
        outcome = run_mvee(FDRaceProgram(workers=4), variants=2,
                           agent=None, seed=3, costs=fast_costs,
                           disk=disk,
                           policy=MonitorPolicy(order_syscalls=False))
        assert outcome.verdict == "divergence"

    def test_fd_race_fixed_by_ordering_alone(self, fast_costs):
        """With ordering on (the paper's §3.1 fix), the same program runs
        clean even without any sync agent — its threads communicate only
        through the kernel."""
        from repro.kernel.fs import VirtualDisk
        disk = VirtualDisk()
        FDRaceProgram.populate(disk)
        outcome = run_mvee(FDRaceProgram(workers=4), variants=2,
                           agent=None, seed=3, costs=fast_costs,
                           disk=disk)
        assert outcome.verdict == "clean"


class TestAgentsEliminateDivergence:
    @pytest.mark.parametrize("agent", AGENTS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_counter_clean(self, agent, seed, fast_costs):
        outcome = run_mvee(CounterProgram(), variants=2, agent=agent,
                           seed=seed, costs=fast_costs)
        assert outcome.verdict == "clean"
        assert "total=600" in outcome.stdout

    @pytest.mark.parametrize("agent", AGENTS)
    def test_three_variants_clean(self, agent, fast_costs):
        outcome = run_mvee(CounterProgram(workers=3, iters=80),
                           variants=3, agent=agent, seed=9,
                           costs=fast_costs)
        assert outcome.verdict == "clean"

    @pytest.mark.parametrize("agent", AGENTS)
    def test_four_variants_clean(self, agent, fast_costs):
        outcome = run_mvee(CounterProgram(workers=2, iters=50),
                           variants=4, agent=agent, seed=2,
                           costs=fast_costs)
        assert outcome.verdict == "clean"

    @pytest.mark.parametrize("agent", AGENTS)
    def test_futex_mutex_clean(self, agent, fast_costs):
        outcome = run_mvee(MutexCounterProgram(workers=4, iters=60),
                           variants=2, agent=agent, seed=4,
                           costs=fast_costs)
        assert outcome.verdict == "clean"
        assert "total=240" in outcome.stdout

    @pytest.mark.parametrize("agent", AGENTS)
    def test_producer_consumer_clean(self, agent, fast_costs):
        outcome = run_mvee(ProducerConsumerProgram(), variants=2,
                           agent=agent, seed=8, costs=fast_costs)
        assert outcome.verdict == "clean"
        assert "consumed=80" in outcome.stdout

    @pytest.mark.parametrize("agent", AGENTS)
    def test_barrier_phases_clean(self, agent, fast_costs):
        outcome = run_mvee(BarrierPhasesProgram(), variants=2,
                           agent=agent, seed=1, costs=fast_costs)
        assert outcome.verdict == "clean"

    @pytest.mark.parametrize("agent", AGENTS)
    def test_hidden_libc_syncops_clean(self, agent, fast_costs):
        """Malloc's internal spinlock ops must be replayed or brk-order
        diverges (Section 3.3)."""
        outcome = run_mvee(MallocStormProgram(workers=4, allocs=25),
                           variants=2, agent=agent, seed=6,
                           costs=fast_costs)
        assert outcome.verdict == "clean"

    @pytest.mark.parametrize("agent", AGENTS)
    def test_fd_race_ordered_and_clean(self, agent, fast_costs):
        from repro.kernel.fs import VirtualDisk
        disk = VirtualDisk()
        FDRaceProgram.populate(disk)
        outcome = run_mvee(FDRaceProgram(workers=4), variants=2,
                           agent=agent, seed=3, costs=fast_costs,
                           disk=disk)
        assert outcome.verdict == "clean"


class TestDiversitySupport:
    @pytest.mark.parametrize("agent", AGENTS)
    def test_aslr_plus_dcl_clean(self, agent, fast_costs):
        """Section 5.1's correctness experiment: ASLR + disjoint code
        layouts, no divergence under any agent."""
        outcome = run_mvee(
            CounterProgram(workers=4, iters=60), variants=3, agent=agent,
            seed=12, costs=fast_costs,
            diversity=DiversitySpec(aslr=True, dcl=True, seed=99))
        assert outcome.verdict == "clean"

    @pytest.mark.parametrize("agent", AGENTS)
    def test_noise_diversity_clean(self, agent, fast_costs):
        """NOP-insertion-style timing diversity does not break replay —
        the agents do not depend on instruction counts (unlike DMT)."""
        outcome = run_mvee(
            MutexCounterProgram(workers=3, iters=40), variants=2,
            agent=agent, seed=13, costs=fast_costs,
            diversity=DiversitySpec(noise=0.25, seed=3))
        assert outcome.verdict == "clean"

    def test_allocator_diversity_breaks_replay(self, fast_costs):
        """Section 4.5.1: variants with different allocator behaviour are
        unsupported — the run must NOT be clean (the extra brk calls make
        the variants' syscall streams differ, and replay may also wedge)."""
        outcome = run_mvee(
            MallocStormProgram(workers=2, allocs=20), variants=2,
            agent="wall_of_clocks", seed=1, costs=fast_costs,
            max_cycles=2e9,
            diversity=DiversitySpec(allocator_padding=32_768))
        assert outcome.verdict != "clean"


class TestReplayEquivalence:
    @pytest.mark.parametrize("agent", AGENTS)
    def test_syscall_traces_identical_across_variants(self, agent,
                                                      fast_costs):
        from repro.core.mvee import MVEE
        from repro.perf.timeline import VariantTraces
        traces = VariantTraces()
        mvee = MVEE(CounterProgram(workers=3, iters=50), variants=2,
                    agent=agent, seed=21, costs=fast_costs,
                    consumers=(traces,))
        outcome = mvee.run()
        assert outcome.verdict == "clean"
        master = traces.per_thread_syscalls(outcome.vms[0])
        for slave in outcome.vms[1:]:
            assert traces.per_thread_syscalls(slave) == master

    @pytest.mark.parametrize("agent", AGENTS)
    def test_sync_op_results_match(self, agent, fast_costs):
        """CAS/XCHG results must replicate exactly (same retry patterns)."""
        from repro.core.mvee import MVEE
        from repro.perf.timeline import VariantTraces
        traces = VariantTraces()
        mvee = MVEE(MutexCounterProgram(workers=3, iters=30), variants=2,
                    agent=agent, seed=17, costs=fast_costs,
                    consumers=(traces,))
        outcome = mvee.run()
        assert outcome.verdict == "clean"

        def per_thread(vm):
            grouped = {}
            for entry in traces.sync_ops(vm):
                grouped.setdefault(entry.thread, []).append(
                    (entry.name, entry.result))
            return grouped

        assert per_thread(outcome.vms[0]) == per_thread(outcome.vms[1])

    def test_agent_stats_accumulate(self, fast_costs):
        outcome = run_mvee(CounterProgram(workers=2, iters=40),
                           variants=3, agent="wall_of_clocks", seed=3,
                           costs=fast_costs)
        stats = outcome.agent_shared.stats
        assert stats.recorded > 0
        assert stats.replayed == 2 * stats.recorded  # two slave variants
