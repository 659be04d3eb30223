"""Property-based tests of the headline replay invariant.

Hypothesis generates random data-race-free guest programs (random thread
counts, lock assignments, and critical-section patterns) and random
scheduler seeds; for every agent, the MVEE must replay them without
divergence and with identical per-thread syscall traces.  This is the
paper's Section 3 correctness claim quantified over program structure,
not just over the fixed test workloads.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mvee import MVEE
from repro.guest.program import GuestProgram
from repro.guest.sync import SpinLock
from repro.perf.costs import CostModel
from repro.perf.timeline import VariantTraces

FAST = CostModel(monitor_syscall_overhead=1_000.0)


class RandomDRFProgram(GuestProgram):
    """A random but data-race-free program: every shared-data access is
    protected by the lock that owns it."""

    name = "random_drf"

    def __init__(self, plan: list[list[tuple[int, int]]], n_locks: int):
        # plan[worker] = [(lock_index, compute_cycles), ...]
        self.plan = plan
        self.n_locks = n_locks

    def main(self, ctx):
        locks = [SpinLock(ctx.alloc_static(f"lock{i}"))
                 for i in range(self.n_locks)]
        for index in range(self.n_locks):
            ctx.alloc_static(f"value{index}")
        tids = yield from ctx.spawn_all(
            self.worker,
            [(locks, i, steps) for i, steps in enumerate(self.plan)])
        witnesses = yield from ctx.join_all(tids)
        digest = hash(tuple(witnesses)) & 0xFFFF
        yield from ctx.printf(f"digest={digest}\n")
        return digest

    def worker(self, ctx, locks, index, steps):
        witness = 0
        for lock_index, cycles in steps:
            yield from ctx.compute(cycles)
            yield from locks[lock_index].acquire(ctx)
            addr = ctx.static_addr(f"value{lock_index}")
            observed = ctx.mem_load(addr)
            ctx.mem_store(addr, observed + 1)
            witness = hash((witness, lock_index, observed))
            yield from locks[lock_index].release(ctx)
        return witness & 0xFFFFFFFF


program_plans = st.lists(                    # workers
    st.lists(                                # steps per worker
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=50, max_value=3_000)),
        min_size=1, max_size=12),
    min_size=2, max_size=4)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=program_plans,
       seed=st.integers(min_value=0, max_value=2**16),
       agent=st.sampled_from(["total_order", "partial_order",
                              "wall_of_clocks"]))
def test_random_drf_programs_replay_cleanly(plan, seed, agent):
    program = RandomDRFProgram(plan, n_locks=4)
    traces = VariantTraces()
    mvee = MVEE(program, variants=2, agent=agent, seed=seed,
                costs=FAST, consumers=(traces,), max_cycles=5e9)
    outcome = mvee.run()
    assert outcome.verdict == "clean"
    master = traces.per_thread_syscalls(outcome.vms[0])
    assert traces.per_thread_syscalls(outcome.vms[1]) == master


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=program_plans, seed=st.integers(min_value=0, max_value=999))
def test_final_counters_match_plan_in_every_variant(plan, seed):
    """The final per-lock counter equals the number of plan steps that
    targeted that lock, in every variant: replay preserves the program's
    semantics, not just its syscall stream."""
    mvee = MVEE(RandomDRFProgram(plan, n_locks=4), variants=2,
                agent="wall_of_clocks", seed=seed, costs=FAST,
                max_cycles=5e9)
    outcome = mvee.run()
    assert outcome.verdict == "clean"
    per_lock = [0, 0, 0, 0]
    for steps in plan:
        for lock_index, _ in steps:
            per_lock[lock_index] += 1
    for vm in outcome.vms:
        space = vm.kernel.addr_space
        # Statics were allocated in declaration order: 4 lock words then
        # 4 value words, 8 bytes each, from the static base.
        base = space.bases.static_base
        values = [space.peek(base + 32 + 8 * i) for i in range(4)]
        assert values == per_lock
        locks = [space.peek(base + 8 * i) for i in range(4)]
        assert locks == [0, 0, 0, 0], "all locks released at exit"
