"""Cycle-accounting correctness (repro.prof.accounting).

The load-bearing invariant: every profiled run's per-category totals
sum *exactly* to the profile's total, and each thread's category totals
tile its accounted lifetime.
"""

import json

import pytest

from repro.core.mvee import run_mvee
from repro.prof.accounting import (
    CATEGORIES,
    CycleProfiler,
    classify_wait_key,
)
from repro.workloads.synthetic import make_benchmark
from tests.guestlib import MutexCounterProgram


def profiled_run(program, fast_costs, **kwargs):
    profiler = CycleProfiler()
    outcome = run_mvee(program, consumers=(profiler,), costs=fast_costs,
                       **kwargs)
    profiler.finalize(outcome.machine.now)
    return outcome, profiler.snapshot()


class TestClassifyWaitKey:
    def test_monitor_keys(self):
        assert classify_wait_key(("rdv", 3)) == "monitor-ordering"
        assert classify_wait_key(("order_clock", 1)) == "monitor-ordering"

    def test_agent_keys(self):
        assert classify_wait_key(("woc_clock", 0)) == "agent-wait"
        assert classify_wait_key(("to_log", 2)) == "agent-wait"
        assert classify_wait_key(("po_consume", 2)) == "agent-wait"

    def test_kernel_and_fault_keys(self):
        assert classify_wait_key(("futex", 64)) == "futex-sleep"
        assert classify_wait_key(("fault_stall", 1)) == "fault-recovery"

    def test_unknown_keys_are_guest_waits(self):
        assert classify_wait_key(("join", "t1")) == "guest-wait"
        assert classify_wait_key(("no_such_kind",)) == "guest-wait"
        assert classify_wait_key(None) == "guest-wait"


class TestExactTiling:
    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    def test_totals_sum_exactly(self, agent, fast_costs):
        outcome, profile = profiled_run(
            MutexCounterProgram(workers=3, iters=25), fast_costs,
            variants=3, agent=agent, seed=7)
        assert outcome.verdict == "clean"
        per_category = profile.per_category()
        # total_cycles is *defined* as the category sum: exact equality.
        assert profile.total_cycles == sum(per_category.values())
        assert set(per_category) == set(CATEGORIES)
        assert per_category["guest-compute"] > 0

    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    def test_threads_tile_their_lifetimes(self, agent, fast_costs):
        _, profile = profiled_run(
            MutexCounterProgram(workers=3, iters=25), fast_costs,
            variants=3, agent=agent, seed=7)
        assert profile.threads
        for entry in profile.threads:
            lifetime = entry["end"] - entry["start"]
            accounted = sum(entry["categories"].values())
            assert accounted == pytest.approx(lifetime, rel=1e-9)

    def test_benchmark_twin_profile(self, fast_costs):
        _, profile = profiled_run(
            make_benchmark("fft", scale=0.05), fast_costs,
            variants=2, agent="wall_of_clocks", seed=1,
            max_cycles=1e9)
        per_variant = profile.per_variant()
        assert set(per_variant) == {0, 1}
        # Slaves wait on the agent; the master never replays.
        assert per_variant[1]["agent-wait"] >= 0.0
        assert profile.total_cycles > profile.machine_cycles


class TestSnapshotShape:
    def test_to_dict_is_json_stable(self, fast_costs):
        _, profile = profiled_run(
            MutexCounterProgram(workers=2, iters=10), fast_costs,
            variants=2, agent="wall_of_clocks", seed=3)
        data = profile.to_dict()
        assert data["kind"] == "repro-cycle-profile"
        assert data["total_cycles"] == pytest.approx(
            sum(data["per_category"].values()))
        # Round-trips through JSON without loss of key order.
        assert json.loads(json.dumps(data, sort_keys=True))

    def test_threads_sorted_and_category_ordered(self, fast_costs):
        _, profile = profiled_run(
            MutexCounterProgram(workers=2, iters=10), fast_costs,
            variants=2, agent="wall_of_clocks", seed=3)
        keys = [(e["variant"], e["thread"]) for e in profile.threads]
        assert keys == sorted(keys)
        order = {c: i for i, c in enumerate(CATEGORIES)}
        for entry in profile.threads:
            indices = [order[c] for c in entry["categories"]]
            assert indices == sorted(indices)

    def test_midrun_snapshot_does_not_mutate(self):
        profiler = CycleProfiler()
        clock = [0.0]
        profiler.bind_clock(lambda: clock[0])
        profiler.thread_created(0, "v0:main", "main")
        clock[0] = 10.0
        profiler.sched_grant(0, "main")
        clock[0] = 25.0
        first = profiler.snapshot()
        second = profiler.snapshot()
        assert first.to_dict() == second.to_dict()
        # The live account is still open: later activity keeps accruing.
        profiler.step_committed(0, "v0:main", "main", "compute", 15.0)
        profiler.thread_finished(0, "v0:main", "main")
        final = profiler.snapshot()
        categories = final.threads[0]["categories"]
        assert categories["core-queue"] == pytest.approx(10.0)
        assert categories["guest-compute"] == pytest.approx(15.0)

    def test_restart_incarnations_merge(self):
        profiler = CycleProfiler()
        clock = [0.0]
        profiler.bind_clock(lambda: clock[0])
        profiler.thread_created(0, "v0:main", "main")
        clock[0] = 5.0
        profiler.sched_grant(0, "main")
        profiler.step_committed(0, "v0:main", "main", "compute", 3.0)
        clock[0] = 8.0
        # Restarted variant reuses the logical id.
        profiler.thread_created(0, "v0:main", "main")
        clock[0] = 12.0
        profiler.sched_grant(0, "main")
        profiler.step_committed(0, "v0:main", "main", "compute", 2.0)
        profiler.thread_finished(0, "v0:main", "main")
        profiler.finalize(12.0)
        profile = profiler.snapshot()
        assert len(profile.threads) == 1
        entry = profile.threads[0]
        assert entry["categories"]["guest-compute"] == pytest.approx(5.0)
        assert entry["start"] == 0.0
        assert entry["end"] == 12.0

    def test_hooks_defensive_about_unknown_threads(self):
        profiler = CycleProfiler()
        profiler.sched_grant(0, "ghost")
        profiler.park(0, "v0:ghost", "ghost", ("futex", 1))
        profiler.unpark(0, "v0:ghost", "ghost")
        profiler.step_committed(0, "v0:ghost", "ghost", "compute", 1.0)
        profiler.thread_finished(0, "v0:ghost", "ghost")
        assert profiler.snapshot().threads == []


class TestFaultAccounting:
    def test_fault_stall_charges_fault_recovery(self, fast_costs):
        from repro.core.divergence import MonitorPolicy
        from repro.faults.plan import FaultPlan, FaultSpec

        _, profile = profiled_run(
            MutexCounterProgram(workers=3, iters=25), fast_costs,
            variants=3, agent="wall_of_clocks", seed=7,
            faults=FaultPlan((FaultSpec(kind="stall", variant=1, at=4,
                                        param=50_000.0),)),
            policy=MonitorPolicy(degradation="quarantine"))
        assert profile.per_category()["fault-recovery"] > 0.0


class TestProfileExtra:
    def test_sample_interval_bounds_the_series_inside_the_run(self):
        # The profile extra's argument reaches the run's lag tracker, so
        # a cell keeps (and ships back) only every k-th sample.
        from repro.run import RunSpec, run_spec_cell

        spec = RunSpec("fft", variants=2, scale=0.05)
        full = run_spec_cell(spec, outputs={"profile": 1})
        thinned = run_spec_cell(spec, outputs={"profile": 3})
        samples = full.extras["profile"]["lag"]["samples"]
        assert len(samples) >= 3
        assert thinned.extras["profile"]["lag"]["samples"] == samples[2::3]
