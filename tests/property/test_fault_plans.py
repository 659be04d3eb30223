"""Stress property: random fault plans never hang the simulator.

Hypothesis draws a seeded random :class:`FaultPlan`, a degradation
policy, and a watchdog setting; whatever the injector breaks, the MVEE
must terminate within a bounded cycle budget with one of the four
recognised verdicts — never an exception, never an unbounded spin.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan
from repro.perf.costs import CostModel
from tests.guestlib import MutexCounterProgram

FAST = CostModel(monitor_syscall_overhead=1_000.0,
                 preempt_quantum=20_000.0)

VERDICTS = {"clean", "degraded", "divergence", "deadlock"}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan_seed=st.integers(min_value=0, max_value=10_000),
       policy=st.sampled_from(("kill-all", "quarantine", "restart")),
       watchdog=st.sampled_from((None, 300_000.0)))
def test_random_plans_always_terminate(plan_seed, policy, watchdog):
    plan = FaultPlan.random(plan_seed, n_variants=3, horizon=20)
    outcome = run_mvee(
        MutexCounterProgram(workers=3, iters=20),
        variants=3, seed=7, costs=FAST, faults=plan,
        policy=MonitorPolicy(degradation=policy,
                             watchdog_cycles=watchdog),
        max_cycles=40_000_000.0)
    assert outcome.verdict in VERDICTS
    assert outcome.cycles <= 40_000_000.0
    # Only planned faults fired, each at most once.
    assert len(outcome.faults) <= len(plan)
    # A degraded verdict always carries its quarantine evidence.
    if outcome.verdict == "degraded":
        assert outcome.quarantines


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan_seed=st.integers(min_value=0, max_value=10_000))
def test_random_plan_runs_are_repeatable(plan_seed):
    def once():
        return run_mvee(
            MutexCounterProgram(workers=3, iters=15),
            variants=3, seed=3, costs=FAST,
            faults=FaultPlan.random(plan_seed, n_variants=3,
                                    horizon=15),
            policy=MonitorPolicy(degradation="quarantine",
                                 watchdog_cycles=300_000.0),
            max_cycles=40_000_000.0)

    first, second = once(), once()
    assert first.verdict == second.verdict
    assert first.cycles == second.cycles
    assert ([f.to_dict() for f in first.faults]
            == [f.to_dict() for f in second.faults])
