"""The lockstep watchdog: stalled variants are diagnosed, not waited on.

A ``stall`` fault parks one variant's thread inside a monitored call on a
key nothing ever wakes.  Without a watchdog the run burns its whole cycle
budget; with one, the monitor fires at the rendezvous deadline, names the
variant and call that never arrived, and applies the degradation policy.
"""

from repro.core.divergence import DivergenceKind, MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import ObsHub
from tests.guestlib import MutexCounterProgram

WATCHDOG = 400_000.0
STALL_PLAN = FaultPlan((FaultSpec(kind="stall", variant=1, at=4),))


def _run(policy=None, obs=None, **kwargs):
    return run_mvee(MutexCounterProgram(workers=3, iters=25),
                    variants=3, seed=7, faults=STALL_PLAN,
                    policy=policy or MonitorPolicy(
                        watchdog_cycles=WATCHDOG),
                    max_cycles=50_000_000.0, obs=obs, **kwargs)


class TestWatchdog:
    def test_stall_diagnosed_within_deadline(self, fast_costs):
        outcome = _run(costs=fast_costs)
        assert outcome.verdict == "divergence"
        report = outcome.divergence
        assert report.kind is DivergenceKind.WATCHDOG_TIMEOUT
        assert "[1]" in report.detail
        # Diagnosed at the deadline, nowhere near the cycle budget.
        assert outcome.cycles < 10 * WATCHDOG

    def test_report_names_stalled_variant_and_call(self, fast_costs):
        outcome = _run(costs=fast_costs)
        report = outcome.divergence
        assert report.observations[1] == "<never arrived>"
        # The survivors' arrivals name the call the stalled variant
        # failed to reach.
        arrived = [obs for v, obs in report.observations.items()
                   if v != 1]
        assert arrived and all(obs != "<never arrived>"
                               for obs in arrived)

    def test_bundle_records_watchdog_event(self, fast_costs):
        hub = ObsHub()
        outcome = _run(costs=fast_costs, obs=hub)
        bundle = outcome.obs_bundle
        assert bundle is not None
        assert bundle.report["kind"] == "watchdog_timeout"
        assert bundle.faults and bundle.faults[0]["kind"] == "stall"
        actions = [event["action"] for event in bundle.recovery]
        assert "watchdog_timeout" in actions
        timeout = next(event for event in bundle.recovery
                       if event["action"] == "watchdog_timeout")
        assert timeout["variants"] == [1]

    def test_quarantine_policy_survives_stall(self, fast_costs):
        clean = run_mvee(MutexCounterProgram(workers=3, iters=25),
                         variants=3, seed=7, costs=fast_costs)
        outcome = _run(costs=fast_costs,
                       policy=MonitorPolicy(degradation="quarantine",
                                            watchdog_cycles=WATCHDOG))
        assert outcome.verdict == "degraded"
        assert [event.variant for event in outcome.quarantines] == [1]
        assert outcome.stdout == clean.stdout

    def test_no_watchdog_means_no_timeout_diagnosis(self, fast_costs):
        outcome = run_mvee(MutexCounterProgram(workers=3, iters=25),
                           variants=3, seed=7, costs=fast_costs,
                           faults=STALL_PLAN,
                           max_cycles=50_000_000.0)
        assert len(outcome.faults) == 1
        assert outcome.verdict == "deadlock"


class TestWatchdogCauseHint:
    """WATCHDOG_TIMEOUT diagnoses carry a cause hint: ``stall`` for a
    single wedged variant, ``deadlock-suspected`` when >= 2 variants sit
    with multiple threads blocked on each other."""

    def test_single_variant_stall_hints_stall(self, fast_costs):
        outcome = _run(costs=fast_costs)
        assert outcome.divergence.kind is DivergenceKind.WATCHDOG_TIMEOUT
        assert "[cause: stall]" in outcome.divergence.detail

    def test_guest_deadlock_hints_deadlock_suspected(self, fast_costs):
        from repro.workloads.philosophers import DiningPhilosophers

        outcome = run_mvee(DiningPhilosophers(3), variants=2, seed=11,
                           costs=fast_costs,
                           policy=MonitorPolicy(watchdog_cycles=WATCHDOG),
                           max_cycles=50_000_000.0)
        assert outcome.verdict == "divergence"
        assert outcome.divergence.kind is DivergenceKind.WATCHDOG_TIMEOUT
        assert "[cause: deadlock-suspected]" in outcome.divergence.detail
