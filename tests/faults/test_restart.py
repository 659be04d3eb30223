"""Restart policy: a quarantined variant is rebuilt and resynced.

Under ``degradation="restart"`` the monitor quarantines a faulty slave,
then the MVEE builds a fresh variant (same deterministic diversity
transforms), re-admits it in catch-up mode — recorded calls served from
the retained master history — and lets it rejoin the live lockstep.
"""

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import ObsHub
from tests.guestlib import MutexCounterProgram

CRASH_V1 = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))


def _run(policy, plan=CRASH_V1, costs=None, obs=None):
    return run_mvee(MutexCounterProgram(workers=3, iters=25),
                    variants=3, seed=7, costs=costs, faults=plan,
                    policy=policy, obs=obs)


class TestRestart:
    def test_restarted_run_completes_identically(self, fast_costs):
        clean = _run(MonitorPolicy(), plan=None, costs=fast_costs)
        outcome = _run(MonitorPolicy(degradation="restart"),
                       costs=fast_costs)
        assert outcome.verdict == "degraded"
        assert outcome.stdout == clean.stdout

    def test_quarantine_event_marks_restart(self, fast_costs):
        outcome = _run(MonitorPolicy(degradation="restart"),
                       costs=fast_costs)
        event, = outcome.quarantines
        assert event.variant == 1
        assert event.restarted
        assert "and restarted" in event.summary()

    def test_replacement_vm_is_swapped_in(self, fast_costs):
        outcome = _run(MonitorPolicy(degradation="restart"),
                       costs=fast_costs)
        mvee_retired = outcome.machine  # machine holds the live set
        assert any(vm.index == 1 for vm in outcome.vms)
        replacement = next(vm for vm in outcome.vms if vm.index == 1)
        assert not replacement.killed
        # The condemned predecessor is retained for forensics.
        assert outcome.monitor.quarantine_log[0].variant == 1
        assert mvee_retired is outcome.machine

    def test_max_restarts_zero_degrades_without_restart(self, fast_costs):
        outcome = _run(MonitorPolicy(degradation="restart",
                                     max_restarts=0),
                       costs=fast_costs)
        assert outcome.verdict == "degraded"
        event, = outcome.quarantines
        assert not event.restarted

    def test_obs_records_restart_action(self, fast_costs):
        hub = ObsHub()
        outcome = _run(MonitorPolicy(degradation="restart"),
                       costs=fast_costs, obs=hub)
        assert outcome.verdict == "degraded"
        actions = [event["action"] for event in hub.recovery_log]
        assert actions.count("quarantine") == 1
        assert actions.count("restart") == 1
        assert hub.metrics.counter("resilience.restarts").value == 1
