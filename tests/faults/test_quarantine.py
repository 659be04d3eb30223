"""Graceful degradation: quarantine a faulty variant, keep the rest.

The ISSUE's acceptance scenario: three variants, one injected crash.
Under ``kill-all`` the whole set dies with a ``VARIANT_FAULT`` verdict;
under ``quarantine`` the survivors finish the workload with output
byte-identical to a fault-free run, plus a structured quarantine report.
"""

import pytest

from repro.core.divergence import DivergenceKind, MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan, FaultSpec
from tests.guestlib import MutexCounterProgram

CRASH_V1 = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))


def _run(plan=CRASH_V1, policy=None, variants=3, costs=None):
    return run_mvee(MutexCounterProgram(workers=3, iters=25),
                    variants=variants, seed=7, costs=costs,
                    faults=plan, policy=policy)


class TestQuarantine:
    def test_crash_quarantined_run_completes_identically(self, fast_costs):
        clean = _run(plan=None, costs=fast_costs)
        assert clean.verdict == "clean"
        outcome = _run(policy=MonitorPolicy(degradation="quarantine"),
                       costs=fast_costs)
        assert outcome.verdict == "degraded"
        assert outcome.stdout == clean.stdout
        assert len(outcome.faults) == 1
        assert outcome.faults[0].kind == "crash"

    def test_quarantine_event_is_structured(self, fast_costs):
        outcome = _run(policy=MonitorPolicy(degradation="quarantine"),
                       costs=fast_costs)
        event, = outcome.quarantines
        assert event.variant == 1
        assert event.report.kind is DivergenceKind.VARIANT_FAULT
        assert event.at_cycles > 0
        assert not event.restarted
        assert "variant 1 quarantined" in event.summary()

    def test_kill_all_reproduces_kill_verdict(self, fast_costs):
        outcome = _run(costs=fast_costs)  # default policy: kill-all
        assert outcome.verdict == "divergence"
        assert outcome.divergence.kind is DivergenceKind.VARIANT_FAULT
        assert not outcome.quarantines

    def test_master_fault_falls_back_to_kill(self, fast_costs):
        """The master is wired to real I/O: it cannot be quarantined."""
        outcome = _run(plan=FaultPlan((FaultSpec(
                           kind="crash", variant=0, at=4),)),
                       policy=MonitorPolicy(degradation="quarantine"),
                       costs=fast_costs)
        assert outcome.verdict == "divergence"
        assert not outcome.quarantines

    def test_min_active_floor_falls_back_to_kill(self, fast_costs):
        """Two variants: losing one drops below min_active=2 -> kill."""
        outcome = _run(policy=MonitorPolicy(degradation="quarantine"),
                       variants=2, costs=fast_costs)
        assert outcome.verdict == "divergence"
        assert not outcome.quarantines

    def test_min_active_one_allows_lone_master(self, fast_costs):
        clean = _run(plan=None, costs=fast_costs)
        outcome = _run(policy=MonitorPolicy(degradation="quarantine",
                                            min_active=1),
                       variants=2, costs=fast_costs)
        assert outcome.verdict == "degraded"
        assert outcome.stdout == clean.stdout

    @pytest.mark.parametrize("policy", ["quarantine", "restart"])
    def test_degraded_runs_are_deterministic(self, policy, fast_costs):
        def once():
            return _run(policy=MonitorPolicy(degradation=policy),
                        costs=fast_costs)

        first, second = once(), once()
        assert first.verdict == second.verdict == "degraded"
        assert first.cycles == second.cycles
        assert first.stdout == second.stdout
        assert ([e.summary() for e in first.quarantines]
                == [e.summary() for e in second.quarantines])
