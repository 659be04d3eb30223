"""Race detector × fault injection: state survives quarantine/restart.

The detector keeps per-thread vector clocks keyed by variant.  When the
resilience layer condemns and restarts a variant, ``reset_variant``
must drop the dead incarnation's clocks and per-variant history —
otherwise the reincarnated threads appear un-ordered against their
predecessors' accesses and the detector reports ghost races.
"""

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan, FaultSpec
from repro.races.detector import RaceDetector
from tests.guestlib import MutexCounterProgram

CRASH_V1 = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))
CORRUPT_V1 = FaultPlan((FaultSpec(kind="corrupt_sync", variant=1,
                                  at=6),))


def _run(policy, plan, costs, detector):
    return run_mvee(MutexCounterProgram(workers=3, iters=25),
                    variants=3, seed=7, costs=costs, faults=plan,
                    policy=policy, races=detector)


class TestDetectorSurvivesRecovery:
    def test_no_false_races_across_restart(self, fast_costs):
        """A crash + restart cycles variant 1; the fully instrumented
        run must stay race-free before and after the swap."""
        detector = RaceDetector()
        outcome = _run(MonitorPolicy(degradation="restart"), CRASH_V1,
                       fast_costs, detector)
        assert outcome.verdict == "degraded"
        event, = outcome.quarantines
        assert event.restarted
        assert not detector.report.races, \
            [str(r) for r in detector.report.races]

    def test_no_false_races_across_quarantine(self, fast_costs):
        detector = RaceDetector()
        outcome = _run(MonitorPolicy(degradation="quarantine"),
                       CRASH_V1, fast_costs, detector)
        assert outcome.verdict == "degraded"
        assert not detector.report.races

    def test_corrupt_sync_under_restart(self, fast_costs):
        """The satellite's named scenario: corrupted replay state gets
        the variant condemned; the detector must ride through the
        restart without inventing races."""
        detector = RaceDetector()
        outcome = _run(MonitorPolicy(degradation="restart"), CORRUPT_V1,
                       fast_costs, detector)
        assert outcome.verdict in ("degraded", "clean")
        assert not detector.report.races

    def test_restarted_variant_state_was_reset(self, fast_costs):
        """After the run no thread clock of the condemned incarnation
        may linger un-reset: every v1 clock present must belong to the
        replacement (created after the quarantine event)."""
        detector = RaceDetector()
        outcome = _run(MonitorPolicy(degradation="restart"), CRASH_V1,
                       fast_costs, detector)
        event, = outcome.quarantines
        assert event.variant == 1
        # the replacement re-ran from scratch, so v1 clocks exist again
        assert any(tid.startswith("v1:") for tid in detector._threads)
        # other variants' clocks were never touched
        assert any(tid.startswith("v0:") for tid in detector._threads)

    def test_races_recorded_before_reset_survive(self, fast_costs):
        """reset_variant forgets clocks, not history: races already in
        the report stay there."""
        detector = RaceDetector(sync_sites=lambda site: False)
        _run(MonitorPolicy(degradation="restart"), CRASH_V1,
             fast_costs, detector)
        assert detector.report.races  # positive control still reported

    def test_sync_ops_still_observed_after_restart(self, fast_costs):
        baseline = RaceDetector()
        _run(MonitorPolicy(), None, fast_costs, baseline)
        detector = RaceDetector()
        _run(MonitorPolicy(degradation="restart"), CRASH_V1,
             fast_costs, detector)
        # the restarted variant replays its history, so the degraded
        # run commits at least as many instrumented sync ops
        assert detector.report.sync_ops_seen \
            >= baseline.report.sync_ops_seen
