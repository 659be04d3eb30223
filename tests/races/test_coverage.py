"""The coverage cross-check: the subsystem's headline acceptance test.

Un-instrumented nginx must yield gaps naming the custom primitives the
§5.5 analysis missed; the fully-identified run must be gap-free with
zero races.
"""

import pytest

from repro.core.mvee import run_mvee
from repro.perf.costs import CostModel
from repro.races.coverage import (
    REFACTOR,
    TREAT_VOLATILE,
    corroborate,
    cross_check,
    primitive_of,
)
from repro.races.detector import RaceDetector
from repro.run import NGINX_PAPER_SIZING, RunSpec, run_spec_cell
from repro.workloads.nginx import pthread_only_sites
from tests.guestlib import VolatileFlagProgram

FAST = CostModel(monitor_syscall_overhead=2_000.0,
                 preempt_quantum=20_000.0)

#: The §5.5 server with the race detector attached.
NGINX_SPEC = RunSpec("nginx", race_detect=True, params=NGINX_PAPER_SIZING)


class TestPrimitiveOf:
    def test_four_components(self):
        assert primitive_of("nginx.spinlock.lock.cmpxchg") \
            == "nginx.spinlock"

    def test_deep_labels_keep_prefix(self):
        assert primitive_of("libc.malloc.arena.lock.cmpxchg") \
            == "libc.malloc.arena"

    def test_short_labels_degrade(self):
        assert primitive_of("flag.store") == "flag"
        assert primitive_of("flag") == "flag"


class TestVolatileFlagGap:
    """The Listing-2 loop closed on the runtime side."""

    def _coverage(self):
        detector = RaceDetector()
        identified = lambda site: not site.startswith("volatile.")
        run_mvee(VolatileFlagProgram(), variants=2,
                 agent="wall_of_clocks", seed=1, costs=FAST,
                 instrument=identified, races=detector)
        # every site the run could have instrumented except the flag's
        from repro.guest.sync import LIBPTHREAD_SITES
        return cross_check(detector.report, LIBPTHREAD_SITES,
                           workload="volatile_flag")

    def test_gap_names_the_flag_primitive(self):
        coverage = self._coverage()
        assert not coverage.clean
        gap = coverage.gap_for("volatile.flag")
        assert gap is not None
        assert gap.sites <= {"volatile.flag.raise.store",
                             "volatile.flag.poll.load"}

    def test_plain_ops_suggest_volatile_remediation(self):
        gap = self._coverage().gap_for("volatile.flag")
        assert gap.ops <= {"load", "store"}
        assert gap.remediation == TREAT_VOLATILE


class TestNginxCrossCheck:
    """§5.5 before/after: the gap is visible, then closed."""

    @pytest.fixture(scope="class")
    def before(self):
        from repro.experiments.runner import nginx_identified_sites

        record = run_spec_cell(NGINX_SPEC, instrument=pthread_only_sites)
        coverage = cross_check(
            record.races,
            nginx_identified_sites(after_refactor=False),
            workload="nginx/bare")
        return record.races, record, coverage

    @pytest.fixture(scope="class")
    def after(self):
        from repro.experiments.runner import nginx_identified_sites

        record = run_spec_cell(NGINX_SPEC)
        coverage = cross_check(
            record.races,
            nginx_identified_sites(after_refactor=True),
            workload="nginx/full")
        return record.races, record, coverage

    def test_bare_run_has_gaps(self, before):
        _, _, coverage = before
        assert not coverage.clean
        assert len(coverage.gaps) >= 1

    def test_gaps_name_custom_primitives(self, before):
        _, _, coverage = before
        primitives = {gap.primitive for gap in coverage.gaps}
        assert primitives <= {"nginx.spinlock", "nginx.queue"}
        assert "nginx.spinlock" in primitives

    def test_rmw_primitives_suggest_refactor(self, before):
        _, _, coverage = before
        spinlock = coverage.gap_for("nginx.spinlock")
        assert "cmpxchg" in "".join(spinlock.sites)
        assert spinlock.remediation == REFACTOR

    def test_missed_sites_are_nginx_only(self, before):
        _, _, coverage = before
        assert coverage.missed_sites()
        for site in coverage.missed_sites():
            assert site.startswith("nginx.")

    def test_bare_run_diverges(self, before):
        _, outcome, _ = before
        assert outcome.verdict != "clean"

    def test_full_instrumentation_closes_gap(self, after):
        report, outcome, coverage = after
        assert outcome.verdict == "clean"
        assert coverage.clean
        assert not report.races
        assert report.sync_ops_seen > 0

    def test_covered_races_counted(self, before):
        """Races at identified sites (if any) are covered, not gaps."""
        report, _, coverage = before
        attributed = sum(len(gap.races) for gap in coverage.gaps)
        assert attributed >= len(report.races) - coverage.covered_races


class TestCorroborate:
    class FakeLint:
        def __init__(self, sites):
            self._sites = set(sites)

        def candidate_sites(self):
            return self._sites

    def _gap_coverage(self):
        detector = RaceDetector()
        run_mvee(VolatileFlagProgram(), variants=2,
                 agent="wall_of_clocks", seed=1, costs=FAST,
                 instrument=lambda s: not s.startswith("volatile."),
                 races=detector)
        return cross_check(detector.report, frozenset(),
                           workload="volatile_flag")

    def test_lint_agreement_marked(self):
        coverage = corroborate(
            self._gap_coverage(),
            self.FakeLint({"volatile.flag.raise.store"}))
        gap = coverage.gap_for("volatile.flag")
        assert gap.lint_agrees is True

    def test_lint_disagreement_marked(self):
        coverage = corroborate(self._gap_coverage(),
                               self.FakeLint({"other.site"}))
        assert coverage.gap_for("volatile.flag").lint_agrees is False

    def test_accepts_list_of_lints(self):
        coverage = corroborate(
            self._gap_coverage(),
            [self.FakeLint(set()),
             self.FakeLint({"volatile.flag.poll.load"})])
        assert coverage.gap_for("volatile.flag").lint_agrees is True

    def test_unchecked_is_none(self):
        gap = self._gap_coverage().gap_for("volatile.flag")
        assert gap.lint_agrees is None


class TestReportSerialization:
    def test_to_dict_round_trips_key_fields(self):
        detector = RaceDetector()
        run_mvee(VolatileFlagProgram(), variants=2,
                 agent="wall_of_clocks", seed=1, costs=FAST,
                 instrument=lambda s: not s.startswith("volatile."),
                 races=detector)
        coverage = cross_check(detector.report, frozenset(),
                               workload="volatile_flag")
        data = coverage.to_dict()
        assert data["workload"] == "volatile_flag"
        assert data["gaps"]
        gap = data["gaps"][0]
        assert set(gap) >= {"primitive", "sites", "ops", "races",
                            "remediation", "lint_agrees"}
