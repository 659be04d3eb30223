"""Races × observability: race_log, metrics, traces, bundles."""

from repro.core.mvee import run_mvee
from repro.obs import ObsHub
from repro.obs.forensics import DivergenceBundle, summarize_bundle
from repro.perf.costs import CostModel
from repro.races.detector import RaceDetector
from tests.guestlib import VolatileFlagProgram

FAST = CostModel(monitor_syscall_overhead=2_000.0,
                 preempt_quantum=20_000.0)


def _bare_flag_run(hub):
    detector = RaceDetector()
    outcome = run_mvee(
        VolatileFlagProgram(), variants=2, agent="wall_of_clocks",
        seed=1, costs=FAST, obs=hub,
        instrument=lambda site: not site.startswith("volatile."),
        races=detector)
    return detector, outcome


class TestHubIntegration:
    def test_race_log_mirrors_report(self):
        hub = ObsHub()
        detector, _ = _bare_flag_run(hub)
        assert len(hub.race_log) == len(detector.report.races)
        for entry in hub.race_log:
            assert entry["kind"] in ("write-read", "read-write",
                                     "write-write")
            assert "at_cycles" in entry

    def test_race_counters(self):
        hub = ObsHub()
        detector, _ = _bare_flag_run(hub)
        detected = hub.metrics.counter("races.detected").value
        assert detected == len(detector.report.races)
        by_kind = sum(
            hub.metrics.counter(f"races.kind.{kind}").value
            for kind in {r.kind for r in detector.report.races})
        assert by_kind == detected

    def test_trace_carries_race_instants(self):
        hub = ObsHub()
        detector, _ = _bare_flag_run(hub)
        race_events = [e for e in hub.tracer.events
                       if getattr(e, "cat", None) == "race"]
        assert len(race_events) == len(detector.report.races)

    def test_no_hub_no_crash(self):
        detector, outcome = _bare_flag_run(None)
        assert detector.report.races  # detection works without obs


class TestBundleIntegration:
    def _diverged_bundle(self, tmp_path):
        from repro.run import NGINX_PAPER_SIZING, RunSpec, run_spec_cell
        from repro.workloads.nginx import pthread_only_sites

        path = str(tmp_path / "diverged.bundle.json")
        record = run_spec_cell(
            RunSpec("nginx", race_detect=True, params=NGINX_PAPER_SIZING),
            outputs={"obs": path}, instrument=pthread_only_sites)
        assert record.verdict == "divergence"
        assert record.extras["obs"]["bundle"] == path
        return record.races, DivergenceBundle.load(path)

    def test_bundle_embeds_race_log(self, tmp_path):
        report, bundle = self._diverged_bundle(tmp_path)
        assert len(bundle.races) == len(report.races)
        sites = {entry["current"]["site"] for entry in bundle.races}
        assert sites <= report.race_sites()

    def test_bundle_round_trips_races(self, tmp_path):
        _, bundle = self._diverged_bundle(tmp_path)
        path = tmp_path / "bundle.json"
        bundle.save(path)
        loaded = DivergenceBundle.load(path)
        assert loaded.races == bundle.races

    def test_summarize_mentions_races(self, tmp_path):
        _, bundle = self._diverged_bundle(tmp_path)
        text = summarize_bundle(bundle)
        assert "races detected" in text
        assert "nginx." in text
