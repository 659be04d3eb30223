"""Divergence forensics: bundle capture, round-trip, and tail diffing.

The reference workload is :func:`repro.core.injection.make_divergence_probe`:
every variant issues the same monitored calls except that one variant
substitutes a different syscall at a known call index.  The bundle's
event tails must first differ at exactly that call.
"""

import pytest

from repro.core.injection import make_divergence_probe
from repro.core.mvee import run_mvee
from repro.obs import ObsHub
from repro.obs.forensics import (
    DivergenceBundle,
    bundle_to_chrome,
    diff_tails,
    summarize_bundle,
)

AT_CALL = 3


@pytest.fixture(scope="module")
def diverged():
    """One observed run of the probe, shared across this module."""
    hub = ObsHub()
    outcome = run_mvee(make_divergence_probe(at_call=AT_CALL),
                       variants=2, agent="wall_of_clocks", seed=1,
                       obs=hub)
    return hub, outcome


class TestProbe:
    def test_at_call_validated(self):
        with pytest.raises(ValueError, match="at_call"):
            make_divergence_probe(at_call=6, benign_calls=6)
        with pytest.raises(ValueError):
            make_divergence_probe(at_call=-1)

    def test_probe_diverges_at_injected_call(self, diverged):
        _, outcome = diverged
        assert outcome.verdict == "divergence"
        assert outcome.divergence.kind.value == "syscall_mismatch"
        assert outcome.divergence.syscall_seq == AT_CALL


class TestBundleCapture:
    def test_outcome_carries_bundle(self, diverged):
        _, outcome = diverged
        bundle = outcome.obs_bundle
        assert bundle is not None
        assert bundle.report["kind"] == "syscall_mismatch"
        assert bundle.report["syscall_seq"] == AT_CALL
        assert bundle.config["agent"] == "wall_of_clocks"
        assert bundle.config["seed"] == 1

    def test_tails_cover_every_variant(self, diverged):
        _, outcome = diverged
        tails = outcome.obs_bundle.tails
        assert sorted(tails) == [0, 1]
        assert all(tails[variant] for variant in tails)

    def test_in_flight_names_the_mismatched_call(self, diverged):
        _, outcome = diverged
        in_flight = outcome.obs_bundle.in_flight
        assert in_flight[0]["main"]["seq"] == AT_CALL
        assert in_flight[1]["main"]["seq"] == AT_CALL
        assert in_flight[0]["main"]["name"] == "gettimeofday"
        assert in_flight[1]["main"]["name"] == "getpid"

    def test_metrics_snapshot_included(self, diverged):
        _, outcome = diverged
        metrics = outcome.obs_bundle.metrics
        assert metrics["divergence.total"] == 1
        assert metrics["divergence.kind.syscall_mismatch"] == 1


class TestDiffTails:
    def test_first_difference_is_the_injected_call(self, diverged):
        _, outcome = diverged
        assert diff_tails(outcome.obs_bundle) == {
            "main": {"seq": AT_CALL,
                     "calls": {0: "gettimeofday", 1: "getpid"}}}

    @pytest.mark.parametrize("at_call", [0, 5])
    def test_tracks_injection_point(self, at_call):
        hub = ObsHub()
        outcome = run_mvee(make_divergence_probe(at_call=at_call),
                           variants=2, agent="wall_of_clocks", seed=1,
                           obs=hub)
        assert outcome.verdict == "divergence"
        divergences = diff_tails(outcome.obs_bundle)
        assert divergences["main"]["seq"] == at_call

    def test_identical_tails_report_nothing(self):
        bundle = DivergenceBundle(report={}, tails={
            0: [{"name": "open", "cat": "call", "thread": "main",
                 "args": {"seq": 0}}],
            1: [{"name": "open", "cat": "call", "thread": "main",
                 "args": {"seq": 0}}]})
        assert diff_tails(bundle) == {}


class TestRoundTrip:
    def test_save_load_preserves_bundle(self, diverged, tmp_path):
        _, outcome = diverged
        bundle = outcome.obs_bundle
        path = tmp_path / "bundle.json"
        bundle.save(path)
        loaded = DivergenceBundle.load(path)
        assert loaded.to_json_dict() == bundle.to_json_dict()
        # variant keys come back as ints, so diffing still works
        assert diff_tails(loaded) == diff_tails(bundle)

    def test_summarize(self, diverged):
        _, outcome = diverged
        text = summarize_bundle(outcome.obs_bundle)
        assert "syscall_mismatch" in text
        assert f"first differing call: thread main call #{AT_CALL}" in text

    def test_bundle_to_chrome(self, diverged):
        _, outcome = diverged
        chrome = bundle_to_chrome(outcome.obs_bundle)
        events = chrome["traceEvents"]
        assert {event["pid"] for event in events} == {0, 1}
        assert any(event.get("name") == "getpid" for event in events)
        # timestamps are sorted so Perfetto renders a coherent timeline
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)
