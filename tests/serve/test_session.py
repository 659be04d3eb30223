"""Session unit tests: spec validation, stepped-vs-one-shot identity,
quota kills, and the lifecycle x degradation-policy matrix."""

from __future__ import annotations

import pytest

from repro.errors import BadRequest, SessionConflict
from repro.experiments.serve_load import single_shot
from repro.run import RunSpec, build_mvee
from repro.serve.session import Session

SHORT_NGINX_SPEC = {"workload": "nginx", "seed": 5}


class TestSpecValidation:
    def test_defaults_validate(self):
        spec = RunSpec.from_dict(SHORT_NGINX_SPEC).validate()
        assert spec.agent == "wall_of_clocks"
        assert spec.variants == 2

    def test_round_trips_through_json_dict(self):
        spec = RunSpec.from_dict(
            {"workload": "fft", "scale": 0.05, "seed": 9,
             "faults": "crash@v1:3", "policy": "quarantine"}).validate()
        again = RunSpec.from_dict(spec.to_dict()).validate()
        assert again == spec

    @pytest.mark.parametrize("bad", [
        {"workload": "no-such-workload"},
        {"workload": "fft", "agent": "psychic"},
        {"workload": "fft", "policy": "shrug"},
        {"workload": "fft", "variants": 1},
        {"workload": "fft", "variants": 99},
        {"workload": "fft", "scale": 0.0},
        {"workload": "fft", "faults": "nonsense"},
        {"workload": "fft", "params": {"x": 1}},
        {"workload": "nginx", "params": {"bogus_knob": 1}},
        {"workload": "fft", "unknown_field": 1},
        {},
        "not a dict",
    ])
    def test_bad_specs_raise_bad_request(self, bad):
        with pytest.raises(BadRequest):
            if isinstance(bad, dict):
                spec = RunSpec.from_dict(bad)
                spec.validate()
                # Fields rejected only at MVEE-build time (nginx params)
                # surface when the session materialises.
                build_mvee(spec)
            else:
                RunSpec.from_dict(bad)


class TestSteppedIdentity:
    """A budgeted sequence of steps == one uninterrupted run."""

    @pytest.mark.parametrize("spec_dict", [
        SHORT_NGINX_SPEC,
        {"workload": "fft", "scale": 0.05, "seed": 5},
        {"workload": "dedup", "scale": 0.05, "seed": 5,
         "faults": "crash@v1:3", "policy": "quarantine"},
    ])
    def test_stepped_equals_single_shot(self, spec_dict):
        oracle = single_shot(dict(spec_dict))
        spec = RunSpec.from_dict(dict(spec_dict)).validate()
        session = Session("s-1", spec)
        envelope = None
        for _ in range(100_000):
            envelope = session.step(5)
            if envelope["done"]:
                break
        assert envelope["done"]
        assert session.steps > 1           # actually exercised resume
        assert envelope["result"]["verdict"] == oracle["verdict"]
        assert envelope["result"]["obs_digest"] == oracle["obs_digest"]
        assert envelope["result"]["cycles"] == oracle["cycles"]

    def test_step_batch_size_does_not_change_outcome(self):
        results = []
        for budget in (50, 700, 10**9):
            spec = RunSpec.from_dict(dict(SHORT_NGINX_SPEC))
            session = Session("s-x", spec.validate())
            while True:
                envelope = session.step(budget)
                if envelope["done"]:
                    break
            results.append(envelope["result"])
        assert results[0]["obs_digest"] == results[1]["obs_digest"]
        assert results[1]["obs_digest"] == results[2]["obs_digest"]

    def test_fault_events_stream_once_each(self):
        spec = RunSpec.from_dict(
            {"workload": "dedup", "scale": 0.05, "seed": 5,
             "variants": 3, "faults": "crash@v1:3",
             "policy": "quarantine"}).validate()
        session = Session("s-f", spec)
        events = []
        while True:
            envelope = session.step(300)
            events.extend(envelope["events"])
            if envelope["done"]:
                break
        kinds = [event["type"] for event in events]
        assert "fault" in kinds and "recovery" in kinds
        # Stream seqs are unique and increasing: no re-delivery.
        seqs = [event["stream_seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # The underlying records pass through intact.
        fault = next(e for e in events if e["type"] == "fault")
        assert fault["record"]["kind"] == "crash"


class TestLifecycle:
    def test_cycle_quota_kills_session(self):
        spec = RunSpec.from_dict(
            {"workload": "fft", "scale": 0.05, "seed": 5}).validate()
        session = Session("s-q", spec, max_cycles=1.0)
        while True:
            envelope = session.step(5)
            if envelope["state"] in ("finished", "killed"):
                break
        assert session.state == "killed"
        assert session.result["verdict"] == "killed"
        assert session.result["reason"] == "cycle quota exceeded"

    def test_step_after_finish_conflicts(self):
        spec = RunSpec.from_dict(dict(SHORT_NGINX_SPEC)).validate()
        session = Session("s-d", spec)
        while not session.step(10**9)["done"]:
            pass
        with pytest.raises(SessionConflict):
            session.step(100)


class TestDegradationMatrix:
    """create -> drive -> fault-injected divergence -> policy outcome.

    The serve layer must surface exactly the monitor's degradation
    semantics: kill-all turns the injected crash into a divergence
    verdict, quarantine/restart complete degraded -- and every policy's
    served outcome is byte-identical to the single-shot run.
    """

    FAULTED = {"workload": "dedup", "scale": 0.05, "seed": 5,
               "variants": 3, "faults": "crash@v1:3"}

    @pytest.mark.parametrize("policy,verdict", [
        ("kill-all", "divergence"),
        ("quarantine", "degraded"),
        ("restart", "degraded"),
    ])
    def test_policy_outcomes_match_single_shot(self, policy, verdict):
        spec_dict = dict(self.FAULTED, policy=policy)
        oracle = single_shot(dict(spec_dict))
        assert oracle["verdict"] == verdict
        session = Session(
            "s-p", RunSpec.from_dict(dict(spec_dict)).validate())
        while True:
            envelope = session.step(400)
            if envelope["done"]:
                break
        assert envelope["result"]["verdict"] == verdict
        assert envelope["result"]["obs_digest"] == oracle["obs_digest"]
        if policy == "quarantine":
            assert envelope["result"]["quarantines"]
