"""Serve crash recovery: resume in-flight work from replay artifacts.

A recording session (``state_dir`` + ``checkpoint_every``) streams its
decision log and checkpoints to disk as it runs.  When the daemon dies
mid-session, the next incarnation finds the journal saying the session
was running, rebuilds it from the newest usable checkpoint plus the
(possibly torn) log prefix, and — because the replayed prefix is
re-observed — converges to exactly the verdict, cycle count, and obs
digest an uninterrupted run produces.
"""

from __future__ import annotations

import os

from repro.run import RunSpec
from repro.serve.registry import SessionRegistry

SPEC = {"workload": "nginx", "seed": 5, "policy": "restart"}

CHECKPOINT_EVERY = 10_000.0
STEP_EVENTS = 25


def _spec() -> RunSpec:
    return RunSpec.from_dict(SPEC).validate()


def _registry(root) -> SessionRegistry:
    return SessionRegistry(state_dir=str(root),
                           checkpoint_every=CHECKPOINT_EVERY)


def _drive(session, limit=200):
    """Step a session to completion; returns its final result dict."""
    for _ in range(limit):
        with session.lock:
            envelope = session.step(STEP_EVENTS)
        if envelope["done"]:
            return envelope["result"]
    raise AssertionError("session did not finish within the budget")


class TestCrashRecovery:
    def test_resumed_session_converges_to_uninterrupted_result(
            self, tmp_path):
        # Uninterrupted reference run in its own state dir.
        ref_registry = _registry(tmp_path / "ref")
        ref_session = ref_registry.create(_spec())
        ref_session.state = "running"
        ref_registry.journal_state(ref_session)
        reference = _drive(ref_session)
        ref_registry.journal_state(ref_session)
        ref_registry.shutdown()

        # The same run, killed mid-flight: journal says "running", the
        # decision log is left with a torn tail past the checkpoint.
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=str(state),
                                   checkpoint_every=CHECKPOINT_EVERY)
        session = registry.create(_spec())
        session.state = "running"
        registry.journal_state(session)
        for _ in range(8):
            with session.lock:
                envelope = session.step(STEP_EVENTS)
            assert not envelope["done"]
        session.release_writer()   # crash: no seal, no journal update
        registry.shutdown()
        log_path = session.decision_log_path()
        assert os.path.exists(log_path)
        assert os.path.exists(session.checkpoint_path())
        with open(log_path, "rb+") as handle:
            handle.truncate(os.path.getsize(log_path) - 30)

        recovered = SessionRegistry(state_dir=str(state),
                                    checkpoint_every=CHECKPOINT_EVERY)
        survivor = recovered.get(session.id)
        assert survivor.state == "created"
        assert survivor.resume_from_disk
        result = _drive(survivor)
        recovered.shutdown()

        resumed = result["resumed"]
        assert resumed["replayed_records"] > 0
        assert resumed["discarded_records"] > 0
        assert result["verdict"] == reference["verdict"]
        assert result["cycles"] == reference["cycles"]
        assert result["obs_digest"] == reference["obs_digest"]

    def test_recovery_without_artifacts_restarts_from_scratch(
            self, tmp_path):
        state = tmp_path / "state"
        registry = _registry(state)
        session = registry.create(_spec())
        session.state = "running"
        registry.journal_state(session)
        registry.shutdown()
        # No step ever ran: there is no decision log or checkpoint on
        # disk, so the recovered session runs from scratch — and still
        # lands on the seeded-deterministic result.
        recovered = _registry(state)
        survivor = recovered.get(session.id)
        assert survivor.state == "created"
        assert survivor.resume_from_disk
        result = _drive(survivor)
        recovered.shutdown()
        assert "resumed" not in result
        assert result["verdict"] == "clean"
