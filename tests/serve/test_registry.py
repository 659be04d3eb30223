"""Registry tests: admission control, journal persistence, recovery."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import QuotaExceeded, SessionConflict, SessionNotFound
from repro.run import RunSpec
from repro.serve.registry import SessionRegistry, recover_state

NGINX = {"workload": "nginx", "seed": 3}


def spec(**overrides) -> RunSpec:
    return RunSpec.from_dict({**NGINX, **overrides}).validate()


class TestAdmissionControl:
    def test_quota_rejects_with_429(self):
        registry = SessionRegistry(max_sessions=2)
        registry.create(spec())
        registry.create(spec())
        with pytest.raises(QuotaExceeded) as info:
            registry.create(spec())
        assert info.value.status == 429
        assert registry.rejected_total == 1

    def test_closing_frees_a_slot(self):
        registry = SessionRegistry(max_sessions=1)
        session = registry.create(spec())
        registry.close(session.id)
        assert registry.create(spec()).id != session.id

    def test_finished_sessions_do_not_count(self):
        registry = SessionRegistry(max_sessions=1)
        session = registry.create(spec())
        session.state = "finished"
        registry.create(spec())

    def test_concurrent_creates_respect_the_quota(self):
        registry = SessionRegistry(max_sessions=16)
        outcomes = []
        lock = threading.Lock()

        def _create():
            try:
                registry.create(spec())
                result = "ok"
            except QuotaExceeded:
                result = "rejected"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=_create) for _ in range(40)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("ok") == 16
        assert outcomes.count("rejected") == 24
        assert registry.active_count() == 16
        assert registry.peak_active == 16

    def test_get_unknown_session_is_404(self):
        registry = SessionRegistry()
        with pytest.raises(SessionNotFound):
            registry.get("s-999")


class TestPersistence:
    def _registry(self, tmp_path, **kwargs) -> SessionRegistry:
        return SessionRegistry(state_dir=str(tmp_path / "state"),
                               **kwargs)

    @pytest.mark.parametrize("policy,expected", [
        ("kill-all", "killed"),
        ("quarantine", "quarantined"),
        ("restart", "created"),
    ])
    def test_in_flight_recovery_follows_policy(self, tmp_path, policy,
                                               expected):
        first = self._registry(tmp_path)
        session = first.create(spec(policy=policy))
        first.mark(session, "running")
        first.shutdown()
        second = self._registry(tmp_path)
        recovered = second.get(session.id)
        assert recovered.state == expected
        assert second.recovered == {session.id: expected}
        assert recovered.spec == session.spec

    def test_terminal_states_survive_verbatim(self, tmp_path):
        first = self._registry(tmp_path)
        finished = first.create(spec())
        first.mark(finished, "finished")
        closed = first.create(spec())
        first.mark(closed, "closed")
        first.shutdown()
        second = self._registry(tmp_path)
        assert second.get(finished.id).state == "finished"
        with pytest.raises(SessionNotFound):
            second.get(closed.id)     # closed sessions are compacted out
        assert second.recovered == {}

    def test_ids_never_reused_after_restart(self, tmp_path):
        first = self._registry(tmp_path)
        ids = [first.create(spec()).id for _ in range(3)]
        first.shutdown()
        second = self._registry(tmp_path)
        assert second.create(spec()).id not in ids

    def test_torn_tail_line_is_ignored(self, tmp_path):
        first = self._registry(tmp_path)
        survivor = first.create(spec())
        first.shutdown()
        path = tmp_path / "state" / "registry.jsonl"
        with open(path, "a") as handle:
            handle.write('{"event": "create", "id": "s-99", "spe')
        second = self._registry(tmp_path)
        assert second.get(survivor.id).state == "created"
        with pytest.raises(SessionNotFound):
            second.get("s-99")

    def test_journal_is_compacted_on_startup(self, tmp_path):
        first = self._registry(tmp_path)
        session = first.create(spec())
        for state in ("running", "quarantined", "created", "running"):
            first.mark(session, state)
        first.shutdown()
        second = self._registry(tmp_path)
        second.shutdown()
        lines = [json.loads(line) for line in
                 open(tmp_path / "state" / "registry.jsonl")]
        # One create line per surviving session, no state-change spam.
        assert len(lines) == 1
        assert lines[0]["event"] == "create"
        # "running" at shutdown + kill-all default -> recovered killed.
        assert lines[0]["state"] == "killed"

    def test_resume_requires_quarantined(self, tmp_path):
        registry = SessionRegistry()
        session = registry.create(spec())
        with pytest.raises(SessionConflict):
            registry.resume(session.id)
        session.state = "quarantined"
        resumed = registry.resume(session.id)
        assert resumed.state == "created"
        assert resumed.result is None and resumed.steps == 0


class TestRecoverState:
    def test_mapping(self):
        assert recover_state("running", "kill-all") == "killed"
        assert recover_state("queued", "quarantine") == "quarantined"
        assert recover_state("running", "restart") == "created"
        assert recover_state("finished", "kill-all") == "finished"
        assert recover_state("created", "quarantine") == "created"
