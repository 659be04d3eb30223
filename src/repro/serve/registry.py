"""Session registry: admission control + a JSONL journal that survives
daemon restarts.

The journal (``<state_dir>/registry.jsonl``) is append-only during
operation — one line per session creation or state change, flushed
before the response goes out — and compacted to one line per live
session on startup.  Replaying it after a crash recovers every session;
what happens to sessions that were *in flight* when the daemon died is
decided by the session's own degradation policy, reusing the semantics
the monitor applies to condemned variants (``docs/RESILIENCE.md``):

========== ============= ==============================================
policy     recovers as   meaning
========== ============= ==============================================
kill-all   ``killed``    the paper's default: an interrupted execution
                         is dead; the client re-creates it.
quarantine ``quarantined`` held for inspection; ``resume`` rebuilds the
                         MVEE from the journaled spec and re-executes —
                         seeded determinism converges to the original
                         result.
restart    ``created``   automatically re-admitted; the next step or
                         run starts it from scratch.
========== ============= ==============================================
"""

from __future__ import annotations

import itertools
import json
import os
import threading

from repro.errors import (
    BadRequest,
    QuotaExceeded,
    SessionConflict,
    SessionNotFound,
)
from repro.logio import read_jsonl
from repro.run import RunSpec
from repro.serve.session import CLOSEABLE_STATES, SESSION_STATES, Session

#: States that count against the concurrent-session quota.
ACTIVE_STATES = ("created", "running", "queued")

#: What an in-flight state becomes after a daemon restart, by policy.
RECOVERY = {"kill-all": "killed", "quarantine": "quarantined",
            "restart": "created"}


def recover_state(state: str, policy: str) -> str:
    """Post-restart state for a journaled session."""
    if state in ("running", "queued"):
        return RECOVERY[policy]
    return state


class SessionRegistry:
    """Thread-safe session table with quotas and journal persistence."""

    def __init__(self, state_dir: str | None = None,
                 max_sessions: int = 64,
                 max_cycles_per_session: float | None = None,
                 checkpoint_every: float | None = None):
        self.state_dir = state_dir
        self.max_sessions = max_sessions
        self.max_cycles_per_session = max_cycles_per_session
        #: Cycle cadence for session decision-log checkpoints; ``None``
        #: disables recording (sessions then recover by policy alone).
        self.checkpoint_every = checkpoint_every
        self.sessions: dict[str, Session] = {}
        self.peak_active = 0
        self.created_total = 0
        self.rejected_total = 0
        self.recovered: dict[str, str] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._journal = None
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            self._load_and_compact()

    # -- journal -------------------------------------------------------------

    @property
    def journal_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, "registry.jsonl")

    def _load_and_compact(self) -> None:
        """Replay the journal, apply recovery policy, rewrite compactly."""
        path = self.journal_path
        records: dict[str, dict] = {}
        if os.path.exists(path):
            # Same torn-tail-tolerant reader the decision logs use: a
            # crash mid-append leaves at worst one unparseable (or
            # unterminated) final line, which is dropped; interior junk
            # is skipped too — the journal is advisory, not a ledger.
            for entry in read_jsonl(path, on_bad="skip").records:
                if not isinstance(entry, dict):
                    continue
                sid = entry.get("id")
                if not sid:
                    continue
                if entry.get("event") == "create":
                    records[sid] = entry
                elif sid in records:
                    records[sid]["state"] = entry.get("state")
        highest = 0
        for sid, entry in records.items():
            state = entry.get("state", "created")
            if state == "closed" or state not in SESSION_STATES:
                continue
            try:
                spec = RunSpec.from_dict(entry["spec"]).validate()
            except (KeyError, BadRequest):
                continue
            new_state = recover_state(state, spec.policy)
            if new_state != state:
                self.recovered[sid] = new_state
            session = Session(sid, spec,
                              max_cycles=self.max_cycles_per_session,
                              state_dir=self.state_dir,
                              checkpoint_every=self.checkpoint_every)
            session.state = new_state
            if (state in ("running", "queued")
                    and new_state == "created" and session.recording):
                # Interrupted restart-policy session with replay
                # artifacts on disk: the first step resumes in-flight
                # work from checkpoint + decision-log prefix instead of
                # re-executing from scratch.
                session.resume_from_disk = True
            self.sessions[sid] = session
            try:
                highest = max(highest, int(sid.split("-")[-1]))
            except ValueError:
                pass
        self._ids = itertools.count(highest + 1)
        # Compact: one create line per surviving session, current state.
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            for session in self.sessions.values():
                handle.write(json.dumps(
                    {"event": "create", "id": session.id,
                     "spec": session.spec.to_dict(),
                     "state": session.state}, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._journal = open(path, "a")

    def _append(self, entry: dict) -> None:
        if self._journal is None and self.journal_path is not None:
            self._journal = open(self.journal_path, "a")
        if self._journal is not None:
            self._journal.write(json.dumps(entry, sort_keys=True) + "\n")
            self._journal.flush()

    # -- session table -------------------------------------------------------

    def active_count(self) -> int:
        return sum(1 for s in self.sessions.values()
                   if s.state in ACTIVE_STATES)

    def create(self, spec: RunSpec, bundle_dir: str | None = None
               ) -> Session:
        """Admit a new session or raise :class:`QuotaExceeded`.

        Admission is atomic with the count check — two concurrent
        creates cannot both squeeze past the quota.
        """
        spec.validate()
        with self._lock:
            active = self.active_count()
            if active >= self.max_sessions:
                self.rejected_total += 1
                raise QuotaExceeded(
                    f"session quota reached ({active}/"
                    f"{self.max_sessions} active); close a session or "
                    "retry later")
            session_id = f"s-{next(self._ids)}"
            session = Session(session_id, spec,
                              max_cycles=self.max_cycles_per_session,
                              bundle_dir=bundle_dir,
                              state_dir=self.state_dir,
                              checkpoint_every=self.checkpoint_every)
            self.sessions[session_id] = session
            self.created_total += 1
            self.peak_active = max(self.peak_active, active + 1)
            self._append({"event": "create", "id": session_id,
                          "spec": spec.to_dict(), "state": "created"})
            return session

    def get(self, session_id) -> Session:
        if not isinstance(session_id, str):
            raise BadRequest("request needs a string 'id' field")
        session = self.sessions.get(session_id)
        if session is None:
            raise SessionNotFound(f"no session {session_id!r}")
        return session

    def mark(self, session: Session, state: str) -> None:
        """Record a state change (journaled, so it survives restarts)."""
        session.state = state
        with self._lock:
            self._append({"event": "state", "id": session.id,
                          "state": state})

    def journal_state(self, session: Session) -> None:
        """Journal the session's *current* state (after a transition the
        session object made itself, e.g. inside :meth:`Session.step`)."""
        with self._lock:
            self._append({"event": "state", "id": session.id,
                          "state": session.state})

    def resume(self, session_id: str) -> Session:
        """Re-admit a quarantined session as a fresh ``created`` one.

        The new session shares the old spec (and therefore converges to
        the same simulated timeline); the quarantined record is closed.
        """
        session = self.get(session_id)
        with session.lock:
            if session.state != "quarantined":
                raise SessionConflict(
                    f"session {session_id} is {session.state}; only "
                    "quarantined sessions can be resumed")
            session.state = "created"
            session.release_writer()
            session._mvee = None
            session._hub = None
            session.result = None
            session.ticket = None
            session.steps = 0
        with self._lock:
            self._append({"event": "state", "id": session_id,
                          "state": "created"})
        return session

    def close(self, session_id: str) -> Session:
        session = self.get(session_id)
        with session.lock:
            if session.state not in CLOSEABLE_STATES:
                raise SessionConflict(
                    f"session {session_id} is {session.state}; close "
                    "accepts " + ", ".join(CLOSEABLE_STATES))
            session.state = "closed"
            session.release_writer()
            session._mvee = None
            session._hub = None
        with self._lock:
            self._append({"event": "state", "id": session_id,
                          "state": "closed"})
        return session

    def status(self) -> dict:
        with self._lock:
            by_state = {state: 0 for state in SESSION_STATES}
            for session in self.sessions.values():
                by_state[session.state] += 1
            return {"sessions": by_state,
                    "active": self.active_count(),
                    "max_sessions": self.max_sessions,
                    "peak_active": self.peak_active,
                    "created_total": self.created_total,
                    "rejected_total": self.rejected_total,
                    "recovered": dict(self.recovered)}

    def table(self, limit: int = 32) -> list[dict]:
        """Per-session rows for the live view (``repro top``):
        in-flight sessions before terminal ones, then creation order,
        capped at ``limit`` so a long-lived daemon's status stays
        bounded."""
        in_flight = ("created", "running", "queued")
        with self._lock:
            sessions = list(self.sessions.values())
        sessions.sort(key=lambda s: (s.state not in in_flight,
                                     len(s.id), s.id))
        rows = []
        for session in sessions[:max(0, limit)]:
            rows.append({
                "id": session.id,
                "state": session.state,
                "workload": session.spec.workload,
                "steps": session.steps,
                "verdict": (session.result or {}).get("verdict"),
            })
        return rows

    def shutdown(self) -> None:
        for session in self.sessions.values():
            session.release_writer()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
