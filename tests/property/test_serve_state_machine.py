"""Stateful property test of one serve daemon, driven through ``handle()``.

Random interleavings of create, step, run, poll, close and resume over
short fft sessions, against one inline daemon with a two-session
admission quota and a cycle quota that one of the specs exceeds.  The
invariants are the serve contract:

* every op returns an ok response or raises a typed ``ServeError``;
* active sessions never exceed the admission quota;
* a settled session's result is the daemon-less single-shot result, or
  the cycle-quota kill exactly when the single-shot run's cycles exceed
  the quota, on the stepped and the batch path alike.

Worker kills, daemon restarts and journals are not driven here.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.errors import QuotaExceeded, SessionConflict, ServeError
from repro.experiments.serve_load import single_shot
from repro.serve.daemon import ServeConfig, ServeDaemon

MAX_SESSIONS = 2

#: fft at these seeds runs 39.21M, 39.50M and 39.93M cycles: the quota
#: lets the first two finish and kills the third.
SPECS = [{"workload": "fft", "scale": 0.05, "seed": seed}
         for seed in (2, 1, 3)]
QUOTA = 39.7e6
#: Step budgets: a run is about 500 events, so small budgets stop
#: mid-run (where the third spec is killed past the quota) and the
#: largest finishes it in one step.
BUDGETS = [50, 200, 1_000_000]

_oracles: dict[int, dict] = {}


def oracle(index: int) -> dict:
    if index not in _oracles:
        _oracles[index] = single_shot(dict(SPECS[index]))
    return _oracles[index]


class ServedSessions(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.daemon = ServeDaemon(ServeConfig(
            jobs=0, max_sessions=MAX_SESSIONS,
            max_cycles_per_session=QUOTA))
        self.spec_of: dict[str, int] = {}

    def teardown(self):
        self.daemon.stop()

    def _handle(self, op: str, **fields):
        """The op's ok response, or the typed error it raised."""
        try:
            response = self.daemon.handle({"op": op, **fields})
        except ServeError as exc:
            return exc
        assert response["ok"] and response["op"] == op
        return response

    @rule(target=sessions, spec=st.integers(0, len(SPECS) - 1))
    def create(self, spec):
        active = self.daemon.registry.active_count()
        response = self._handle("create", spec=dict(SPECS[spec]))
        if isinstance(response, ServeError):
            assert isinstance(response, QuotaExceeded)
            assert active == MAX_SESSIONS
            return multiple()
        self.spec_of[response["id"]] = spec
        return response["id"]

    @rule(session=sessions, budget=st.sampled_from(BUDGETS))
    def step(self, session, budget):
        response = self._handle("step", id=session, max_events=budget)
        if isinstance(response, ServeError):
            assert isinstance(response, SessionConflict)

    @rule(session=sessions, wait=st.booleans())
    def run(self, session, wait):
        response = self._handle("run", id=session, wait=wait)
        if isinstance(response, ServeError):
            assert isinstance(response, SessionConflict)
        elif wait:
            assert response["done"]

    @rule(session=sessions)
    def poll(self, session):
        response = self._handle("poll", id=session)
        assert not isinstance(response, ServeError)

    @rule(session=sessions)
    def close(self, session):
        response = self._handle("close", id=session)
        if isinstance(response, ServeError):
            assert isinstance(response, SessionConflict)

    @rule(session=sessions)
    def resume(self, session):
        # Only a daemon restart quarantines a session, and none happens
        # here: every resume is a typed conflict.
        response = self._handle("resume", id=session)
        assert isinstance(response, SessionConflict)

    @invariant()
    def admissions_within_quota(self):
        assert self.daemon.registry.active_count() <= MAX_SESSIONS

    @invariant()
    def settled_results_match_single_shot(self):
        for session in self.daemon.registry.sessions.values():
            if session.result is None:
                continue
            expected = oracle(self.spec_of[session.id])
            if expected["cycles"] > QUOTA:
                assert session.result["verdict"] == "killed"
                assert session.result["reason"] == "cycle quota exceeded"
                assert QUOTA < session.result["cycles"] \
                    <= expected["cycles"]
            else:
                assert session.result == expected


ServedSessions.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestServedSessions = ServedSessions.TestCase
