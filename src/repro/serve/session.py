"""Sessions: one lockstep MVEE execution owned by the serve daemon.

A session binds a workload, agent, variant count, optional fault plan,
and seed — exactly the knobs of a single ``repro run`` invocation — and
can be driven two ways:

* **stepped** (the ``step`` op): the daemon holds the live
  :class:`~repro.core.mvee.MVEE` and advances it in bounded event
  batches via :meth:`MVEE.advance`, streaming verdicts, recovery
  events, and metrics snapshots back after each batch.  Budgeted
  stepping is byte-identical to a one-shot run by construction (the
  event heap is popped in the same order either way).
* **batch** (the ``run`` op): the session is a one-cell sweep — its
  spec runs as :func:`repro.run.run_spec_cell` (with the ``obs``
  extra) through the shared :class:`repro.par.engine.CellExecutor`, so
  N sessions fan out across one *persistent* worker pool — workers
  fork when the daemon is built and serve every later session warm, in
  whichever execution environment the daemon was started with
  (``--env inline|process``) — without breaking per-cell seed
  derivation.

Both paths build their MVEE through :func:`repro.run.build_mvee`, the
builder ``repro run`` uses, fold the outcome into a
:class:`~repro.run.RunRecord` and hand it to :meth:`Session.settle`,
which projects it with :func:`session_result` into the same result
dict, whose ``obs_digest`` (see :meth:`repro.obs.ObsHub.digest`) is the
byte-identity anchor against single-shot ``repro run`` for the same
:class:`~repro.run.RunSpec`, and applies the cycle quota.

:class:`Session` is the only code that changes a session's state,
result, ticket or live run; the daemon and the registry validate,
lock, journal and reply.
"""

from __future__ import annotations

import itertools
import os
import threading

from repro.errors import SessionConflict
from repro.obs import ObsHub
from repro.par.cells import CellResult, CellTask
from repro.replay import DecisionLogWriter, build_recording, resume_recorded
from repro.run import RunRecord, RunSpec, build_mvee, run_spec_cell

#: Every state a session can be in.  Transitions, each made by one
#: :class:`Session` method:
#: created -> running -> finished | killed       (stepped path: step)
#: created -> queued -> finished | killed        (batch path: submit,
#:                                                settle)
#: any in-flight state -> quarantined | killed | created   (daemon restart,
#:   per degradation policy: recover)
#: quarantined -> created                        (resume: reset)
#: created | finished | quarantined | killed -> closed   (close: reset)
SESSION_STATES = ("created", "running", "queued", "finished",
                  "quarantined", "killed", "closed")

#: States a close() accepts from; everything else must finish or be
#: killed first.
CLOSEABLE_STATES = ("created", "finished", "quarantined", "killed")

#: What an in-flight state becomes after a daemon restart, by policy.
RECOVERY = {"kill-all": "killed", "quarantine": "quarantined",
            "restart": "created"}


def recover_state(state: str, policy: str) -> str:
    """Post-restart state for a journaled session."""
    if state in ("running", "queued"):
        return RECOVERY[policy]
    return state


def session_result(record: RunRecord) -> dict:
    """The wire ``result`` of a finished session: the projection of its
    run record (run with the ``obs`` extra) both paths return."""
    obs = record.extras.get("obs", {})
    result = {
        "verdict": record.verdict,
        "cycles": record.cycles,
        "syscalls": record.syscalls,
        "sync_ops": record.sync_ops,
        "faults_injected": record.faults_injected,
        "quarantines": list(record.quarantines),
        "races": (len(record.races.races)
                  if record.races is not None else 0),
        "divergence": record.divergence,
        "obs_digest": obs.get("digest"),
        "bundle": obs.get("bundle"),
    }
    if record.native_cycles:
        result["slowdown"] = record.cycles / record.native_cycles
    return result


class Session:
    """One live, step-drivable session inside the daemon.

    The MVEE is built lazily on the first step so that ``create`` stays
    cheap (admission control responds in microseconds) and so a
    batch-mode session never materialises guest state in the daemon
    process.  Each session carries its own lock: steps on one session
    serialize, steps on different sessions proceed concurrently.  Every
    method that changes the session runs with the lock held.
    """

    def __init__(self, session_id: str, spec: RunSpec,
                 max_cycles: float | None = None,
                 bundle_dir: str | None = None,
                 state_dir: str | None = None,
                 checkpoint_every: float | None = None):
        self.id = session_id
        self.spec = spec
        self.state = "created"
        #: The cycle quota (``--max-cycles``); :meth:`settle` and
        #: :meth:`step` apply it, and nothing else reads it.
        self.max_cycles = max_cycles
        #: Where a diverged run's forensics bundle is saved (both paths).
        self.bundle_path = (f"{bundle_dir}/{session_id}.bundle.json"
                            if bundle_dir else None)
        #: When both are set, stepped execution records its decision
        #: stream and checkpoints to ``state_dir`` so an interrupted
        #: session can be resumed from checkpoint + log prefix.
        self.state_dir = state_dir
        self.checkpoint_every = checkpoint_every
        #: Set by :meth:`recover` when on-disk replay artifacts from a
        #: previous daemon incarnation should be resumed.
        self.resume_from_disk = False
        self.lock = threading.Lock()
        self._forget_run()

    def _forget_run(self) -> None:
        """No run yet: no result, ticket, steps or live MVEE."""
        self.result: dict | None = None
        #: CellExecutor ticket while the session is queued (batch path).
        self.ticket: int | None = None
        self.steps = 0
        #: Populated after a successful resume (diagnostics).
        self.resumed: dict | None = None
        self._mvee = None
        self._hub = None
        self._native = None
        self._recorder = None
        self._writer = None
        self._event_seq = itertools.count()
        self._seen_recovery = 0
        self._seen_races = 0
        self._seen_faults = 0

    @property
    def recording(self) -> bool:
        return (self.state_dir is not None
                and self.checkpoint_every is not None)

    def decision_log_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir,
                            f"{self.id}.decisions.jsonl")

    def checkpoint_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, f"{self.id}.ckpt.json")

    # -- lifecycle -----------------------------------------------------------

    def recover(self, journaled: str) -> None:
        """Enter the post-restart state of a session the journal last
        recorded as ``journaled``, by its spec's degradation policy."""
        self.state = recover_state(journaled, self.spec.policy)
        # An interrupted restart-policy session with replay artifacts on
        # disk resumes in-flight work on its first step, from checkpoint
        # + decision-log prefix, instead of re-executing from scratch.
        self.resume_from_disk = (journaled in ("running", "queued")
                                 and self.state == "created"
                                 and self.recording)

    def reset(self, state: str) -> None:
        """Release the live run and enter ``state``: ``closed`` keeps the
        result for the status table; ``created`` (a resume) forgets the
        run, so the next step or run starts the spec over."""
        self.release_writer()
        self._mvee = None
        self._hub = None
        if state == "created":
            self._forget_run()
        self.state = state

    def release_writer(self) -> None:
        """Close the decision-log handle without sealing (the log keeps
        its torn-tolerant prefix for a later resume)."""
        if self._writer is not None:
            self._writer.abandon()
            self._writer = None

    def settle(self, run: RunRecord | CellResult) -> dict:
        """Settle a finished run and return its completion envelope.

        ``run`` is the run's :class:`~repro.run.RunRecord`, or the
        failed :class:`~repro.par.cells.CellResult` of a batch cell.
        The record's :func:`session_result` projection finishes the
        session unless its cycles exceed the quota; then, on either
        path, the session is killed with "cycle quota exceeded".  A
        failed cell kills the session with the cell's error.
        """
        self.ticket = None
        if isinstance(run, CellResult):
            self.state = "killed"
            self.result = {"verdict": "error", "error": run.error}
        else:
            result = session_result(run)
            if self.resumed is not None:
                result["resumed"] = dict(self.resumed)
            if not self._over_quota(result["cycles"]):
                self.state = "finished"
                self.result = result
        return {"done": True, "state": self.state, "result": self.result}

    def _over_quota(self, cycles: float) -> bool:
        """Apply the cycle quota: past it, the session is killed."""
        if self.max_cycles is None or cycles <= self.max_cycles:
            return False
        self.state = "killed"
        self.result = {"verdict": "killed",
                       "reason": "cycle quota exceeded",
                       "cycles": cycles}
        return True

    # -- batch execution -----------------------------------------------------

    def submit(self, executor) -> None:
        """Queue the whole run on ``executor`` as one
        :func:`~repro.run.run_spec_cell` cell; its result comes back
        through :meth:`settle`."""
        from repro.telemetry.context import wire_context

        task = CellTask(
            sweep_id="serve", index=int(self.id.split("-")[-1]),
            fn=run_spec_cell,
            kwargs={"spec": self.spec.to_dict(),
                    "outputs": {"obs": self.bundle_path},
                    "session_id": self.id},
            seed=self.spec.seed,
            trace=wire_context() or self.spec.trace)
        self.ticket = executor.submit(task)
        self.state = "queued"

    # -- stepped execution ---------------------------------------------------

    def _ensure_mvee(self):
        if self._mvee is not None:
            return None
        self._hub = ObsHub(trace=False)
        if self.recording:
            return self._build_recording()
        self._mvee, self._native = build_mvee(self.spec, obs=self._hub)
        self.state = "running"
        return None

    def _build_recording(self):
        """Build (or resume) a recording MVEE; returns a finished
        outcome in the rare case the run completed while replaying a
        resumed prefix."""
        log_path = self.decision_log_path()
        ckpt_path = self.checkpoint_path()
        if self.resume_from_disk:
            self.resume_from_disk = False
            handle = resume_recorded(
                self.spec, log_path, ckpt_path,
                checkpoint_every=self.checkpoint_every, hub=self._hub)
            if handle is not None:
                self._mvee = handle.mvee
                self._native = handle.native
                self._recorder = handle.recorder
                self._writer = DecisionLogWriter(log_path, handle.log)
                self.resumed = {
                    "checkpoint": handle.checkpoint.index,
                    "at_cycles": handle.checkpoint.at_cycles,
                    "replayed_records": handle.checkpoint.decision_index,
                    "discarded_records": handle.discarded_records,
                }
                self.state = "running"
                return handle.outcome
        built = build_recording(self.spec, self._hub, log_path,
                                self.checkpoint_every, ckpt_path,
                                meta={"session": self.id})
        self._mvee, self._native = built.mvee, built.native
        self._recorder, self._writer = built.recorder, built.writer
        self.state = "running"
        return None

    def step(self, max_events: int) -> dict:
        """Advance by at most ``max_events`` simulator events.

        Returns the step envelope: new events since the previous step
        (faults, recovery actions, races), a live metrics snapshot, and
        — once the run completes — the final result dict.

        When the spec carries a trace context and host telemetry is
        recording, each step emits one host-time span on the session's
        track, annotated ``resumed`` when the session was rebuilt from
        on-disk replay artifacts — the span keeps the *original*
        trace_id across daemon incarnations because the spec (and its
        trace) is journaled.
        """
        from repro.telemetry.spans import child_span

        was_resume = self.resume_from_disk or self.resumed is not None
        with child_span("session.step", self.spec.trace,
                        service="session", track=f"session {self.id}",
                        session=self.id) as live:
            envelope = self._step_inner(max_events)
            if live is not None:
                if was_resume or self.resumed is not None:
                    live.attrs["resumed"] = True
                live.attrs["steps"] = self.steps
                if envelope["done"]:
                    live.attrs["done"] = True
        return envelope

    def _step_inner(self, max_events: int) -> dict:
        if self.state not in ("created", "running"):
            raise SessionConflict(
                f"session {self.id} is {self.state}; step needs a "
                "created or running session")
        outcome = self._ensure_mvee()
        if outcome is None:
            outcome = self._mvee.advance(max_events)
        if self._writer is not None:
            self._writer.flush()
        self.steps += 1
        envelope = {
            "done": outcome is not None,
            "state": self.state,
            "steps": self.steps,
            "events": self._drain_events(),
            "cycles": self._mvee.machine.now,
        }
        if outcome is not None:
            bundle_path = None
            if self.bundle_path and outcome.obs_bundle is not None:
                bundle_path = self.bundle_path
                outcome.obs_bundle.save(bundle_path)
            digest = self._hub.digest()
            if self._writer is not None:
                self._writer.close(
                    steps=self._recorder.steps,
                    verdict=outcome.verdict, cycles=outcome.cycles,
                    obs_digest=digest)
                self._writer = None
            envelope.update(self.settle(RunRecord.of(
                self.spec, outcome, self._native,
                extras={"obs": {"digest": digest,
                                "bundle": bundle_path}})))
        elif self._over_quota(self._mvee.machine.now):
            envelope["state"] = self.state
            envelope["result"] = self.result
            self.release_writer()
        return envelope

    def _drain_events(self) -> list[dict]:
        """New fault/recovery/race records since the last step.

        Each record is delivered exactly once, wrapped with a
        session-level ``stream_seq`` (the records' own fields — some
        carry a per-variant ``seq`` — are passed through untouched).
        """
        hub = self._hub
        events = []

        def _wrap(kind: str, record: dict) -> dict:
            return {"stream_seq": next(self._event_seq), "type": kind,
                    "record": dict(record)}

        for record in hub.fault_log[self._seen_faults:]:
            events.append(_wrap("fault", record))
        self._seen_faults = len(hub.fault_log)
        for record in hub.recovery_log[self._seen_recovery:]:
            events.append(_wrap("recovery", record))
        self._seen_recovery = len(hub.recovery_log)
        for record in hub.race_log[self._seen_races:]:
            events.append(_wrap("race", record))
        self._seen_races = len(hub.race_log)
        return events

    def metrics_snapshot(self) -> dict:
        if self._hub is None:
            return {}
        return self._hub.metrics.snapshot()
