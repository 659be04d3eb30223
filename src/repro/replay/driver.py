"""High-level record / replay / resume drivers.

Everything here works in terms of :class:`repro.run.RunSpec` — the
JSON-safe description of one run that the serve daemon journals and the
CLI assembles — and builds through :func:`repro.run.build_mvee`, so a
decision log is self-contained: its header carries the spec, and
:func:`replay_run` rebuilds the same MVEE from the log alone.

Three entry points, and the builder the first shares with recording
serve sessions (:func:`build_recording`):

* :func:`record_run` — run a spec with a :class:`DecisionRecorder`
  attached, streaming the log to disk; the sealed footer carries the
  verdict, cycles, obs digest, and canonical log digest.
* :func:`replay_run` — re-drive a run from a log, fully or up to
  ``--to-step N`` (fast-forward in event batches, then single-step), and
  compare the outcome against the recorded footer.
* :func:`resume_recorded` — crash recovery: rebuild the MVEE from a
  (possibly torn) log plus a checkpoint store, replay the log prefix up
  to the newest usable checkpoint, hand the live RNG its checkpointed
  state, and keep *recording* from there — the resumed session extends
  the same log and converges to the uninterrupted run's digest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReplayError
from repro.obs import ObsHub
from repro.replay.checkpoint import (
    Checkpointer,
    CheckpointPolicy,
    CheckpointStore,
    decode_rng_state,
)
from repro.replay.log import DecisionLog, DecisionLogWriter
from repro.replay.recorder import DecisionRecorder
from repro.replay.replayer import DecisionReplayer
from repro.run import RunSpec, build_mvee

#: Event-batch size used while fast-forwarding a replay or a resume.
DRIVE_CHUNK = 1024

#: How close (in machine steps) ``--to-step`` gets before switching
#: from batched fast-forward to single-event stepping.
SINGLE_STEP_MARGIN = 64


def _run_spec(spec) -> RunSpec:
    """Accept a RunSpec, a spec dict, or reject with ReplayError."""
    if isinstance(spec, RunSpec):
        return spec.validate()
    if isinstance(spec, dict):
        return RunSpec.from_dict(spec).validate()
    raise ReplayError(f"not a run spec: {spec!r}")


def _outcome_summary(outcome, hub) -> dict:
    return {"verdict": outcome.verdict,
            "cycles": outcome.cycles,
            "obs_digest": hub.digest() if hub is not None else None}


@dataclass
class Recording:
    """A recording MVEE, built and not yet run (:func:`build_recording`)."""

    mvee: object
    native: float | None
    log: DecisionLog
    recorder: DecisionRecorder
    #: Streams the log to disk; ``None`` without a log path.
    writer: DecisionLogWriter | None


def build_recording(spec: RunSpec, hub, log_path: str | None = None,
                    checkpoint_every: float | None = None,
                    checkpoint_path: str | None = None,
                    meta: dict | None = None) -> Recording:
    """Build ``spec``'s MVEE under a decision recorder.

    The log carries the spec (and ``meta``) in its header; with
    ``checkpoint_every`` a :class:`CheckpointPolicy` snapshots the run
    into a store persisted at ``checkpoint_path``; with ``log_path`` a
    :class:`DecisionLogWriter` streams the log there.  :func:`record_run`
    and recording serve sessions both build through here.
    """
    log = DecisionLog(spec=spec.to_dict(), meta=meta)
    recorder = DecisionRecorder(log)
    checkpoints = None
    if checkpoint_every is not None:
        checkpoints = CheckpointPolicy(every_cycles=checkpoint_every)
    mvee, native = build_mvee(spec, obs=hub, replay=recorder,
                              checkpoints=checkpoints)
    if checkpoint_path is not None and mvee.checkpointer is not None:
        mvee.checkpointer.store.path = checkpoint_path
    writer = DecisionLogWriter(log_path, log) if log_path else None
    return Recording(mvee=mvee, native=native, log=log, recorder=recorder,
                     writer=writer)


@dataclass
class RecordedRun:
    """Everything :func:`record_run` produced."""

    outcome: object
    log: DecisionLog
    recorder: DecisionRecorder
    hub: object
    native: float | None
    footer: dict | None
    checkpointer: Checkpointer | None = None


def record_run(spec, out_path: str | None = None,
               checkpoint_every: float | None = None,
               checkpoint_path: str | None = None,
               hub=None, meta: dict | None = None) -> RecordedRun:
    """Run ``spec`` under a decision recorder; seal and return the log."""
    spec = _run_spec(spec)
    if hub is None:
        hub = ObsHub(trace=False)
    built = build_recording(spec, hub, out_path, checkpoint_every,
                            checkpoint_path, meta)
    try:
        outcome = built.mvee.run()
    except BaseException:
        if built.writer is not None:
            built.writer.abandon()
        raise
    summary = _outcome_summary(outcome, hub)
    if built.writer is not None:
        footer = built.writer.close(steps=built.recorder.steps, **summary)
    else:
        footer = built.log.seal(steps=built.recorder.steps, **summary)
    return RecordedRun(outcome=outcome, log=built.log,
                       recorder=built.recorder, hub=hub,
                       native=built.native, footer=footer,
                       checkpointer=built.mvee.checkpointer)


@dataclass
class ReplayedRun:
    """Everything :func:`replay_run` produced."""

    outcome: object | None
    log: DecisionLog
    replayer: DecisionReplayer
    hub: object
    #: Recorded footer (None when the log was never sealed).
    recorded: dict | None
    #: Step the ``to_step`` walk stopped at (None for a full replay).
    stopped_at_step: int | None = None
    #: The replayed MVEE (live when ``to_step`` stopped mid-run) —
    #: forensics fingerprints the stopped machine through this.
    mvee: object | None = None

    @property
    def faithful(self) -> bool:
        return self.replayer.faithful()

    def matches(self) -> dict:
        """Field-by-field comparison against the recorded footer."""
        out = {"faithful": self.faithful,
               "divergence": (self.replayer.first_divergence.describe()
                              if self.replayer.first_divergence
                              else None)}
        if self.recorded is None or self.outcome is None:
            return out
        summary = _outcome_summary(self.outcome, self.hub)
        for key, value in summary.items():
            recorded = self.recorded.get(key)
            out[key] = {"recorded": recorded, "replayed": value,
                        "match": recorded == value}
        out["log_digest_match"] = (
            self.recorded.get("digest") == self.log.digest())
        return out


def replay_run(log, to_step: int | None = None, hub=None) -> ReplayedRun:
    """Re-drive a run from its decision log.

    ``to_step`` fast-forwards in event batches to just before machine
    step N, then single-steps — stopping early at the first divergence
    from the log, which is the forensics entry point (``repro replay
    --to-step``).
    """
    if isinstance(log, str):
        log = DecisionLog.load(log)
    if log.spec is None:
        raise ReplayError("decision log has no run spec in its "
                          "header; cannot rebuild the run")
    spec = _run_spec(log.spec)
    if hub is None:
        hub = ObsHub(trace=False)
    replayer = DecisionReplayer(log)
    mvee, _ = build_mvee(spec, obs=hub, replay=replayer)
    if to_step is None:
        outcome = mvee.run()
        return ReplayedRun(outcome=outcome, log=log, replayer=replayer,
                           hub=hub, recorded=log.footer, mvee=mvee)
    outcome = None
    while outcome is None and replayer.steps < to_step:
        if replayer.first_divergence is not None:
            break
        far = (to_step - replayer.steps) > SINGLE_STEP_MARGIN
        outcome = mvee.advance(DRIVE_CHUNK if far else 1)
    return ReplayedRun(outcome=outcome, log=log, replayer=replayer,
                       hub=hub, recorded=log.footer,
                       stopped_at_step=replayer.steps, mvee=mvee)


@dataclass
class ResumedRun:
    """A live, recording MVEE rebuilt from log prefix + checkpoint."""

    mvee: object
    native: float | None
    log: DecisionLog
    recorder: DecisionRecorder
    replayer: DecisionReplayer
    checkpoint: object
    store: CheckpointStore
    hub: object
    #: Set when the run finished while replaying the prefix.
    outcome: object | None = None
    #: Records discarded from the torn log tail past the checkpoint.
    discarded_records: int = 0


def usable_checkpoint(store: CheckpointStore, log: DecisionLog):
    """Newest checkpoint the log can actually reach.

    A crash can tear the log below the last persisted checkpoint's
    ``decision_index`` (the store fsyncs at probe time, the log at step
    boundaries), so walk backwards to one the prefix covers.
    """
    for checkpoint in reversed(store.checkpoints):
        if (checkpoint.decision_index is not None
                and checkpoint.rng_state is not None
                and checkpoint.decision_index <= len(log.records)):
            return checkpoint
    return None


def resume_recorded(spec, log_path: str, checkpoint_path: str,
                    checkpoint_every: float | None = None,
                    hub=None) -> ResumedRun | None:
    """Crash recovery: resume a recorded run from its on-disk artifacts.

    Returns ``None`` when there is nothing usable to resume from (no
    log, no store, or no checkpoint the torn log covers) — the caller
    then starts the run from scratch.  Otherwise the returned MVEE is
    positioned *live* at the newest usable checkpoint: the log prefix
    was replayed (re-observed by ``hub``, so the final digest matches an
    uninterrupted run), the scheduler RNG carries the checkpointed
    state, and a tail recorder extends the same log from here on.
    """
    if not (os.path.exists(log_path)
            and os.path.exists(checkpoint_path)):
        return None
    try:
        log = DecisionLog.load(log_path)
        store = CheckpointStore.load(checkpoint_path)
    except ReplayError:
        return None
    checkpoint = usable_checkpoint(store, log)
    if checkpoint is None:
        return None
    spec = _run_spec(spec if spec is not None else log.spec)
    if hub is None:
        hub = ObsHub(trace=False)
    discarded = len(log.records) - checkpoint.decision_index
    del log.records[checkpoint.decision_index:]
    log.footer = None
    replayer = DecisionReplayer(log,
                                handoff_at=checkpoint.decision_index)
    replayer.pending_rng_state = decode_rng_state(checkpoint.rng_state)
    recorder = DecisionRecorder(log)
    replayer.tail_recorder = recorder
    # The resumed run arms its own checkpointer below, once live.
    mvee, native = build_mvee(spec, obs=hub, replay=replayer,
                              checkpoints=False)
    outcome = None
    while outcome is None and not replayer.live:
        outcome = mvee.advance(DRIVE_CHUNK)
    # Forget checkpoints past the resume point; the resumed run takes
    # its own from here (same store file, indices keep increasing).
    store.checkpoints = [c for c in store.checkpoints
                         if c.index <= checkpoint.index]
    every = checkpoint_every
    if every is None:
        every = CheckpointPolicy().every_cycles
    checkpointer = Checkpointer(
        mvee, CheckpointPolicy(every_cycles=every), recorder=recorder,
        store=store, obs=hub)
    mvee.checkpointer = checkpointer
    if hasattr(mvee.monitor, "checkpoints"):
        mvee.monitor.checkpoints = store
    if outcome is None:
        checkpointer.arm()
    return ResumedRun(mvee=mvee, native=native, log=log,
                      recorder=recorder, replayer=replayer,
                      checkpoint=checkpoint, store=store, hub=hub,
                      outcome=outcome, discarded_records=discarded)
