"""repro.replay — decision-stream record/replay + machine checkpoints.

The monitor already forces every follower to re-enact the master's
decisions, so a compact log of that decision stream reproduces any run
bit-identically (rr's observation; see ``docs/REPLAY.md``):

* :class:`~repro.replay.recorder.DecisionRecorder` captures the master's
  sync-op grants, syscall results, futex wake choices, and scheduler RNG
  draws as one consumer on the machine's hook table
  (:mod:`repro.sched.hooks`), beside the tracer and the race and
  deadlock detectors;
* :class:`~repro.replay.replayer.DecisionReplayer` re-drives a
  ``Machine``/``MVEE`` from a :class:`~repro.replay.log.DecisionLog`
  alone — the scheduler's randomness is fed from the log, so the replay
  machine's own seed is irrelevant;
* :class:`~repro.replay.checkpoint.Checkpointer` takes periodic,
  timeline-neutral snapshots of machine state so restart resync and
  serve crash recovery resume from the nearest checkpoint + log suffix
  instead of full history.
"""
