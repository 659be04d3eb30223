"""repro.replay — decision-stream record/replay + machine checkpoints.

The monitor already forces every follower to re-enact the master's
decisions, so a compact log of that decision stream reproduces any run
bit-identically (rr's observation; see ``docs/REPLAY.md``):

* :class:`DecisionRecorder` captures the master's sync-op grants,
  syscall results, futex wake choices, and scheduler RNG draws as one
  consumer on the machine's hook table (:mod:`repro.sched.hooks`),
  beside the tracer and the race and deadlock detectors;
* :class:`DecisionReplayer` re-drives a ``Machine``/``MVEE`` from a
  :class:`DecisionLog` alone — the scheduler's randomness is fed from
  the log, so the replay machine's own seed is irrelevant;
* :class:`Checkpointer` takes periodic, timeline-neutral snapshots of
  machine state so restart resync and serve crash recovery resume from
  the nearest checkpoint + log suffix instead of full history.
"""

from repro.replay.checkpoint import (
    Checkpoint,
    Checkpointer,
    CheckpointPolicy,
    CheckpointStore,
    decode_rng_state,
    encode_rng_state,
)
from repro.replay.driver import (
    RecordedRun,
    ReplayedRun,
    ResumedRun,
    record_run,
    replay_run,
    resume_recorded,
)
from repro.replay.log import DecisionLog, DecisionLogWriter
from repro.replay.recorder import DecisionRecorder, RecordingRandom
from repro.replay.replayer import (
    DecisionReplayer,
    ReplayMismatch,
    ReplayRandom,
)

__all__ = [
    "Checkpoint",
    "CheckpointPolicy",
    "CheckpointStore",
    "Checkpointer",
    "DecisionLog",
    "DecisionLogWriter",
    "DecisionRecorder",
    "DecisionReplayer",
    "RecordedRun",
    "RecordingRandom",
    "ReplayMismatch",
    "ReplayRandom",
    "ReplayedRun",
    "ResumedRun",
    "decode_rng_state",
    "encode_rng_state",
    "record_run",
    "replay_run",
    "resume_recorded",
]
