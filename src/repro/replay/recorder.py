"""The DecisionRecorder: a pure observer of the master's decisions.

Attached via ``MVEE(..., replay=recorder)``, it is one consumer on the
machine's hook table (:mod:`repro.sched.hooks`), like the tracer and
the race detectors: the machine fires ``step_committed``/``sync_op``/
``syscall``, the kernel futex table fires ``futex_wake``, and the
machine's RNG is wrapped in :class:`RecordingRandom` so every scheduler
draw lands in the log.
Recording charges no simulated cycle and consumes no extra randomness —
a recorded run is bit-identical to a plain one (pinned in
``test_determinism.py``).

Only variant 0 (the master) is recorded: slave decisions are *derived*
from the master's by the monitor and agents, so the master stream plus
the scheduler draws is the whole truth.
"""

from __future__ import annotations

from repro.replay.log import DecisionLog


class RecordingRandom:
    """Wrap the machine's ``random.Random``: delegate + log each draw.

    Only the methods the scheduler actually uses are intercepted
    (``randrange`` from ``policy.pick``, ``uniform`` from quantum
    scaling and duration jitter); anything else falls through.
    """

    def __init__(self, rng, sink):
        self._rng = rng
        self._sink = sink

    def randrange(self, *args):
        value = self._rng.randrange(*args)
        self._sink.on_rng("randrange", value)
        return value

    def uniform(self, a, b):
        value = self._rng.uniform(a, b)
        self._sink.on_rng("uniform", value)
        return value

    def random(self):
        value = self._rng.random()
        self._sink.on_rng("random", value)
        return value

    def getstate(self):
        return self._rng.getstate()

    def setstate(self, state):
        self._rng.setstate(state)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class DecisionRecorder:
    """Hook-table consumer appending the master's decision stream to a
    log."""

    #: How the MVEE wires the machine RNG (wrap it and log each draw).
    mode = "record"

    def __init__(self, log: DecisionLog | None = None):
        self.log = log if log is not None else DecisionLog()
        #: Committed machine steps seen (stamps records with "i").
        self.steps = 0

    # -- hook-table events -------------------------------------------------

    def step_committed(self, variant: int, thread_global: str,
                       thread: str, kind: str, duration: float) -> None:
        self.steps += 1

    def on_rng(self, method: str, value) -> None:
        self.log.append({"k": "rng", "m": method, "v": value,
                         "i": self.steps})

    def sync_op(self, vm, thread, event, value) -> None:
        if vm.index != 0:
            return
        self.log.append({"k": "sync", "t": thread.logical_id,
                         "o": event.op, "s": event.site, "v": value,
                         "i": self.steps})

    def syscall(self, vm, thread, event, result) -> None:
        if vm.index != 0:
            return
        self.log.append({"k": "sys", "t": thread.logical_id,
                         "n": event.name, "r": repr(result),
                         "i": self.steps})

    def futex_wake(self, variant: int, addr: int, waker, woken) -> None:
        if variant != 0 or not woken:
            return
        self.log.append({"k": "wake", "a": addr, "w": list(woken),
                         "i": self.steps})
