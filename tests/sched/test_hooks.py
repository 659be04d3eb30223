"""The machine's hook table (repro.sched.hooks)."""

from repro.sched.hooks import EVENTS, Hooks


class Recorder:
    """A consumer that logs which of its callbacks fired, tagged."""

    def __init__(self, tag, calls):
        self.tag = tag
        self.calls = calls

    def park(self, variant, thread_global, thread, wait_key):
        self.calls.append((self.tag, "park", wait_key))

    def sync_op(self, vm, thread, event, value):
        self.calls.append((self.tag, "sync_op", value))


class SyncOnly:
    def __init__(self, calls):
        self.calls = calls

    def sync_op(self, vm, thread, event, value):
        self.calls.append(("sync-only", "sync_op", value))


class NoEvents:
    """Defines nothing in the vocabulary (nor a non-callable clash)."""

    park = "not a method"

    def on_step(self):  # an old-style name: not vocabulary
        raise AssertionError("never attached")


class TestHooks:
    def test_fresh_table_is_empty(self):
        hooks = Hooks()
        for event in EVENTS:
            assert getattr(hooks, event) == ()
        assert hooks.faults is None

    def test_attach_builds_tuples_in_attach_order(self):
        calls = []
        first, middle, last = (Recorder("a", calls), SyncOnly(calls),
                               Recorder("b", calls))
        hooks = Hooks()
        for consumer in (first, middle, last):
            hooks.attach(consumer)
        assert hooks.park == (first.park, last.park)
        assert hooks.sync_op == (first.sync_op, middle.sync_op,
                                 last.sync_op)
        for hook in hooks.sync_op:
            hook(None, None, None, 7)
        for hook in hooks.park:
            hook(0, "v0:main", "main", ("futex", 0, 1))
        assert calls == [("a", "sync_op", 7), ("sync-only", "sync_op", 7),
                         ("b", "sync_op", 7),
                         ("a", "park", ("futex", 0, 1)),
                         ("b", "park", ("futex", 0, 1))]
        untouched = set(EVENTS) - {"park", "sync_op"}
        assert all(getattr(hooks, event) == () for event in untouched)

    def test_consumer_without_vocabulary_adds_nothing(self):
        hooks = Hooks()
        hooks.attach(NoEvents())
        hooks.attach(object())
        for event in EVENTS:
            assert getattr(hooks, event) == ()
        assert hooks.faults is None

    def test_real_consumers_cover_only_vocabulary_events(self):
        """Every public method a shipped consumer defines for a
        vocabulary event lands in the table, and nothing else does."""
        from repro.obs import ObsHub
        from repro.perf.timeline import VariantTraces
        from repro.prof.accounting import CycleProfiler
        from repro.races.deadlock import DeadlockDetector
        from repro.races.detector import RaceDetector
        from repro.replay.recorder import DecisionRecorder

        hub, profiler = ObsHub(), CycleProfiler()
        consumers = (hub, hub.tracer, profiler, VariantTraces(),
                     RaceDetector(), DeadlockDetector(),
                     DecisionRecorder())
        hooks = Hooks()
        for consumer in consumers:
            hooks.attach(consumer)
        for event in EVENTS:
            expected = tuple(getattr(consumer, event)
                             for consumer in consumers
                             if hasattr(consumer, event))
            assert getattr(hooks, event) == expected, event
        assert hooks.step_committed == (profiler.step_committed,
                                        consumers[6].step_committed)
        assert not hasattr(hub, "step_committed")


class TestReportEvents:
    """What the injector, detectors, checkpointer and replayer find is
    fired on the hook table like any other event."""

    REPORTS = ("fault_injected", "race_detected", "deadlock_detected",
               "checkpoint_taken", "replay_diverged")

    def test_reports_are_vocabulary_events(self):
        assert EVENTS[-len(self.REPORTS):] == self.REPORTS

    def test_hub_does_not_observe_recording(self):
        from repro.obs import ObsHub

        hub = ObsHub()
        assert not hasattr(hub, "checkpoint_taken")
        assert not hasattr(hub, "replay_diverged")
        assert callable(hub.tracer.checkpoint_taken)

    def test_mvee_attaches_the_tracer_right_after_its_hub(self):
        from repro.obs import ObsHub
        from repro.run import RunSpec, build_mvee

        spec = RunSpec("fft", scale=0.05, race_detect=True)
        hub = ObsHub()
        hooks = build_mvee(spec, obs=hub)[0].machine.hooks
        assert hooks.park[:2] == (hub.park, hub.tracer.park)
        assert hooks.race_detected == (hub.race_detected,
                                       hub.tracer.race_detected)
        untraced = ObsHub(trace=False)
        hooks = build_mvee(spec, obs=untraced)[0].machine.hooks
        assert hooks.race_detected == (untraced.race_detected,)

    def test_checkpoints_reach_the_tracer_but_not_the_digest(self):
        from repro.obs import ObsHub
        from repro.run import RunSpec, build_mvee

        spec = RunSpec("fft", scale=0.05)
        plain, checkpointed = ObsHub(), ObsHub()
        build_mvee(spec, obs=plain)[0].run()
        mvee, _ = build_mvee(spec, obs=checkpointed, checkpoints=20_000.0)
        mvee.run()
        taken = [event.args for event in checkpointed.tracer.events
                 if event.name == "checkpoint"]
        assert len(taken) == len(mvee.checkpointer.store) > 0
        assert taken[0]["index"] == 0 and taken[0]["at_cycles"] > 0
        assert checkpointed.digest() == plain.digest()

    def test_replay_divergence_reaches_the_tracer(self):
        from repro.obs import ObsHub
        from repro.replay.driver import record_run, replay_run
        from repro.run import RunSpec

        log = record_run(RunSpec("fft", scale=0.05)).log
        record = next(r for r in log.records if r["k"] == "sync")
        record["t"] = "no-such-thread"
        hub = ObsHub()
        mismatch = replay_run(log, hub=hub).replayer.first_divergence
        assert mismatch is not None
        assert [(event.name, event.args) for event in hub.tracer.events
                if event.cat == "replay"] == [
            ("replay.diverged", {"step": mismatch.step,
                                 "index": mismatch.index})]


class TestFutexTableVariant:
    def test_kernel_builds_its_table_with_its_variant(self):
        from repro.kernel.fs import VirtualDisk
        from repro.kernel.kernel import VirtualKernel

        kernel = VirtualKernel(VirtualDisk(), variant_index=2)
        assert kernel.futexes.variant == 2

    def test_bare_mvee_tables_name_their_variant(self, fast_costs):
        from repro.core.mvee import run_mvee
        from tests.guestlib import MutexCounterProgram

        outcome = run_mvee(MutexCounterProgram(workers=2, iters=5),
                           variants=3, seed=1, costs=fast_costs)
        assert [vm.kernel.futexes.variant for vm in outcome.vms] \
            == [0, 1, 2]
