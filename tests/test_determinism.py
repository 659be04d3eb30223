"""Whole-system determinism: identical seeds give identical runs.

Everything in the simulation — scheduling, jitter, diversity layouts,
workload patterns — derives from explicit seeds, so repeated runs must
agree to the cycle.  This is what makes every other test in the suite
meaningful, and what a debugging session on an MVEE trace depends on.
"""

import pytest

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.diversity.spec import DiversitySpec
from repro.faults import FaultPlan, FaultSpec
from repro.obs import ObsHub
from repro.run import run_native
from repro.workloads.synthetic import make_benchmark
from tests.guestlib import (
    CounterProgram,
    MutexCounterProgram,
    ProducerConsumerProgram,
)


class TestNativeDeterminism:
    @pytest.mark.parametrize("program_factory", [
        lambda: CounterProgram(workers=4, iters=50),
        lambda: ProducerConsumerProgram(),
        lambda: make_benchmark("barnes", scale=0.05),
        lambda: make_benchmark("dedup", scale=0.05),
    ])
    def test_repeat_runs_identical(self, program_factory):
        first = run_native(program_factory(), seed=11)
        second = run_native(program_factory(), seed=11)
        assert first.report.cycles == second.report.cycles
        assert first.stdout == second.stdout
        assert first.report.total_sync_ops == second.report.total_sync_ops


class TestMVEEDeterminism:
    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    def test_repeat_mvee_runs_identical(self, agent, fast_costs):
        def once():
            return run_mvee(CounterProgram(workers=3, iters=40),
                            variants=2, agent=agent, seed=9,
                            costs=fast_costs,
                            diversity=DiversitySpec(aslr=True, seed=4))

        first, second = once(), once()
        assert first.verdict == second.verdict == "clean"
        assert first.cycles == second.cycles
        assert first.stdout == second.stdout

    def test_divergence_reports_reproducible(self, fast_costs):
        def once():
            return run_mvee(CounterProgram(workers=4, iters=150),
                            variants=2, agent=None, seed=7,
                            costs=fast_costs)

        first, second = once(), once()
        assert first.verdict == second.verdict == "divergence"
        assert str(first.divergence) == str(second.divergence)

    def test_different_seeds_differ_somewhere(self, fast_costs):
        cycles = {run_mvee(CounterProgram(workers=3, iters=40),
                           variants=2, agent="wall_of_clocks",
                           seed=seed, costs=fast_costs).cycles
                  for seed in range(4)}
        assert len(cycles) > 1


class TestFaultDeterminism:
    """Fault injection composes with seeded scheduling: the same
    ``(plan, seed)`` pair reproduces the same faults at the same cycles,
    and a disabled injector leaves the timeline byte-identical."""

    def _run(self, faults=None, policy=None, obs=None, costs=None):
        return run_mvee(MutexCounterProgram(workers=3, iters=25),
                        variants=3, seed=7, costs=costs,
                        faults=faults, policy=policy, obs=obs)

    def test_same_fault_plan_reproduces_run_exactly(self, fast_costs):
        plan = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))

        def once():
            hub = ObsHub()
            outcome = self._run(
                faults=plan,
                policy=MonitorPolicy(degradation="quarantine"),
                obs=hub, costs=fast_costs)
            return outcome, hub

        (first, first_hub), (second, second_hub) = once(), once()
        assert first.verdict == second.verdict == "degraded"
        assert first.cycles == second.cycles
        assert first.stdout == second.stdout
        assert ([f.to_dict() for f in first.faults]
                == [f.to_dict() for f in second.faults])
        first_trace = [e.to_dict() for v in first_hub.tracer.variants()
                       for e in first_hub.tracer.tail(v)]
        second_trace = [e.to_dict() for v in second_hub.tracer.variants()
                        for e in second_hub.tracer.tail(v)]
        assert first_trace == second_trace

    def test_random_plan_reproducible_by_seed(self, fast_costs):
        def once():
            return self._run(
                faults=FaultPlan.random(5, n_variants=3),
                policy=MonitorPolicy(degradation="quarantine",
                                     watchdog_cycles=400_000.0),
                costs=fast_costs)

        first, second = once(), once()
        assert first.verdict == second.verdict
        assert first.cycles == second.cycles
        assert ([f.to_dict() for f in first.faults]
                == [f.to_dict() for f in second.faults])

    def test_fault_machinery_disabled_is_zero_cost(self, fast_costs):
        """No plan, an empty plan, an armed watchdog that never fires,
        and a degradation policy that never triggers must all produce the
        exact cycle count of the plain run."""
        baseline = self._run(costs=fast_costs)
        assert baseline.verdict == "clean"
        variants = [
            self._run(faults=FaultPlan(), costs=fast_costs),
            self._run(policy=MonitorPolicy(
                watchdog_cycles=1e9), costs=fast_costs),
            self._run(policy=MonitorPolicy(degradation="quarantine"),
                      costs=fast_costs),
            self._run(policy=MonitorPolicy(degradation="restart"),
                      costs=fast_costs),
        ]
        for outcome in variants:
            assert outcome.verdict == "clean"
            assert outcome.cycles == baseline.cycles
            assert outcome.stdout == baseline.stdout

    def test_disabled_faults_leave_obs_trace_identical(self, fast_costs):
        def trace_of(**kwargs):
            hub = ObsHub()
            outcome = self._run(obs=hub, costs=fast_costs, **kwargs)
            assert outcome.verdict == "clean"
            return [e.to_dict() for v in hub.tracer.variants()
                    for e in hub.tracer.tail(v)]

        assert trace_of() == trace_of(faults=FaultPlan())


class TestRaceDetectorDeterminism:
    """The race detector is an observer: attaching it must not move a
    single simulated cycle, and detaching it must cost nothing."""

    def _run(self, races=None, obs=None, costs=None):
        return run_mvee(MutexCounterProgram(workers=3, iters=25),
                        variants=3, seed=7, costs=costs, races=races,
                        obs=obs)

    def test_detector_attached_is_zero_cost(self, fast_costs):
        from repro.races import RaceDetector

        baseline = self._run(costs=fast_costs)
        assert baseline.verdict == "clean"
        detected = self._run(races=RaceDetector(), costs=fast_costs)
        assert detected.verdict == "clean"
        assert detected.cycles == baseline.cycles
        assert detected.stdout == baseline.stdout

    def test_detector_leaves_obs_trace_identical(self, fast_costs):
        from repro.races import RaceDetector

        def trace_of(**kwargs):
            hub = ObsHub()
            outcome = self._run(obs=hub, costs=fast_costs, **kwargs)
            assert outcome.verdict == "clean"
            return [e.to_dict() for v in hub.tracer.variants()
                    for e in hub.tracer.tail(v)]

        assert trace_of() == trace_of(races=RaceDetector())

    def test_race_report_reproducible(self, fast_costs):
        from repro.races import RaceDetector

        def report_of():
            detector = RaceDetector(sync_sites=lambda site: False)
            outcome = self._run(races=detector, costs=fast_costs)
            return outcome, detector.report

        (first, first_report), (second, second_report) = \
            report_of(), report_of()
        assert first.cycles == second.cycles
        assert ([r.to_dict() for r in first_report.races]
                == [r.to_dict() for r in second_report.races])
        assert first_report.occurrences == second_report.occurrences

    def test_racy_classification_still_zero_cost(self, fast_costs):
        """Even when every op is race-checked (the expensive path), the
        simulated timeline must not move."""
        from repro.races import RaceDetector

        baseline = self._run(costs=fast_costs)
        detected = self._run(
            races=RaceDetector(sync_sites=lambda site: False),
            costs=fast_costs)
        assert detected.cycles == baseline.cycles
        assert detected.stdout == baseline.stdout


class TestDeadlockDetectorDeterminism:
    """The deadlock detector is an observer too: on runs that do not
    wedge, attaching it must not move a single simulated cycle."""

    def _run(self, deadlocks=None, obs=None, costs=None):
        return run_mvee(MutexCounterProgram(workers=3, iters=25),
                        variants=3, seed=7, costs=costs,
                        deadlocks=deadlocks, obs=obs)

    def test_detector_attached_is_zero_cost(self, fast_costs):
        from repro.races import DeadlockDetector

        baseline = self._run(costs=fast_costs)
        assert baseline.verdict == "clean"
        watched = self._run(deadlocks=DeadlockDetector(), costs=fast_costs)
        assert watched.verdict == "clean"
        assert watched.cycles == baseline.cycles
        assert watched.stdout == baseline.stdout

    def test_detector_leaves_obs_trace_identical(self, fast_costs):
        from repro.races import DeadlockDetector

        def trace_of(**kwargs):
            hub = ObsHub()
            outcome = self._run(obs=hub, costs=fast_costs, **kwargs)
            assert outcome.verdict == "clean"
            return [e.to_dict() for v in hub.tracer.variants()
                    for e in hub.tracer.tail(v)]

        assert trace_of() == trace_of(deadlocks=DeadlockDetector())

    def test_guarded_wedge_run_is_zero_cost(self, fast_costs):
        """The trylock philosophers contend hard (refused acquisitions,
        futex parking) without deadlocking — the detector must stay
        invisible on that path too."""
        from repro.races import DeadlockDetector
        from repro.workloads import DiningPhilosophers

        def cycles_of(deadlocks):
            return run_mvee(DiningPhilosophers(3, trylock=True),
                            variants=2, seed=11, costs=fast_costs,
                            deadlocks=deadlocks).cycles

        assert cycles_of(None) == cycles_of(DeadlockDetector())

    def test_deadlock_report_reproducible(self, fast_costs):
        from repro.races import DeadlockDetector
        from repro.workloads import DiningPhilosophers

        def report_of():
            detector = DeadlockDetector()
            outcome = run_mvee(DiningPhilosophers(3), variants=2, seed=11,
                               costs=fast_costs, deadlocks=detector)
            assert outcome.verdict == "deadlock"
            return outcome, detector.report

        (first, first_report), (second, second_report) = \
            report_of(), report_of()
        assert first.cycles == second.cycles
        assert ([r.to_dict() for r in first_report.records]
                == [r.to_dict() for r in second_report.records])


class TestProfilerDeterminism:
    """The cycle profiler is an observer like the tracer and the race
    detector: obs=None, a plain hub, and a profiling hub must all
    produce the exact same simulated timeline — across agents and
    composed with fault injection and race detection."""

    def _run(self, agent, obs=None, costs=None, faults=None,
             policy=None, races=None):
        return run_mvee(MutexCounterProgram(workers=3, iters=25),
                        variants=3, agent=agent, seed=7, costs=costs,
                        obs=obs, faults=faults, policy=policy,
                        races=races)

    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    @pytest.mark.parametrize("config", ["plain", "faulted",
                                        "race-detect"])
    def test_profiler_attached_is_zero_cost(self, agent, config,
                                            fast_costs):
        from repro.races import RaceDetector

        def run_with(obs):
            kwargs = {}
            if config == "faulted":
                kwargs["faults"] = FaultPlan(
                    (FaultSpec(kind="crash", variant=1, at=4),))
                kwargs["policy"] = MonitorPolicy(
                    degradation="quarantine")
            elif config == "race-detect":
                kwargs["races"] = RaceDetector()
            return self._run(agent, obs=obs, costs=fast_costs,
                             **kwargs)

        baseline = run_with(None)
        plain_hub = run_with(ObsHub())
        profiled = run_with(ObsHub(trace=False, profile=True))
        expected = "degraded" if config == "faulted" else "clean"
        assert baseline.verdict == expected
        for outcome in (plain_hub, profiled):
            assert outcome.verdict == baseline.verdict
            assert outcome.cycles == baseline.cycles
            assert outcome.stdout == baseline.stdout

    def test_profile_snapshot_reproducible(self, fast_costs):
        import json

        def profile_of():
            hub = ObsHub(trace=False, profile=True)
            outcome = self._run("wall_of_clocks", obs=hub,
                                costs=fast_costs)
            hub.prof.finalize(outcome.machine.now)
            return hub.prof.snapshot().to_dict()

        first, second = profile_of(), profile_of()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))


class TestAllConsumersAtOnce:
    """Every hook-table consumer attached to one run at once.

    Each optional observer is pinned alone above; this pins the fan-out:
    obs with its profiler, both detectors and a decision recorder share
    one hook table on one 3-variant run, and the run must still match
    the bare run while every consumer produces exactly what it produces
    when attached alone.
    """

    def _run(self, agent, costs, **consumers):
        return run_mvee(MutexCounterProgram(workers=3, iters=25),
                        variants=3, agent=agent, seed=7, costs=costs,
                        **consumers)

    @staticmethod
    def _consumers():
        from repro.races import DeadlockDetector, RaceDetector
        from repro.replay import DecisionLog, DecisionRecorder

        return {"obs": ObsHub(profile=True), "races": RaceDetector(),
                "deadlocks": DeadlockDetector(),
                "replay": DecisionRecorder(DecisionLog(spec={}))}

    @staticmethod
    def _outputs(outcome, consumers):
        """Each attached consumer's output, keyed by consumer."""
        outputs = {}
        hub = consumers.get("obs")
        if hub is not None:
            hub.prof.finalize(outcome.machine.now)
            outputs["obs"] = hub.digest()
            outputs["prof"] = hub.prof.snapshot().to_dict()
        if "races" in consumers:
            outputs["races"] = consumers["races"].report
        if "deadlocks" in consumers:
            outputs["deadlocks"] = consumers["deadlocks"].report
        if "replay" in consumers:
            outputs["replay"] = consumers["replay"].log.digest()
        return outputs

    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    def test_fan_out_matches_each_consumer_alone(self, agent, fast_costs):
        bare = self._run(agent, fast_costs)
        assert bare.verdict == "clean"
        together = self._consumers()
        outcome = self._run(agent, fast_costs, **together)
        assert outcome.verdict == bare.verdict
        assert outcome.cycles == bare.cycles
        assert outcome.stdout == bare.stdout
        combined = self._outputs(outcome, together)
        assert set(combined) == {"obs", "prof", "races", "deadlocks",
                                 "replay"}
        alone = {}
        for name, consumer in self._consumers().items():
            single = self._run(agent, fast_costs, **{name: consumer})
            assert single.cycles == bare.cycles
            alone.update(self._outputs(single, {name: consumer}))
        assert combined == alone
        # The pin bites: every consumer really observed the run.
        assert together["races"].report.sync_ops_seen > 0
        assert together["deadlocks"].report.acquires_seen > 0
        assert len(together["replay"].log.records) > 0
        assert combined["prof"]["total_cycles"] > 0


class TestParallelSweepDeterminism:
    """The parallel engine must not cost a bit of determinism: the
    aggregated output of a sharded sweep is pinned to a golden digest,
    and the digest is invariant in the worker count."""

    #: sha256 over the canonical (host-time-free) cells of the quick
    #: bench matrix at seed=1.  Pure function of the simulator — any
    #: change to workload synthesis, the scheduler, or the monitor that
    #: moves a simulated cycle shows up here.
    GOLDEN_QUICK_DIGEST = \
        "sha256:29ff2774d57723fcb9cf16eeb61528edc54a4e94a0fceb8aa765515613c74e87"

    def _digest(self, jobs):
        from repro.experiments.runner import reset_caches
        from repro.par.bench import (bench_tasks, build_matrix,
                                     canonical_cells, digest_of)
        from repro.par.engine import run_cells

        reset_caches()
        matrix = build_matrix(quick=True, seed=1)
        results = run_cells(bench_tasks(matrix), jobs=jobs)
        return digest_of(canonical_cells(results))

    def test_quick_matrix_matches_golden_digest(self):
        assert self._digest(jobs=1) == self.GOLDEN_QUICK_DIGEST

    def test_digest_invariant_in_worker_count(self):
        assert self._digest(jobs=2) == self.GOLDEN_QUICK_DIGEST

    def test_derived_seeds_are_frozen(self):
        """Seed derivation is part of the determinism contract: pin the
        first cells of the bench sweep's seed stream."""
        from repro.par.seeds import derive_cell_seed

        assert [derive_cell_seed("bench", index, 1)
                for index in range(3)] == [
            1664854912858333258,
            8864461619434748378,
            340529501838569161,
        ]
        assert len({derive_cell_seed("bench", index, 1)
                    for index in range(64)}) == 64


class TestBenchCLIDeterminism:
    """``repro bench`` end to end: schema, digest stability, exit code."""

    def _run_bench(self, tmp_path, name, jobs):
        import json

        from repro.cli import main

        out = tmp_path / name
        assert main(["bench", "--quick", "--jobs", str(jobs),
                     "--seed", "1", "-o", str(out)]) == 0
        return json.loads(out.read_text())

    def test_bench_report_schema_and_digest(self, tmp_path):
        report = self._run_bench(tmp_path, "bench.json", jobs=2)
        assert report["kind"] == "repro-bench"
        assert report["format_version"] == 2
        assert report["quick"] is True
        assert report["jobs"] == 2
        assert set(report["host"]) == {"cpu_count", "platform", "python"}
        matrix = report["matrix"]
        assert matrix["cells"] == len(matrix["benchmarks"]) * \
            len(matrix["agents"]) * len(matrix["variant_counts"])
        assert report["serial"]["ok"] == matrix["cells"]
        assert report["serial"]["failed"] == 0
        assert report["parallel"]["ok"] == matrix["cells"]
        assert report["identical"] is True
        assert report["speedup"] == pytest.approx(
            report["serial"]["wall_s"] / report["parallel"]["wall_s"])
        assert (report["digest"]
                == TestParallelSweepDeterminism.GOLDEN_QUICK_DIGEST)
        # v2 additions: per-cell walls, first-cell profile, trajectory.
        assert len(report["serial"]["cell_wall_s"]) == matrix["cells"]
        profile = report["profile"]
        assert profile["benchmark"] == matrix["benchmarks"][0]
        assert profile["total_cycles"] == pytest.approx(
            sum(profile["per_category"].values()))
        assert report["trajectory"] == []

    def test_bench_serial_only_report(self, tmp_path):
        report = self._run_bench(tmp_path, "serial.json", jobs=1)
        assert report["parallel"] is None
        assert report["speedup"] is None
        assert report["identical"] is None
        assert (report["digest"]
                == TestParallelSweepDeterminism.GOLDEN_QUICK_DIGEST)


class TestReplayDeterminism:
    """The repro.replay contract: recording is a pure observer, and a
    sealed decision log re-drives the run bit-identically.

    The recorder and checkpointer ride the ``replay is not None`` hook
    and the watchdog event lane, so attaching them must not move a
    single simulated cycle; the replayer must then reproduce the exact
    verdict, cycle count, and observability digest from the log alone —
    with or without injected faults.
    """

    AGENTS = ["total_order", "partial_order", "wall_of_clocks"]
    CRASH = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))

    def _run(self, agent, faults=None, replay=None, checkpoints=None,
             obs=None, costs=None):
        return run_mvee(
            MutexCounterProgram(workers=3, iters=25),
            variants=3, agent=agent, seed=7, costs=costs,
            faults=faults,
            policy=(MonitorPolicy(degradation="quarantine")
                    if faults is not None else None),
            replay=replay, checkpoints=checkpoints, obs=obs)

    @pytest.mark.parametrize("agent", AGENTS)
    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["plain", "faulted"])
    def test_recorder_and_checkpointer_are_zero_cost(
            self, agent, faulted, fast_costs):
        from repro.replay import DecisionLog, DecisionRecorder

        faults = self.CRASH if faulted else None
        baseline = self._run(agent, faults=faults, costs=fast_costs)
        recorder = DecisionRecorder(DecisionLog(spec={}))
        observed = self._run(agent, faults=faults, costs=fast_costs,
                             replay=recorder, checkpoints=50_000.0)
        assert observed.verdict == baseline.verdict
        assert observed.cycles == baseline.cycles
        assert observed.stdout == baseline.stdout
        assert recorder.steps > 0
        assert len(recorder.log.records) > 0
        assert len(observed.monitor.checkpoints) > 0

    @pytest.mark.parametrize("agent", AGENTS)
    @pytest.mark.parametrize("faults", [None, "crash@v1:3"],
                             ids=["plain", "faulted"])
    def test_replay_from_log_is_bit_identical(self, agent, faults,
                                              tmp_path):
        from repro.replay import record_run, replay_run

        spec = {"workload": "nginx", "seed": 5, "agent": agent,
                "variants": 3, "faults": faults,
                "policy": "quarantine" if faults else "kill-all"}
        path = str(tmp_path / "run.decisions.jsonl")
        recorded = record_run(spec, out_path=path)
        replayed = replay_run(path)
        assert replayed.faithful
        assert replayed.replayer.first_divergence is None
        assert replayed.outcome.verdict == recorded.outcome.verdict
        assert replayed.outcome.cycles == recorded.outcome.cycles
        assert replayed.hub.digest() == recorded.hub.digest()
        # The log itself is stable: loading and re-digesting the file
        # reproduces the digest sealed into the footer.
        assert replayed.log.digest() == recorded.footer["digest"]

    #: sha256 of the decision log ``repro record nginx --variants 3
    #: --seed 7`` writes (the digest its footer seals and the command
    #: prints), with the run's cycle count.  A guard for simulator-core
    #: changes meant to be pure host-speed work: it moves with any
    #: change to the RNG draw order or to any recorded decision.
    NGINX_X3_SEED7_LOG_DIGEST = (
        "sha256:7616723c832c8c2cb4e4e5fcd336ef807bba0678e6ee6b2df0865ff78e70809e")
    NGINX_X3_SEED7_CYCLES = 114934.15631380351

    def test_nginx_record_log_digest_is_pinned(self, tmp_path, capsys):
        from repro.cli import main
        from repro.replay import DecisionLog

        path = str(tmp_path / "nginx.decisions.jsonl")
        assert main(["record", "nginx", "-o", path, "--variants", "3",
                     "--seed", "7"]) == 0
        assert self.NGINX_X3_SEED7_LOG_DIGEST in capsys.readouterr().out
        log = DecisionLog.load(path)
        assert log.digest() == self.NGINX_X3_SEED7_LOG_DIGEST
        assert log.footer["digest"] == self.NGINX_X3_SEED7_LOG_DIGEST
        assert log.footer["cycles"] == self.NGINX_X3_SEED7_CYCLES

    def test_replay_reproduces_divergence_report(self, tmp_path):
        from repro.replay import record_run, replay_run

        # agent "none" removes cross-variant ordering, so the variants
        # interleave freely and the monitor flags a divergence; the
        # replay must reproduce the identical report.
        spec = {"workload": "dedup", "scale": 0.02, "agent": "none",
                "variants": 2, "seed": 7}
        path = str(tmp_path / "div.decisions.jsonl")
        recorded = record_run(spec, out_path=path)
        replayed = replay_run(path)
        assert replayed.faithful
        assert replayed.outcome.verdict == recorded.outcome.verdict
        assert (str(replayed.outcome.divergence)
                == str(recorded.outcome.divergence))
        assert replayed.hub.digest() == recorded.hub.digest()


class TestTelemetryZeroPerturbation:
    """Host telemetry is a pure observer: attaching span recording and
    an active trace context must not move one simulated cycle.

    ``repro.telemetry`` reads only host clocks and mints trace ids from
    ``os.urandom`` — nothing it does may touch the seeded guest RNG or
    the simulated clock.  This class pins that contract on both the
    single-run path (verdict, cycles, stdout, ObsHub digest) and the
    parallel sweep path (golden quick-matrix digest with traced cells).
    """

    def _mvee(self, fast_costs):
        hub = ObsHub()
        outcome = run_mvee(MutexCounterProgram(workers=3, iters=25),
                           variants=3, agent="total_order", seed=7,
                           costs=fast_costs, obs=hub)
        return outcome, hub

    def test_traced_mvee_identical_to_bare_run(self, fast_costs,
                                               tmp_path):
        from repro.telemetry.spans import read_spans, scoped, span

        bare, bare_hub = self._mvee(fast_costs)
        with scoped(str(tmp_path), service="test"):
            with span("test.mvee", track="test"):
                traced, traced_hub = self._mvee(fast_costs)
            recorded = read_spans(str(tmp_path))
        assert recorded and recorded[-1]["name"] == "test.mvee"
        assert traced.verdict == bare.verdict == "clean"
        assert traced.cycles == bare.cycles
        assert traced.stdout == bare.stdout
        assert traced_hub.digest() == bare_hub.digest()

    def test_traced_sweep_matches_golden_digest(self, tmp_path):
        """CellTasks carrying a trace context through the parallel
        engine leave the pinned sweep digest untouched, while the
        workers really do record host spans."""
        import dataclasses

        from repro.experiments.runner import reset_caches
        from repro.par.bench import (bench_tasks, build_matrix,
                                     canonical_cells, digest_of)
        from repro.par.engine import run_cells
        from repro.par.environment import ProcessEnvironment
        from repro.par.pool import WorkerPool
        from repro.telemetry.context import new_context
        from repro.telemetry.spans import read_spans, scoped

        reset_caches()
        ctx = new_context()
        tasks = [dataclasses.replace(task, trace=ctx.to_dict())
                 for task in bench_tasks(build_matrix(quick=True,
                                                      seed=1))]
        with scoped(str(tmp_path), service="worker"):
            # A private pool forks inside the scope, so its workers
            # inherit the span directory.
            pool = WorkerPool(2)
            try:
                results = run_cells(tasks, jobs=2,
                                    env=ProcessEnvironment(pool=pool))
            finally:
                pool.shutdown()
            recorded = read_spans(str(tmp_path))
        assert len(recorded) == len(tasks)
        assert {r["trace"] for r in recorded} == {ctx.trace_id}
        assert (digest_of(canonical_cells(results))
                == TestParallelSweepDeterminism.GOLDEN_QUICK_DIGEST)
