"""Grid runner for the performance evaluation (Table 1 / Figure 5).

Runs (benchmark × agent × variant count) configurations, normalizing each
MVEE run against the benchmark's native execution on the same machine
configuration — the paper's methodology ("relative to unprotected
execution").  Results are memoized per process, keyed on every input
including the cost model's field values, so the figure and table benches
can share one sweep.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults import FAULT_KINDS, FaultSpec
from repro.par.engine import CellTask, raise_failures, run_cells
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.perf.report import SlowdownReport
from repro.run import (
    NGINX_COSTS,
    NGINX_PAPER_SIZING,
    PAPER_CORES,
    RunSpec,
    build_mvee,
    native_cycles,
    reset_native_cache,
)
from repro.workloads.spec import ALL_SPECS

#: Agents evaluated in Figure 5 / Table 1.
AGENTS = ("total_order", "partial_order", "wall_of_clocks")

#: Variant counts evaluated.
VARIANT_COUNTS = (2, 3, 4)


@dataclass
class ExperimentResult:
    """One grid cell."""

    benchmark: str
    agent: str
    variants: int
    native_cycles: float
    mvee_cycles: float
    verdict: str
    sync_ops: int
    syscalls: int
    stall_cycles: float

    def to_slowdown(self) -> SlowdownReport:
        return SlowdownReport(benchmark=self.benchmark, agent=self.agent,
                              variants=self.variants,
                              native_cycles=self.native_cycles,
                              mvee_cycles=self.mvee_cycles)

    @property
    def slowdown(self) -> float:
        return self.mvee_cycles / self.native_cycles


_cell_cache: dict[tuple, ExperimentResult] = {}


def reset_caches() -> None:
    """Drop the per-process memo caches (native runtimes, grid cells).

    The ``repro bench`` harness calls this between its timed phases so
    neither phase rides the other's warm cache; tests use it to force
    re-simulation."""
    reset_native_cache()
    _cell_cache.clear()


def run_one(benchmark: str, agent: str, variants: int,
            scale: float = 1.0, seed: int = 1,
            cores: int = PAPER_CORES,
            costs: CostModel | None = None,
            agent_options: dict | None = None,
            obs=None) -> ExperimentResult:
    """Run one grid cell (memoized) and return its result.

    Passing an :class:`repro.obs.ObsHub` as ``obs`` attaches the
    observability layer to the MVEE run; observed cells bypass the memo
    cache (the hub's events belong to one concrete execution).
    """
    costs = costs or DEFAULT_COSTS
    options_key = tuple(sorted((agent_options or {}).items()))
    key = (benchmark, agent, variants, scale, seed, cores, options_key,
           astuple(costs))
    if obs is None:
        cached = _cell_cache.get(key)
        if cached is not None:
            return cached
    mvee, native = build_mvee(
        RunSpec(benchmark, agent=agent, variants=variants, seed=seed,
                scale=scale),
        cores=cores, costs=costs, agent_options=agent_options, obs=obs)
    outcome = mvee.run()
    report = outcome.report
    result = ExperimentResult(
        benchmark=benchmark, agent=agent, variants=variants,
        native_cycles=native,
        mvee_cycles=outcome.cycles,
        verdict=outcome.verdict,
        sync_ops=(report.total_sync_ops if report else 0),
        syscalls=(report.total_syscalls if report else 0),
        stall_cycles=sum(
            vm.total_stall_cycles for vm in outcome.vms))
    if obs is None:
        _cell_cache[key] = result
    return result


#: Degradation policies compared by the fault matrix.
FAULT_POLICIES = ("kill-all", "quarantine", "restart")


@dataclass
class FaultMatrixCell:
    """One (policy, fault kind) cell of the survival matrix."""

    benchmark: str
    policy: str
    kind: str
    verdict: str
    injected: int
    quarantined: list[int] = field(default_factory=list)
    restarted: list[int] = field(default_factory=list)
    cycles: float = 0.0
    #: How restarted variants resynced ("history" | "checkpoint") and
    #: how many history calls each path re-executed at full cost
    #: (``resynced``) vs skipped past via the checkpoint frontier
    #: (``fast_forwarded``) — summed across restarted variants.
    resync_mode: str = "history"
    fast_forwarded: int = 0
    resynced: int = 0

    @property
    def survived(self) -> bool:
        """Did the variant set complete the workload despite the fault?"""
        return self.verdict in ("clean", "degraded")


def _fault_spec_for(kind: str) -> FaultSpec:
    """A canonical single-fault plan per kind, tuned so every kind fires
    within the small benchmark slices the matrix runs.

    Slave-side faults target variant 1; ``corrupt_sync`` and
    ``drop_wake`` are master-side by construction (only the master
    produces sync records and executes futex wakes for real).
    """
    if kind == "drop_wake":
        return FaultSpec(kind=kind, variant=0, at=2)
    if kind == "corrupt_sync":
        return FaultSpec(kind=kind, variant=0, at=20, param=1 << 20)
    if kind == "clock_skew":
        return FaultSpec(kind=kind, variant=1, at=2, param=1 << 20)
    return FaultSpec(kind=kind, variant=1, at=3)


def _fault_matrix_cell(benchmark: str, policy_name: str, kind: str,
                       variants: int, agent: str, scale: float,
                       seed: int, cores: int, costs, watchdog: float,
                       resync_mode: str = "history",
                       checkpoint_every: float | None = None
                       ) -> FaultMatrixCell:
    """One (policy, fault kind) cell; module-level so the parallel
    engine can pickle it by reference into worker processes."""
    spec = RunSpec(benchmark, agent=agent, variants=variants, seed=seed,
                   scale=scale, faults=_fault_spec_for(kind).describe(),
                   policy=policy_name, watchdog=watchdog,
                   resync_mode=resync_mode)
    mvee, _ = build_mvee(
        spec, cores=cores, costs=costs,
        checkpoints=(checkpoint_every if resync_mode == "checkpoint"
                     else None))
    outcome = mvee.run()
    stats = getattr(outcome.monitor, "resync_stats", {}) or {}
    return FaultMatrixCell(
        benchmark=benchmark, policy=policy_name, kind=kind,
        verdict=outcome.verdict,
        injected=len(outcome.faults),
        quarantined=[e.variant for e in outcome.quarantines],
        restarted=[e.variant for e in outcome.quarantines
                   if e.restarted],
        cycles=outcome.cycles,
        resync_mode=resync_mode,
        fast_forwarded=sum(s.get("fast_forwarded", 0)
                           for s in stats.values()),
        resynced=sum(s.get("resynced", 0) for s in stats.values()))


def run_fault_matrix(benchmark: str = "dedup", kinds=None, policies=None,
                     variants: int = 3, agent: str = "wall_of_clocks",
                     scale: float = 0.1, seed: int = 1,
                     cores: int = PAPER_CORES,
                     costs: CostModel | None = None,
                     watchdog_factor: float = 8.0,
                     jobs: int = 1,
                     env: str | None = None,
                     resync_mode: str = "history",
                     checkpoint_every: float | None = None
                     ) -> list[FaultMatrixCell]:
    """Inject each fault kind under each degradation policy.

    Every run gets a watchdog of ``watchdog_factor`` × the native
    runtime, so stall-type faults are diagnosed (``WATCHDOG_TIMEOUT``)
    rather than burning the whole cycle budget.

    ``resync_mode`` picks how restart-policy cells recover condemned
    variants: ``"history"`` replays the full retained master history at
    cost, ``"checkpoint"`` fast-forwards to the latest machine
    checkpoint frontier (taken every ``checkpoint_every`` cycles,
    default native/64, see :func:`repro.run.build_mvee`) and only
    re-executes the suffix — same verdicts, fewer full-cost resync
    steps (``docs/REPLAY.md``).

    ``jobs`` shards the (policy x kind) cells across workers via
    :mod:`repro.par` and ``env`` picks the execution environment
    (``inline``/``process``); results are aggregated in matrix order,
    so every (jobs, env) combination is structurally identical to
    ``jobs=1``.
    """
    if resync_mode not in ("history", "checkpoint"):
        raise ValueError(f"unknown resync mode {resync_mode!r}")
    kinds = tuple(kinds) if kinds else FAULT_KINDS
    policies = tuple(policies) if policies else FAULT_POLICIES
    native = native_cycles(benchmark, scale, seed, cores, costs)
    tasks = []
    for policy_name in policies:
        for kind in kinds:
            tasks.append(CellTask(
                sweep_id="fault-matrix", index=len(tasks),
                fn=_fault_matrix_cell,
                kwargs=dict(benchmark=benchmark,
                            policy_name=policy_name, kind=kind,
                            variants=variants, agent=agent,
                            scale=scale, seed=seed, cores=cores,
                            costs=costs,
                            watchdog=native * watchdog_factor,
                            resync_mode=resync_mode,
                            checkpoint_every=checkpoint_every)))
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    return [result.value for result in results]


def fault_matrix_table(cells) -> str:
    """Render the survival matrix (policy rows × fault-kind columns)."""
    kinds = list(dict.fromkeys(cell.kind for cell in cells))
    policies = list(dict.fromkeys(cell.policy for cell in cells))
    by_key = {(cell.policy, cell.kind): cell for cell in cells}

    def mark_of(cell) -> str:
        mark = cell.verdict
        if cell.restarted:
            mark += "+restart"
        return mark

    width = max(12, *(len(kind) + 2 for kind in kinds),
                *(len(mark_of(cell)) + 2 for cell in cells))
    lines = ["survival matrix: degradation policy x injected fault",
             " " * 12 + "".join(f"{kind:>{width}s}" for kind in kinds)]
    for policy in policies:
        row = [f"{policy:12s}"]
        for kind in kinds:
            cell = by_key.get((policy, kind))
            if cell is None:
                row.append(f"{'-':>{width}s}")
                continue
            row.append(f"{mark_of(cell):>{width}s}")
        lines.append("".join(row))
    survived = sum(1 for cell in cells if cell.survived)
    lines.append(f"{survived}/{len(cells)} cells completed the workload "
                 "(clean or degraded)")
    restart_cells = [cell for cell in cells if cell.restarted]
    if restart_cells:
        mode = restart_cells[0].resync_mode
        ff = sum(cell.fast_forwarded for cell in restart_cells)
        resynced = sum(cell.resynced for cell in restart_cells)
        lines.append(f"resync      : mode={mode}, "
                     f"{resynced} step(s) re-executed at full cost, "
                     f"{ff} fast-forwarded past the checkpoint frontier")
    return "\n".join(lines)


@dataclass
class RaceSweepRow:
    """One workload's detector run in the race-detection experiment."""

    workload: str
    verdict: str
    sync_ops: int
    plain_accesses: int
    races: int
    occurrences: int
    gaps: int
    #: Wall-clock overhead of running with the detector attached, in
    #: percent of the baseline run (simulated cycles are identical by
    #: construction, so host time is the only real cost).
    overhead_pct: float
    #: Simulated timelines with/without the detector matched exactly.
    cycles_identical: bool


def nginx_identified_sites(after_refactor: bool) -> frozenset[str]:
    """The §5.5 static pipeline output, before or after the nginx fix.

    *Before*: only the library corpus was analyzed — the nginx binary's
    custom primitives are absent from the identified set.  *After*: the
    nginx module went through the two-stage analysis too, adding the
    ``nginx.*`` sites.
    """
    from repro.analysis.corpus import nginx_module, paper_corpus
    from repro.analysis.identify import identify_sync_ops
    from repro.analysis.instrument import instrumented_sites

    reports = [identify_sync_ops(module) for module in paper_corpus()]
    if after_refactor:
        reports.append(identify_sync_ops(nginx_module()))
    return instrumented_sites(*reports)


def run_nginx_condition(instrumented: bool, seed: int = 1,
                        costs: CostModel | None = None,
                        detector=None, variants: int = 2, obs=None,
                        agent: str = "wall_of_clocks"):
    """Run the §5.5 server under one instrumentation condition.

    ``instrumented=False`` leaves the custom ``nginx.*`` primitives bare
    (the paper's divergence demo); ``True`` wraps every site.
    """
    from repro.workloads.nginx import pthread_only_sites

    spec = RunSpec("nginx", agent=agent, variants=variants, seed=seed,
                   params=NGINX_PAPER_SIZING)
    keywords = {} if instrumented else {"instrument": pthread_only_sites}
    mvee, _ = build_mvee(spec, costs=costs, races=detector, obs=obs,
                         **keywords)
    return mvee.run()


def _race_row_for(workload: str, run, identified) -> RaceSweepRow:
    """Run one race-sweep workload twice (bare, detector-attached) and
    fold both into a row."""
    import time

    from repro.races import RaceDetector, cross_check

    def timed(fn):
        start = time.perf_counter()
        outcome = fn()
        return outcome, time.perf_counter() - start

    baseline, base_elapsed = timed(lambda: run(None))
    detector = RaceDetector()
    detected, det_elapsed = timed(lambda: run(detector))
    report = detector.report
    coverage = cross_check(report, identified, workload=workload)
    overhead = ((det_elapsed - base_elapsed) / base_elapsed * 100.0
                if base_elapsed > 0 else 0.0)
    return RaceSweepRow(
        workload=workload, verdict=detected.verdict,
        sync_ops=report.sync_ops_seen,
        plain_accesses=report.plain_accesses_checked,
        races=len(report.races),
        occurrences=report.total_occurrences,
        gaps=len(coverage.gaps),
        overhead_pct=overhead,
        cycles_identical=(detected.cycles == baseline.cycles))


def _race_sweep_cell(workload: str, scale: float, seed: int,
                     costs) -> RaceSweepRow:
    """One race-sweep row; module-level for the parallel engine.

    ``workload`` is either a lockstep benchmark name or one of the two
    §5.5 nginx conditions (``"nginx/bare"``, ``"nginx/full"``).  Every
    field of the returned row except ``overhead_pct`` (host wall-clock)
    is a deterministic function of the arguments.
    """
    # Every row, benchmark twins included, runs at the nginx cost model.
    costs = costs or NGINX_COSTS
    if workload in ("nginx/bare", "nginx/full"):
        instrumented = workload == "nginx/full"
        identified = nginx_identified_sites(after_refactor=instrumented)
        return _race_row_for(
            workload,
            lambda detector: run_nginx_condition(instrumented, seed=seed,
                                                 costs=costs,
                                                 detector=detector),
            identified)

    def run_bench(detector):
        spec = RunSpec(workload, variants=2, seed=seed, scale=scale)
        mvee, _ = build_mvee(spec, costs=costs, races=detector)
        return mvee.run()

    return _race_row_for(workload, run_bench, frozenset())


def run_race_sweep(benchmarks=("dedup", "vips"), scale: float = 0.1,
                   seed: int = 1, costs: CostModel | None = None,
                   include_nginx: bool = True,
                   jobs: int = 1,
                   env: str | None = None) -> list[RaceSweepRow]:
    """Race-detection experiment: races found + detector overhead.

    Each workload runs twice — with and without the detector — so the
    row can report both the wall-clock overhead of detection and that
    the simulated timelines stayed identical (the zero-cost contract).
    The lockstep benchmarks run fully instrumented and must report zero
    races; the nginx conditions exercise the coverage cross-check.

    ``jobs`` shards workloads across workers in the ``env`` execution
    environment; row order is always benchmarks-then-nginx regardless
    of completion order or environment.
    """
    workloads = list(benchmarks)
    if include_nginx:
        workloads += ["nginx/bare", "nginx/full"]
    tasks = [CellTask(sweep_id="race-sweep", index=index,
                      fn=_race_sweep_cell,
                      kwargs=dict(workload=workload, scale=scale,
                                  seed=seed, costs=costs))
             for index, workload in enumerate(workloads)]
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    return [result.value for result in results]


def race_sweep_table(rows) -> str:
    """Render the race experiment: races + detector overhead per workload."""
    lines = ["race detection: races found and detector overhead",
             f"{'workload':14s} {'verdict':>11s} {'sync ops':>9s} "
             f"{'plain':>7s} {'races':>6s} {'occur':>7s} {'gaps':>5s} "
             f"{'overhead':>9s} {'timeline':>9s}"]
    for row in rows:
        lines.append(
            f"{row.workload:14s} {row.verdict:>11s} {row.sync_ops:9d} "
            f"{row.plain_accesses:7d} {row.races:6d} "
            f"{row.occurrences:7d} {row.gaps:5d} "
            f"{row.overhead_pct:8.1f}% "
            f"{'same' if row.cycles_identical else 'DIFFERS':>9s}")
    gaps = sum(row.gaps for row in rows)
    lines.append(f"{gaps} coverage gap(s) across the sweep; simulated "
                 "timelines unchanged by detection in "
                 f"{sum(1 for r in rows if r.cycles_identical)}/{len(rows)}"
                 " runs")
    return "\n".join(lines)


#: Watchdog deadline for the deadlock sweep's detector-less baseline
#: rows — what a wedged run costs before the old path even diagnoses it.
DEADLOCK_SWEEP_WATCHDOG = 300_000.0


@dataclass
class DeadlockSweepRow:
    """One (workload, mode) cell of the deadlock-detection experiment."""

    workload: str
    #: ``watchdog`` (detector detached, old diagnosis path) or
    #: ``detector`` (wait-for-graph attached).
    mode: str
    verdict: str
    #: Simulated cycles when the run ended (detection latency).
    cycles: float
    #: The named wait-for cycle, the watchdog cause hint, or ``-``.
    diagnosis: str
    guard_refusals: int
    #: Clean runs only: detector-attached timeline matched detached.
    cycles_identical: bool | None


def _deadlock_sweep_cell(workload: str, mode: str,
                         seed: int) -> DeadlockSweepRow:
    """One deadlock-sweep row; module-level for the parallel engine."""
    import re

    from repro.workloads.philosophers import DiningPhilosophers

    base, _, flavor = workload.partition("+")
    philosophers = int(base.rsplit("/", 1)[1])
    trylock = flavor == "trylock"

    def run(detector):
        policy = (None if mode == "detector" else MonitorPolicy(
            watchdog_cycles=DEADLOCK_SWEEP_WATCHDOG))
        return run_mvee(DiningPhilosophers(philosophers, trylock=trylock),
                        variants=2, seed=seed, policy=policy,
                        max_cycles=5e7, deadlocks=detector)

    if mode == "watchdog":
        outcome = run(None)
        diagnosis = "-"
        if outcome.divergence is not None:
            match = re.search(r"\[cause: ([^\]]+)\]",
                              outcome.divergence.detail)
            diagnosis = match.group(1) if match else "-"
        return DeadlockSweepRow(
            workload=workload, mode=mode, verdict=outcome.verdict,
            cycles=outcome.machine.now, diagnosis=diagnosis,
            guard_refusals=0, cycles_identical=None)

    from repro.races import DeadlockDetector

    detector = DeadlockDetector()
    outcome = run(detector)
    report = detector.report
    diagnosis = (report.records[0].cycle_name() if report.records
                 else "-")
    identical = None
    if outcome.verdict == "clean":
        identical = run(None).machine.now == outcome.machine.now
    return DeadlockSweepRow(
        workload=workload, mode=mode, verdict=outcome.verdict,
        cycles=outcome.machine.now, diagnosis=diagnosis,
        guard_refusals=report.guard_refusals,
        cycles_identical=identical)


def run_deadlock_sweep(sizes=(3, 4), seed: int = 1, jobs: int = 1,
                       env: str | None = None
                       ) -> list[DeadlockSweepRow]:
    """Deadlock-detection experiment: diagnosis latency and quality.

    For each table size the wedging workload runs twice — once on the
    old path (no detector, watchdog deadline diagnosis with the cause
    hint) and once with the wait-for-graph detector (``deadlock``
    verdict at cycle formation) — and the trylock-guarded variant runs
    with the detector to show a guarded program staying clean on an
    unperturbed timeline.
    """
    cells = []
    for size in sizes:
        cells.append((f"philosophers/{size}", "watchdog"))
        cells.append((f"philosophers/{size}", "detector"))
    cells.append((f"philosophers/{sizes[0]}+trylock", "detector"))
    tasks = [CellTask(sweep_id="deadlock-sweep", index=index,
                      fn=_deadlock_sweep_cell,
                      kwargs=dict(workload=workload, mode=mode,
                                  seed=seed))
             for index, (workload, mode) in enumerate(cells)]
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    return [result.value for result in results]


def deadlock_sweep_table(rows) -> str:
    """Render the deadlock experiment: latency + diagnosis per cell."""
    lines = ["deadlock detection: diagnosis latency and quality",
             f"{'workload':22s} {'mode':>9s} {'verdict':>11s} "
             f"{'cycles':>10s} {'guards':>7s} {'timeline':>9s}  diagnosis"]
    for row in rows:
        timeline = ("same" if row.cycles_identical
                    else "DIFFERS" if row.cycles_identical is False
                    else "-")
        lines.append(
            f"{row.workload:22s} {row.mode:>9s} {row.verdict:>11s} "
            f"{row.cycles:10.0f} {row.guard_refusals:7d} "
            f"{timeline:>9s}  {row.diagnosis}")
    detected = [row for row in rows
                if row.mode == "detector" and row.verdict == "deadlock"]
    baseline = {row.workload: row.cycles for row in rows
                if row.mode == "watchdog"}
    speedups = [baseline[row.workload] / row.cycles for row in detected
                if baseline.get(row.workload)]
    if speedups:
        lines.append(
            f"detector diagnoses {len(detected)} wedge(s) "
            f"{min(speedups):.1f}-{max(speedups):.1f}x earlier than "
            "the watchdog deadline, with the cycle named")
    return "\n".join(lines)


def _grid_cell(benchmark: str, agent: str, variants: int, scale: float,
               seed: int, costs) -> ExperimentResult:
    """One Figure 5 grid cell; module-level for the parallel engine."""
    return run_one(benchmark, agent, variants, scale=scale, seed=seed,
                   costs=costs)


def run_benchmark_grid(benchmarks=None, agents=AGENTS,
                       variant_counts=VARIANT_COUNTS,
                       scale: float = 1.0, seed: int = 1,
                       costs: CostModel | None = None,
                       jobs: int = 1,
                       env: str | None = None) -> list[ExperimentResult]:
    """Run the full (or a partial) Figure 5 grid.

    ``jobs`` shards grid cells across workers in the ``env`` execution
    environment (process workers bypass the per-process memo cache;
    ``jobs=1`` runs inline, sharing it).  Result order is always the
    canonical grid nesting.
    """
    if benchmarks is None:
        benchmarks = list(ALL_SPECS)
    tasks = []
    for benchmark in benchmarks:
        for agent in agents:
            for variants in variant_counts:
                tasks.append(CellTask(
                    sweep_id="fig5-grid", index=len(tasks),
                    fn=_grid_cell,
                    kwargs=dict(benchmark=benchmark, agent=agent,
                                variants=variants, scale=scale,
                                seed=seed, costs=costs)))
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    return [result.value for result in results]
