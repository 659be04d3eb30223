"""The paper's sweeps: the Figure 5 / Table 1 grid, the fault matrix,
the race sweep and the deadlock sweep.

Runs (benchmark × agent × variant count) configurations, normalizing each
MVEE run against the benchmark's native execution on the same machine
configuration — the paper's methodology ("relative to unprotected
execution").  Every spec-shaped sweep is a list of
:class:`~repro.run.RunSpec` cells run by :func:`repro.run.run_spec_cell`
through :func:`repro.par.engine.run_specs`; each row type here is a
projection of the :class:`~repro.run.RunRecord` it returns, computed
in the caller.  Records are memoized per process on the spec's value,
so the figure and table benches can share one sweep.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field, replace

from repro.errors import BadRequest
from repro.faults.plan import FAULT_KINDS, FaultSpec
from repro.par.engine import run_specs
from repro.perf.report import SlowdownReport
from repro.run import (
    NGINX_COSTS,
    NGINX_PAPER_SIZING,
    RunRecord,
    RunSpec,
    native_cycles,
    reset_caches as reset_caches,  # re-exported for sweep callers
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

    @classmethod
    def of(cls, record: RunRecord) -> "ExperimentResult":
        """The grid-cell projection of a run record."""
        return cls(benchmark=record.spec.workload,
                   agent=record.spec.agent,
                   variants=record.spec.variants,
                   native_cycles=record.native_cycles,
                   mvee_cycles=record.cycles, verdict=record.verdict,
                   sync_ops=record.sync_ops or 0,
                   syscalls=record.syscalls or 0,
                   stall_cycles=record.stall_cycles)

    def to_slowdown(self) -> SlowdownReport:
        return SlowdownReport(benchmark=self.benchmark, agent=self.agent,
                              variants=self.variants,
                              native_cycles=self.native_cycles,
                              mvee_cycles=self.mvee_cycles)

    @property
    def slowdown(self) -> float:
        return self.mvee_cycles / self.native_cycles


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


def run_fault_matrix(benchmark: str = "dedup", kinds=None, policies=None,
                     variants: int = 3, agent: str = "wall_of_clocks",
                     scale: float = 0.1, seed: int = 1,
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
    # Every spec is validated here, in the parent, so a bad one fails
    # before dispatch with a typed BadRequest, not in a worker.
    base = RunSpec(benchmark, agent=agent, variants=variants, seed=seed,
                   scale=scale, resync_mode=resync_mode).validate()
    if benchmark not in ALL_SPECS:
        raise BadRequest(f"{benchmark!r} has no native runtime to set "
                         "the watchdog; use a benchmark twin (see "
                         "'repro list')")
    kinds = tuple(kinds) if kinds else FAULT_KINDS
    policies = tuple(policies) if policies else FAULT_POLICIES
    watchdog = native_cycles(benchmark, scale, seed) * watchdog_factor
    checkpoints = (checkpoint_every if resync_mode == "checkpoint"
                   else None)
    cells = [(policy_name, kind) for policy_name in policies
             for kind in kinds]
    specs = [replace(base, faults=_fault_spec_for(kind).describe(),
                     policy=policy_name, watchdog=watchdog).validate()
             for policy_name, kind in cells]
    records = run_specs("fault-matrix", [
        {"spec": spec, "checkpoints": checkpoints} for spec in specs],
        jobs=jobs, env=env)
    return [FaultMatrixCell(
        benchmark=benchmark, policy=policy_name, kind=kind,
        verdict=record.verdict, injected=record.faults_injected,
        quarantined=list(record.quarantined),
        restarted=list(record.restarted), cycles=record.cycles,
        resync_mode=resync_mode,
        fast_forwarded=record.resync_stats["fast_forwarded"],
        resynced=record.resync_stats["resynced"])
        for (policy_name, kind), record in zip(cells, records, strict=True)]


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
    #: construction, so host time is the only real cost): the two
    #: twins' ``RunRecord.wall_s``, taken back to back in one cell and
    #: each around the simulation only, so the native baseline one
    #: twin computes is not counted.
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


def _race_twins(workload: str, scale: float, seed: int) -> dict:
    """The race-sweep cell of one workload: an untimed warm-up detector
    run, then ``OVERHEAD_REPEATS`` alternating (bare, detector) twin
    pairs, as one :func:`~repro.run.run_spec_cell` call, so every run
    is timed fresh, back to back, on one worker.  A workload is a
    lockstep benchmark or a §5.5 nginx condition (``nginx/bare`` leaves
    the custom ``nginx.*`` primitives uninstrumented, ``nginx/full``
    wraps every site).  Every twin runs at the nginx cost model."""
    from repro.telemetry.overhead import OVERHEAD_REPEATS
    from repro.workloads.nginx import pthread_only_sites

    if workload.startswith("nginx/"):
        spec = RunSpec("nginx", variants=2, seed=seed,
                       params=NGINX_PAPER_SIZING)
    else:
        spec = RunSpec(workload, variants=2, seed=seed, scale=scale)
    detect = replace(spec, race_detect=True)
    return {"spec": [detect] + [spec, detect] * OVERHEAD_REPEATS,
            "costs": NGINX_COSTS,
            "instrument": (pthread_only_sites if workload == "nginx/bare"
                           else None)}


def run_race_sweep(benchmarks=("dedup", "vips"), scale: float = 0.1,
                   seed: int = 1, include_nginx: bool = True,
                   jobs: int = 1,
                   env: str | None = None) -> list[RaceSweepRow]:
    """Race-detection experiment: races found + detector overhead.

    Each workload runs with and without the detector, in alternating
    pairs after a warm-up, so the row can report both the wall-clock
    overhead of detection (the median of the per-pair deltas) and that
    the simulated timelines stayed identical (the zero-cost contract).
    The lockstep benchmarks run fully instrumented and must report zero
    races; the nginx conditions exercise the coverage cross-check.

    ``jobs`` shards the workloads across workers in the ``env``
    execution environment (a workload's twins always share one); row
    order is always benchmarks-then-nginx regardless of completion
    order or environment.  Every field of a row except ``overhead_pct``
    (host wall-clock) is a deterministic function of the arguments.
    """
    from repro.races.coverage import cross_check

    workloads = list(benchmarks)
    if include_nginx:
        workloads += ["nginx/bare", "nginx/full"]
    twins = run_specs("race-sweep",
                      [_race_twins(workload, scale, seed)
                       for workload in workloads], jobs=jobs, env=env)
    rows = []
    for workload, (_, *runs) in zip(workloads, twins, strict=True):
        pairs = list(zip(runs[0::2], runs[1::2], strict=True))
        detected = runs[1]
        report = detected.races
        identified = (nginx_identified_sites(
            after_refactor=workload == "nginx/full")
            if workload.startswith("nginx/") else frozenset())
        coverage = cross_check(report, identified, workload=workload)
        rows.append(RaceSweepRow(
            workload=workload, verdict=detected.verdict,
            sync_ops=report.sync_ops_seen,
            plain_accesses=report.plain_accesses_checked,
            races=len(report.races),
            occurrences=report.total_occurrences,
            gaps=len(coverage.gaps),
            overhead_pct=100.0 * statistics.median(
                (twin.wall_s - bare.wall_s) / bare.wall_s
                for bare, twin in pairs),
            cycles_identical=all(twin.cycles == bare.cycles
                                 for bare, twin in pairs)))
    return rows


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


def _deadlock_row(record: RunRecord, twin: RunRecord | None = None
                  ) -> DeadlockSweepRow:
    """The sweep-row projection of a run record; ``twin`` is the
    detector-less rerun of a clean detector row."""
    spec, report = record.spec, record.deadlocks
    diagnosis = "-"
    if report is not None and report.records:
        diagnosis = report.records[0].cycle_name()
    elif record.divergence is not None:
        match = re.search(r"\[cause: ([^\]]+)\]", record.divergence)
        diagnosis = match.group(1) if match else "-"
    return DeadlockSweepRow(
        workload=spec.workload,
        mode="detector" if spec.deadlock_detect else "watchdog",
        verdict=record.verdict, cycles=record.cycles, diagnosis=diagnosis,
        guard_refusals=report.guard_refusals if report is not None else 0,
        cycles_identical=(twin.cycles == record.cycles
                          if twin is not None else None))


def run_deadlock_sweep(sizes=(3, 4), seed: int = 1, jobs: int = 1,
                       env: str | None = None
                       ) -> list[DeadlockSweepRow]:
    """Deadlock-detection experiment: diagnosis latency and quality.

    For each table size the wedging workload runs twice — once on the
    old path (no detector, watchdog deadline diagnosis with the cause
    hint) and once with the wait-for-graph detector (``deadlock``
    verdict at cycle formation) — and the trylock-guarded variant runs
    with the detector to show a guarded program staying clean on an
    unperturbed timeline: each clean detector row reruns as a
    detector-less twin, compared on cycles.
    """
    specs = []
    for size in sizes:
        specs.append(RunSpec(f"philosophers/{size}", seed=seed,
                             watchdog=DEADLOCK_SWEEP_WATCHDOG))
        specs.append(RunSpec(f"philosophers/{size}", seed=seed,
                             deadlock_detect=True))
    specs.append(RunSpec(f"philosophers/{sizes[0]}+trylock", seed=seed,
                         deadlock_detect=True))
    records = run_specs("deadlock-sweep", [{"spec": spec}
                                           for spec in specs],
                        jobs=jobs, env=env)
    clean = [index for index, record in enumerate(records)
             if record.spec.deadlock_detect and record.verdict == "clean"]
    twins = run_specs("deadlock-sweep-twins", [
        {"spec": replace(records[index].spec, deadlock_detect=False)}
        for index in clean], jobs=jobs, env=env)
    twins = dict(zip(clean, twins, strict=True))
    return [_deadlock_row(record, twins.get(index))
            for index, record in enumerate(records)]


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


def run_benchmark_grid(benchmarks=None, agents=AGENTS,
                       variant_counts=VARIANT_COUNTS,
                       scale: float = 1.0, seed: int = 1,
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
    records = run_specs("fig5-grid", [
        {"spec": RunSpec(benchmark, agent=agent, variants=variants,
                         seed=seed, scale=scale)}
        for benchmark in benchmarks for agent in agents
        for variants in variant_counts], jobs=jobs, env=env)
    return [ExperimentResult.of(record) for record in records]
