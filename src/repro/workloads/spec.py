"""Benchmark specifications calibrated from the paper's Table 2.

Each :class:`WorkloadSpec` records the original benchmark's measured
characteristics — native run time (seconds), system-call rate and sync-op
rate (thousands per second, Table 2) — plus structural attributes the
paper describes in the text:

* ``topology`` — ``"data_parallel"`` (worker loop), ``"pipeline"``
  (dedup/ferret/vips-style stages connected by queues; these run more
  threads than workers, which is what produces the superlinear
  degradation once total threads exceed the machine's cores, §5.1),
  ``"phases"`` (SPLASH-style barrier-separated phases), or ``"gomp"``
  (freqmine's OpenMP loop).
* ``contention`` — fraction of sync ops that target globally shared
  locks rather than per-thread ones.  This drives the TO/PO agents'
  pathologies (radiosity's task queue is the extreme case).
* ``n_locks`` — how many distinct synchronization variables exist
  (matters for wall-of-clocks hash collisions).

Because the originals run for tens of seconds and execute up to 18M sync
ops per second, the synthetic twin simulates a *slice* with the same
rates; :func:`plan_slice` picks the slice length so each configuration
stays within an event budget while preserving every rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.vtime import seconds_to_cycles


@dataclass(frozen=True)
class WorkloadSpec:
    """Calibration record for one benchmark."""

    name: str
    suite: str                    # "parsec" | "splash2x"
    native_runtime_s: float       # Table 2, seconds
    syscall_rate_k: float         # Table 2, 1000 calls/sec
    sync_rate_k: float            # Table 2, 1000 ops/sec
    topology: str = "data_parallel"
    contention: float = 0.3       # fraction of ops on shared locks
    n_locks: int = 32             # distinct sync variables
    workers: int = 4              # paper: four worker threads
    #: Pipeline stage multiplier: dedup runs 3n threads, ferret 2+4n,
    #: vips 2+n (footnote 8); encoded as (fixed, per_worker) stages.
    pipeline_threads: tuple[int, int] = (0, 0)

    @property
    def total_threads(self) -> int:
        """Threads the benchmark actually runs (excl. main)."""
        if self.topology == "pipeline":
            fixed, per_worker = self.pipeline_threads
            return fixed + per_worker * self.workers
        return self.workers


def _parsec(name, runtime, syscall_k, sync_k, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, suite="parsec",
                        native_runtime_s=runtime, syscall_rate_k=syscall_k,
                        sync_rate_k=sync_k, **kwargs)


def _splash(name, runtime, syscall_k, sync_k, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, suite="splash2x",
                        native_runtime_s=runtime, syscall_rate_k=syscall_k,
                        sync_rate_k=sync_k, **kwargs)


#: PARSEC 2.1 rows of Table 2 (canneal excluded: intentionally racy, and
#: fundamentally incompatible with MVEEs — §5.1).
PARSEC_SPECS = {spec.name: spec for spec in [
    _parsec("blackscholes", 80.83, 2.55, 0.00, contention=0.0, n_locks=1),
    _parsec("bodytrack", 60.06, 8.59, 202.36, contention=0.35,
            n_locks=24),
    _parsec("dedup", 18.29, 134.27, 1052.45, topology="pipeline",
            pipeline_threads=(0, 3), contention=0.55, n_locks=16),
    _parsec("facesim", 142.52, 4.14, 288.75, contention=0.25, n_locks=48),
    _parsec("ferret", 103.79, 2.29, 225.10, topology="pipeline",
            pipeline_threads=(2, 4), contention=0.40, n_locks=20),
    _parsec("fluidanimate", 93.19, 0.45, 12746.59, contention=0.30,
            n_locks=512),
    _parsec("freqmine", 168.66, 0.35, 0.24, topology="gomp",
            contention=0.2, n_locks=4),
    _parsec("raytrace", 147.54, 0.78, 88.33, contention=0.15, n_locks=16),
    _parsec("streamcluster", 136.05, 5.63, 18.78, topology="phases",
            contention=0.5, n_locks=8),
    _parsec("swaptions", 86.68, 0.01, 4585.65, contention=0.45,
            n_locks=64),
    _parsec("vips", 37.09, 15.76, 428.69, topology="pipeline",
            pipeline_threads=(2, 1), contention=0.35, n_locks=24),
    _parsec("x264", 34.73, 0.50, 15.98, contention=0.2, n_locks=12),
]}

#: SPLASH-2x rows (cholesky excluded: does not compile on the paper's
#: system even outside the MVEE — §5.1).
SPLASH_SPECS = {spec.name: spec for spec in [
    _splash("barnes", 61.15, 19.61, 5115.99, contention=0.6, n_locks=128),
    _splash("fft", 40.26, 0.01, 1.64, topology="phases", contention=0.3,
            n_locks=4),
    _splash("fmm", 42.68, 0.91, 5215.01, contention=0.35, n_locks=256),
    _splash("lu_cb", 51.16, 0.08, 0.23, topology="phases",
            contention=0.2, n_locks=4),
    _splash("lu_ncb", 73.55, 0.05, 0.16, topology="phases",
            contention=0.2, n_locks=4),
    _splash("ocean_cp", 39.39, 1.21, 5.05, topology="phases",
            contention=0.3, n_locks=8),
    _splash("ocean_ncp", 41.68, 1.08, 4.55, topology="phases",
            contention=0.3, n_locks=8),
    _splash("radiosity", 45.56, 33.42, 18252.68, contention=0.75,
            n_locks=64),
    _splash("radix", 18.22, 0.02, 0.04, topology="phases",
            contention=0.2, n_locks=4),
    _splash("raytrace.splash", 52.52, 6.63, 536.79, contention=0.45,
            n_locks=32),
    _splash("volrend", 52.02, 15.86, 1071.25, contention=0.5, n_locks=48),
    _splash("water_nsquared", 182.80, 0.88, 8.61, contention=0.25,
            n_locks=16),
    _splash("water_spatial", 59.84, 148.27, 9.63, contention=0.25,
            n_locks=16),
]}

ALL_SPECS = {**PARSEC_SPECS, **SPLASH_SPECS}

#: Largest ``philosophers/N`` table a spec may ask for.
MAX_PHILOSOPHERS = 16


def catalog() -> list[dict]:
    """Machine-readable benchmark-twin listing.

    One entry per synthetic twin, the §5.5 nginx service and the
    ``philosophers/N[+trylock]`` name pattern — the same
    structure behind ``repro list --json`` and the serve daemon's
    ``workloads`` op, so clients discover workloads without scraping
    stdout.  Fields are plain JSON types.
    """
    entries = []
    for name, spec in ALL_SPECS.items():
        entries.append({
            "name": name,
            "kind": "benchmark",
            "suite": spec.suite,
            "topology": spec.topology,
            "native_runtime_s": spec.native_runtime_s,
            "syscall_rate_k": spec.syscall_rate_k,
            "sync_rate_k": spec.sync_rate_k,
            "contention": spec.contention,
            "n_locks": spec.n_locks,
            "workers": spec.workers,
            "total_threads": spec.total_threads,
        })
    entries.append({
        "name": "nginx",
        "kind": "service",
        "suite": "use-case",
        "topology": "acceptor_pool",
        "description": "§5.5 threaded web server with custom sync "
                       "primitives (fully instrumented)",
    })
    entries.append({
        "name": "philosophers/N",
        "kind": "deadlock",
        "suite": "deadlock",
        "topology": "ring",
        "min_n": 2,
        "max_n": MAX_PHILOSOPHERS,
        "flavours": ["+trylock"],
        "description": "dining philosophers, N from min_n to max_n at "
                       "the table: the plain table always deadlocks, "
                       "the +trylock flavour backs off and completes",
    })
    return entries


def spec_by_name(name: str) -> WorkloadSpec:
    try:
        return ALL_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; choose from "
                         f"{sorted(ALL_SPECS)}") from None


@dataclass(frozen=True)
class SlicePlan:
    """Concrete event budget for one simulated slice of a benchmark."""

    duration_s: float             # simulated slice length
    sync_ops_total: int           # target sync ops across all threads
    syscalls_total: int           # target syscalls across all threads
    gap_cycles: float             # compute cycles between worker events

    @property
    def duration_cycles(self) -> float:
        return seconds_to_cycles(self.duration_s)


#: Hard bounds on simulated slice length.
MIN_SLICE_S = 0.00005
MAX_SLICE_S = 0.050

#: Cap on compute cycles between two worker events (keeps critical
#: sections, and hence spin-wait storms, bounded for near-idle specs).
MAX_GAP_CYCLES = 400_000.0


def plan_slice(spec: WorkloadSpec, scale: float = 1.0,
               max_sync_events: int = 5_000,
               max_syscalls: int = 600) -> SlicePlan:
    """Choose a slice length reproducing the spec's rates within budget.

    The sync-op budget is the binding constraint (the heavy benchmarks
    run millions of ops per second); the slice is the longest length that
    respects it, clamped to [MIN_SLICE_S, MAX_SLICE_S] and to the
    syscall budget.  ``scale`` shrinks (<1) or grows (>1) the budgets —
    tests use small scales, the figure benches the default.
    """
    sync_per_s = spec.sync_rate_k * 1000.0
    sys_per_s = spec.syscall_rate_k * 1000.0
    sync_budget = max(200, int(max_sync_events * scale))
    sys_budget = max(20, int(max_syscalls * scale))
    duration = MAX_SLICE_S
    if sync_per_s > 0:
        duration = min(duration, sync_budget / sync_per_s)
    if sys_per_s > 0:
        duration = min(duration, sys_budget / sys_per_s)
    duration = max(duration, MIN_SLICE_S)
    duration = min(duration, spec.native_runtime_s)
    sync_total = int(sync_per_s * duration)
    sys_total = max(1, int(sys_per_s * duration))
    # Worker-side event pacing: each worker runs for the whole slice and
    # spreads its share of events across it.  A floor on events keeps
    # near-idle specs (radix, lu) from degenerating into one giant
    # critical section per slice.
    events_per_worker = max(20, (sync_total + sys_total)
                            // max(spec.total_threads, 1))
    gap = seconds_to_cycles(duration) / events_per_worker
    return SlicePlan(duration_s=duration, sync_ops_total=sync_total,
                     syscalls_total=sys_total,
                     gap_cycles=min(max(gap, 50.0), MAX_GAP_CYCLES))
