"""``repro bench`` — the repo's performance harness.

Runs the benchmark matrix (benchmark x agent x variant count) through
the parallel engine twice — once sharded across ``jobs`` workers, once
inline — and records wall-clock, cell counts, and the measured
speedup-vs-serial into ``BENCH_par.json`` at the repo root.  That file
seeds the repo's performance trajectory: every optimisation claim
("makes a hot path measurably faster") is checked against it.

The harness is also its own conformance check: the serial and parallel
phases run the *same* task list (same derived per-cell seeds), so the
report records whether their structural outputs were identical and the
SHA-256 digest of the canonical aggregate.

Schema of ``BENCH_par.json`` (``format_version`` 2) — see
``docs/PERFORMANCE.md``:

``kind``/``format_version``/``generated_unix``
    Artifact identification.
``host``
    ``cpu_count``, ``platform``, ``python`` of the machine measured.
``jobs``/``quick``
    The requested worker count and matrix size.
``matrix``
    ``benchmarks``, ``agents``, ``variant_counts``, ``scale``, ``seed``,
    and the resulting ``cells`` count.
``serial``/``parallel``
    Per-phase ``wall_s``, ``ok``, ``failed`` (``parallel`` is ``null``
    for ``--jobs 1``); ``serial`` additionally carries ``cell_wall_s``,
    the per-cell host wall-clock in cell order (v2).  For the process
    environment ``parallel`` also carries ``warm_wall_s`` — the same
    matrix re-run on the already-forked pool (worker memo caches reset
    first), isolating fork/import amortisation from cache effects.
``environment``/``pool``/``scheduler``
    The execution environment the parallel phase ran in
    (``--env inline|process``), the persistent pool's lifecycle
    counters (spawned/respawns/tasks/batches), and the work-stealing
    scheduler's steal counts.  Host diagnostics only —
    never part of the digest.
``speedup``
    serial wall / parallel wall (``null`` for ``--jobs 1``);
    ``speedup_warm`` is the same ratio against the warm-pool re-run.
``identical``
    Whether parallel structural output matched serial bit-for-bit.
``digest``
    ``sha256:`` digest of the canonical serial aggregate.  The digest
    covers only simulated quantities — unchanged between v1 and v2, so
    digests compare across format versions.
``profile`` (v2)
    Cycle profile of the matrix's first cell (``repro.prof``): the
    cell's identity plus ``per_category`` and ``total_cycles``, used by
    ``repro bench --compare`` to flag category-share shifts.
``observability_overhead`` (v2)
    Telemetry's self-measured host cost on the first cell
    (``repro.telemetry.overhead``): bare vs traced wall over
    alternating pairs, the median per-pair overhead fraction, and
    ``digest_identical`` — the zero-perturbation
    contract, self-checked per run.  ``--compare`` warns (never fails)
    on an overhead regression; a broken ``digest_identical`` fails.
``trajectory`` (v2)
    Accumulated history: one compact entry per prior reference this
    report was ``--compare``'d against (oldest first).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time

from repro.par.engine import CellTask, merge_cell_traces, run_cells
from repro.par.seeds import derive_cell_seed

#: Default artifact path, at the repo root by convention.
DEFAULT_OUT = "BENCH_par.json"

FORMAT_VERSION = 2

#: The quick matrix: two cheap, shape-diverse cells per agent — enough
#: to exercise the engine, the schema, and CI smoke in seconds.
QUICK_BENCHMARKS = ("fft", "dedup")
QUICK_AGENTS = ("wall_of_clocks",)
QUICK_VARIANTS = (2,)
QUICK_SCALE = 0.05

#: The full matrix mirrors the Figure 5 grid.
FULL_SCALE = 0.1


def build_matrix(quick: bool = False, scale: float | None = None,
                 seed: int = 1) -> dict:
    """Describe the benchmark matrix (the sweep's parameter space)."""
    if quick:
        benchmarks, agents, variant_counts = (
            QUICK_BENCHMARKS, QUICK_AGENTS, QUICK_VARIANTS)
        scale = QUICK_SCALE if scale is None else scale
    else:
        from repro.experiments.runner import AGENTS, VARIANT_COUNTS
        from repro.workloads.spec import ALL_SPECS

        benchmarks = tuple(ALL_SPECS)
        agents = AGENTS
        variant_counts = VARIANT_COUNTS
        scale = FULL_SCALE if scale is None else scale
    return {
        "benchmarks": list(benchmarks),
        "agents": list(agents),
        "variant_counts": list(variant_counts),
        "scale": scale,
        "seed": seed,
        "cells": len(benchmarks) * len(agents) * len(variant_counts),
    }


def bench_tasks(matrix: dict, with_obs: bool = False) -> list[CellTask]:
    """Expand a matrix into the engine's task list.

    Each cell is a :func:`repro.run.run_spec_cell` of one
    :class:`~repro.run.RunSpec`.  Cell order is the canonical
    (benchmark, agent, variants) nesting and each cell's seed derives
    from its position, so the task list — and therefore the aggregate —
    is a pure function of the matrix.
    """
    from repro.run import RunSpec, run_spec_cell

    tasks = []
    for benchmark in matrix["benchmarks"]:
        for agent in matrix["agents"]:
            for variants in matrix["variant_counts"]:
                seed = derive_cell_seed("bench", len(tasks),
                                        matrix["seed"])
                spec = RunSpec(benchmark, agent=agent, variants=variants,
                               seed=seed, scale=matrix["scale"])
                tasks.append(CellTask(
                    sweep_id="bench", index=len(tasks), fn=run_spec_cell,
                    kwargs={"spec": spec}, seed=seed, with_obs=with_obs))
    return tasks


def canonical_cells(results) -> list[dict]:
    """Structural form of a bench aggregate: deterministic fields only,
    in cell order (host wall-clock never appears here)."""
    from repro.experiments.runner import ExperimentResult

    cells = []
    for result in results:
        if not result.ok:
            cells.append({"index": result.index, "ok": False,
                          "error": result.error})
            continue
        r = ExperimentResult.of(result.value)
        cells.append({
            "index": result.index,
            "benchmark": r.benchmark, "agent": r.agent,
            "variants": r.variants, "verdict": r.verdict,
            "native_cycles": r.native_cycles,
            "mvee_cycles": r.mvee_cycles,
            "sync_ops": r.sync_ops, "syscalls": r.syscalls,
            "stall_cycles": r.stall_cycles,
        })
    return cells


def digest_of(cells: list[dict]) -> str:
    payload = json.dumps(cells, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def run_bench(jobs: int = 1, quick: bool = False,
              scale: float | None = None, seed: int = 1,
              env: str | None = None,
              out_path: str | None = DEFAULT_OUT,
              trace_dir: str | None = None,
              trajectory: list | None = None) -> dict:
    """Run the harness and return (and optionally write) the report.

    The parallel phase runs *first*: its workers fork from a parent
    whose memo caches are cold, and the caches are reset again before
    the serial phase, so neither phase warms the other.

    ``env`` selects the execution environment for the parallel phase
    (default ``process``).  The process environment runs the matrix
    twice on a *private* pool: a cold pass on a freshly created pool
    (fork cost included, like the first sweep of a session) and a warm pass
    on the same already-forked workers — with the workers' memo caches
    reset in between via the pool control plane, so ``warm_wall_s``
    measures fork/import amortisation rather than cache hits.
    """
    from repro.run import reset_caches, run_spec_cell

    matrix = build_matrix(quick=quick, scale=scale, seed=seed)
    parallel_block = None
    speedup = None
    speedup_warm = None
    identical = None
    merged_trace = None
    environment_name = None
    pool_block = None
    scheduler_block = None
    if jobs > 1:
        from repro.par.environment import (
            ProcessEnvironment,
            environment_for,
        )
        from repro.par.pool import WorkerPool

        environment_name = env or "process"
        pool = None
        if environment_name == "process":
            # Private pool: cold/warm measurement must not ride workers
            # another sweep already forked.
            pool = WorkerPool(jobs)
            environment = ProcessEnvironment(pool=pool)
        else:
            environment = environment_for(environment_name)
        runner = environment.make_runner(jobs)
        tasks = bench_tasks(matrix, with_obs=trace_dir is not None)
        reset_caches()
        try:
            start = time.perf_counter()
            par_results = runner.run(tasks, trace_dir)
            par_wall = time.perf_counter() - start
            parallel_block = {
                "wall_s": par_wall,
                "ok": sum(1 for r in par_results if r.ok),
                "failed": sum(1 for r in par_results if not r.ok),
            }
            if trace_dir is not None:
                merged_trace = os.path.join(trace_dir, "merged.jsonl")
                merge_cell_traces(par_results, merged_trace)
            if pool is not None:
                # Warm pass: same workers, cold caches.
                pool.call_all(reset_caches)
                start = time.perf_counter()
                warm_results = runner.run(bench_tasks(matrix), None)
                parallel_block["warm_wall_s"] = (time.perf_counter()
                                                 - start)
                if (canonical_cells(warm_results)
                        != canonical_cells(par_results)):
                    parallel_block["warm_identical"] = False
            runner_stats = runner.stats()
            scheduler_block = runner_stats.get("scheduler")
            pool_block = runner_stats.get("pool")
        finally:
            runner.close()
            if pool is not None:
                pool.shutdown()

    tasks = bench_tasks(matrix)
    reset_caches()
    start = time.perf_counter()
    serial_results = run_cells(tasks, jobs=1)
    serial_wall = time.perf_counter() - start
    serial_cells = canonical_cells(serial_results)

    # Outside the timed phases: telemetry measures its own host cost on
    # the matrix's first cell (see repro.telemetry.overhead).
    from repro.telemetry.overhead import measure_cell_overhead

    first = bench_tasks(matrix)[0]
    overhead_block = measure_cell_overhead(first)
    # The cycle profile of the first cell feeds the --compare
    # category-shift check; simulated quantities only.
    spec = first.kwargs["spec"]
    profiled = run_spec_cell(spec, outputs={"profile": 1})

    if parallel_block is not None:
        speedup = (serial_wall / parallel_block["wall_s"]
                   if parallel_block["wall_s"] > 0 else None)
        warm_wall = parallel_block.get("warm_wall_s")
        if warm_wall:
            speedup_warm = serial_wall / warm_wall
        identical = (canonical_cells(par_results) == serial_cells
                     and parallel_block.get("warm_identical", True))

    report = {
        "kind": "repro-bench",
        "format_version": FORMAT_VERSION,
        "generated_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "jobs": jobs,
        "quick": quick,
        "environment": environment_name,
        "pool": pool_block,
        "scheduler": scheduler_block,
        "matrix": matrix,
        "serial": {
            "wall_s": serial_wall,
            "ok": sum(1 for r in serial_results if r.ok),
            "failed": sum(1 for r in serial_results if not r.ok),
            "cell_wall_s": [round(r.duration_s, 6)
                            for r in serial_results],
        },
        "parallel": parallel_block,
        "speedup": speedup,
        "speedup_warm": speedup_warm,
        "identical": identical,
        "digest": digest_of(serial_cells),
        "profile": {
            "benchmark": spec.workload,
            "agent": spec.agent,
            "variants": spec.variants,
            "per_category": profiled.extras["profile"]["per_category"],
            "total_cycles": profiled.extras["profile"]["total_cycles"],
            "machine_cycles": profiled.cycles,
        },
        "observability_overhead": overhead_block,
        "trajectory": list(trajectory or []),
    }
    if merged_trace is not None:
        report["merged_trace"] = merged_trace
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return report


def render_bench(report: dict) -> str:
    """Human-readable summary of a bench report."""
    matrix = report["matrix"]
    lines = [
        "repro bench: benchmark matrix via the parallel engine",
        f"matrix   : {len(matrix['benchmarks'])} benchmark(s) x "
        f"{len(matrix['agents'])} agent(s) x "
        f"{len(matrix['variant_counts'])} variant count(s) = "
        f"{matrix['cells']} cells (scale {matrix['scale']}, "
        f"seed {matrix['seed']})",
        f"host     : {report['host']['cpu_count']} cpu(s), "
        f"python {report['host']['python']}",
        f"serial   : {report['serial']['wall_s']:.2f}s wall, "
        f"{report['serial']['ok']} ok, "
        f"{report['serial']['failed']} failed",
    ]
    if report["parallel"] is not None:
        environment = report.get("environment") or "process"
        lines.append(
            f"parallel : {report['parallel']['wall_s']:.2f}s wall "
            f"({report['jobs']} jobs, {environment} env), "
            f"{report['parallel']['ok']} ok, "
            f"{report['parallel']['failed']} failed")
        warm = report["parallel"].get("warm_wall_s")
        if warm is not None:
            delta = report["parallel"]["wall_s"] - warm
            lines.append(
                f"warm pool: {warm:.2f}s wall on the already-forked "
                f"pool ({delta:+.2f}s vs cold"
                + (f", {report['speedup_warm']:.2f}x vs serial)"
                   if report.get("speedup_warm") else ")"))
        pool = report.get("pool")
        if pool:
            lines.append(
                f"pool     : {pool['size']} worker(s), "
                f"{pool['spawned']} spawned, {pool['respawns']} "
                f"respawn(s), {pool['tasks']} cell(s) over "
                f"{pool['batches']} batch(es)")
        scheduler = report.get("scheduler")
        if scheduler:
            lines.append(
                f"stealing : {scheduler['steals']} steal(s) moved "
                f"{scheduler['cells_stolen']} cell(s)")
        lines.append(
            f"speedup  : {report['speedup']:.2f}x vs serial; "
            "structural output "
            + ("IDENTICAL to serial" if report["identical"]
               else "DIFFERS from serial (bug!)"))
    else:
        lines.append("parallel : skipped (--jobs 1)")
    overhead = report.get("observability_overhead")
    if overhead and overhead.get("overhead_frac") is not None:
        lines.append(
            f"telemetry: {overhead['overhead_frac'] * 100.0:+.1f}% host "
            "overhead per traced cell; outputs "
            + ("identical with telemetry attached"
               if overhead.get("digest_identical")
               else "PERTURBED by telemetry (bug!)"))
    lines.append(f"digest   : {report['digest']}")
    return "\n".join(lines)
