"""Telemetry measures its own host cost (the overhead gate).

Taming Parallelism §6 accounts for the monitor's overhead on the
system it monitors; this module applies the same discipline to the
observability plane itself.  :func:`measure_cell_overhead` runs one
benchmark cell with telemetry off and on (span recording to a scratch
directory, host-metric observation per run) and reports the wall-clock
delta *and* whether the canonical outputs stayed identical — the
zero-perturbation contract, self-checked on every bench run.

The resulting ``observability_overhead`` block lands in the BENCH v2
report and is compared warn-only by ``repro bench --compare`` (host
wall jitters across runners; a moved digest, by contrast, hard-fails).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace

__all__ = ["measure_cell_overhead", "OVERHEAD_REPEATS"]

#: Per-arm repetitions; the minimum wall is reported (noise floor).
OVERHEAD_REPEATS = 3


def measure_cell_overhead(task, repeats: int = OVERHEAD_REPEATS) -> dict:
    """Run ``task`` bare and traced; return the overhead block.

    ``task`` is a :class:`~repro.par.cells.CellTask` (typically the
    bench matrix's first cell).  Both arms run after a shared warmup in
    this process, so imports are equally warm, and the memo caches are
    reset before every run, so each timed run really simulates the cell
    instead of timing a cache hit.  The traced arm carries a trace
    context, records spans to a scratch directory, and feeds a host
    latency histogram — the full per-cell telemetry path.
    """
    from repro.par.cells import execute_cell
    from repro.run import reset_caches
    from repro.telemetry import hostmetrics
    from repro.telemetry.context import new_context
    from repro.telemetry.spans import read_spans, scoped

    reset_caches()
    warmup = execute_cell(task, None)

    bare_wall = None
    bare_result = None
    with scoped(None):
        for _ in range(max(1, repeats)):
            reset_caches()
            start = time.perf_counter()
            bare_result = execute_cell(task, None)
            wall = time.perf_counter() - start
            if bare_wall is None or wall < bare_wall:
                bare_wall = wall

    scratch = tempfile.mkdtemp(prefix="repro-telemetry-overhead-")
    traced_wall = None
    traced_result = None
    spans_recorded = 0
    try:
        ctx = new_context()
        traced_task = replace(task, trace=ctx.to_dict())
        with scoped(scratch, service="bench"):
            for _ in range(max(1, repeats)):
                reset_caches()
                start = time.perf_counter()
                traced_result = execute_cell(traced_task, None)
                wall = time.perf_counter() - start
                hostmetrics.observe_seconds("host.bench.cell_wall_s",
                                            wall)
                if traced_wall is None or wall < traced_wall:
                    traced_wall = wall
            spans_recorded = len(read_spans(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Bench cells return run records, whose equality covers simulated
    # quantities only (never the host wall time).
    runs = (warmup, bare_result, traced_result)
    digest_identical = (all(run is not None and run.ok for run in runs)
                        and warmup.value == bare_result.value
                        == traced_result.value)
    overhead = None
    if bare_wall and traced_wall is not None:
        overhead = (traced_wall - bare_wall) / bare_wall
    return {
        "repeats": max(1, repeats),
        "cell": {"sweep_id": task.sweep_id, "index": task.index,
                 "seed": task.seed},
        "bare_wall_s": bare_wall,
        "traced_wall_s": traced_wall,
        "overhead_frac": overhead,
        "spans_recorded": spans_recorded,
        "digest_identical": digest_identical,
    }
