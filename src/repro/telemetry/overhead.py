"""Telemetry measures its own host cost (the overhead gate).

Taming Parallelism §6 accounts for the monitor's overhead on the
system it monitors; this module applies the same discipline to the
observability plane itself.  :func:`measure_cell_overhead` runs one
benchmark cell with telemetry off and on (span recording to a scratch
directory, host-metric observation per run) and reports the wall-clock
delta *and* whether the canonical outputs stayed identical — the
zero-perturbation contract, self-checked on every bench run.

The resulting ``observability_overhead`` block lands in the BENCH v2
report.  Its overhead figure is reported, not compared (host wall
jitters across runners); a moved digest fails the report.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import replace

__all__ = ["measure_cell_overhead", "OVERHEAD_REPEATS"]

#: Bare/traced pairs timed; the median per-pair delta is reported.
OVERHEAD_REPEATS = 5


def measure_cell_overhead(task, repeats: int = OVERHEAD_REPEATS) -> dict:
    """Run ``task`` bare and traced; return the overhead block.

    ``task`` is a :class:`~repro.par.cells.CellTask` (typically the
    bench matrix's first cell).  Both arms run after a shared warmup in
    this process, so imports are equally warm, and the memo caches are
    reset before every run, so each timed run really simulates the cell
    instead of timing a cache hit.  The traced arm carries a trace
    context, records spans to a scratch directory, and feeds a host
    latency histogram — the full per-cell telemetry path.

    The arms alternate (bare, traced, bare, traced, ...), so host drift
    over the measurement hits both arms of a pair alike;
    ``overhead_frac`` is the median of the per-pair relative deltas and
    the two walls are each arm's median.
    """
    from repro.par.cells import execute_cell
    from repro.run import reset_caches
    from repro.telemetry import hostmetrics
    from repro.telemetry.context import new_context
    from repro.telemetry.spans import read_spans, scoped

    reset_caches()
    warmup = execute_cell(task, None)

    def timed(cell_task):
        reset_caches()
        start = time.perf_counter()
        result = execute_cell(cell_task, None)
        return result, time.perf_counter() - start

    pairs = max(1, repeats)
    bare_walls: list[float] = []
    traced_walls: list[float] = []
    bare_result = traced_result = None
    scratch = tempfile.mkdtemp(prefix="repro-telemetry-overhead-")
    try:
        traced_task = replace(task, trace=new_context().to_dict())
        for _ in range(pairs):
            with scoped(None):
                bare_result, wall = timed(task)
            bare_walls.append(wall)
            with scoped(scratch, service="bench"):
                traced_result, wall = timed(traced_task)
            hostmetrics.observe_seconds("host.bench.cell_wall_s", wall)
            traced_walls.append(wall)
        spans_recorded = len(read_spans(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Bench cells return run records, whose equality covers simulated
    # quantities only (never the host wall time).
    runs = (warmup, bare_result, traced_result)
    digest_identical = (all(run is not None and run.ok for run in runs)
                        and warmup.value == bare_result.value
                        == traced_result.value)
    deltas = [(traced - bare) / bare
              for bare, traced in zip(bare_walls, traced_walls, strict=True)
              if bare]
    return {
        "repeats": pairs,
        "cell": {"sweep_id": task.sweep_id, "index": task.index,
                 "seed": task.seed},
        "bare_wall_s": statistics.median(bare_walls),
        "traced_wall_s": statistics.median(traced_walls),
        "overhead_frac": statistics.median(deltas) if deltas else None,
        "spans_recorded": spans_recorded,
        "digest_identical": digest_identical,
    }
