"""``repro.par`` — the parallel experiment engine.

The paper's thesis is that an MVEE can *exploit* parallel hardware
instead of serializing it; this package applies the same discipline to
the reproduction's own experiment sweeps.  Sweep cells (fault-matrix
cells, race-sweep rows, Figure 5 grid cells, table rows, benchmark
matrix entries) run in one of two named execution environments
(:data:`ENVIRONMENT_NAMES`): serially in the calling thread, or on a
persistent pool of forked worker processes — with:

* deterministic per-cell seed derivation
  (:func:`repro.par.seeds.derive_cell_seed`),
* pickle-safe task/result envelopes (:class:`CellTask`,
  :class:`CellResult`),
* worker crash isolation and health-checked respawn (a dead worker
  fails its cell, not the sweep; the pool returns to target size),
* first-in first-out dispatch: an idle worker gets the oldest cell not
  yet dispatched,
* shared-memory transport for large results
  (:mod:`repro.par.transport`),
* aggregation ordered by task position, independent of completion
  order, dispatch order and environment,
* one dispatch loop (:class:`repro.par.runners.ProcessRunner`) shared
  by batch sweeps and the serve daemon's :class:`CellExecutor`.

``jobs=1`` (the default everywhere) bypasses parallelism entirely and
reproduces the historical serial behaviour; the differential suites
under ``tests/par/`` pin the process pool's output bit-equal to it.
``repro bench`` (:mod:`repro.par.bench`) measures the resulting
speedup and pool amortisation and writes ``BENCH_par.json``.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro.par.engine import (
    ENVIRONMENT_NAMES,
    CellExecutor,
    CellResult,
    CellTask,
    ParallelCellError,
    merge_cell_traces,
    raise_failures,
    run_cells,
)
from repro.par.pool import WorkerPool, shared_pool, shutdown_shared_pools
from repro.par.seeds import derive_cell_seed

__all__ = [
    "CellTask",
    "CellResult",
    "CellExecutor",
    "ParallelCellError",
    "run_cells",
    "raise_failures",
    "merge_cell_traces",
    "derive_cell_seed",
    "ENVIRONMENT_NAMES",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pools",
]
