"""``repro.par`` — the parallel experiment engine.

The paper's thesis is that an MVEE can *exploit* parallel hardware
instead of serializing it; this package applies the same discipline to
the reproduction's own experiment sweeps.  Sweep cells (fault-matrix
cells, race-sweep rows, Figure 5 grid cells, table rows, benchmark
matrix entries) run in one of two named execution environments
(:data:`~repro.par.cells.ENVIRONMENT_NAMES`): serially in the calling
thread, or on a persistent pool of forked worker processes — with:

* deterministic per-cell seed derivation
  (:func:`repro.par.seeds.derive_cell_seed`),
* pickle-safe task/result envelopes (:class:`~repro.par.cells.CellTask`,
  :class:`~repro.par.cells.CellResult`),
* worker crash isolation and health-checked respawn (a dead worker
  fails its cell, not the sweep; the pool returns to target size), and
  workers that exit when their parent dies,
* first-in first-out dispatch: an idle worker gets the oldest cell not
  yet dispatched,
* one pickle per result on the worker's pipe
  (:mod:`repro.par.transport`),
* per-cell obs traces (``with_obs`` tasks, a ``trace_dir``) written as
  Chrome files and merged by
  :func:`repro.telemetry.spans.merge_host_trace`,
* aggregation ordered by task position, independent of completion
  order, dispatch order and environment,
* one dispatch loop (:class:`repro.par.runners.process.ProcessRunner`) shared
  by batch sweeps and the serve daemon's
  :class:`~repro.par.engine.CellExecutor`.

``jobs=1`` (the default everywhere) bypasses parallelism entirely and
reproduces the historical serial behaviour; the differential suites
under ``tests/par/`` pin the process pool's output bit-equal to it.
``repro bench`` (:mod:`repro.par.bench`) measures the resulting
speedup and pool amortisation and writes ``BENCH_par.json``.  See
``docs/PERFORMANCE.md``.
"""
