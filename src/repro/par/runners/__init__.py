"""Runners: per-environment strategies for executing a batch of cells.

Each runner moves :class:`~repro.par.cells.CellTask` envelopes through
:func:`~repro.par.cells.execute_cell` and returns the results in
task-list order:

* :class:`InlineRunner` — the calling thread, one cell at a time (the
  historical serial path and the determinism oracle).
* :class:`ProcessRunner` — a persistent :class:`~repro.par.pool.WorkerPool`
  of forked workers fed by a work-stealing scheduler, with crash
  isolation, stall harvesting, and shared-memory result transport.  Its
  dispatch loop is the only one in the package: the serve daemon's
  :class:`~repro.par.engine.CellExecutor` drives it too.

Runners are built by :mod:`repro.par.environment`; sweeps never touch
them directly.
"""

from repro.par.runners.base import Runner
from repro.par.runners.inline import InlineRunner
from repro.par.runners.process import ProcessRunner

__all__ = ["Runner", "InlineRunner", "ProcessRunner"]
