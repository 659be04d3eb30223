"""The process runner: where cells that leave the calling process run.

:class:`~repro.par.runners.process.ProcessRunner` feeds a persistent
:class:`~repro.par.pool.WorkerPool` of forked workers from one dispatch
loop, with crash isolation, stall harvesting, and one pickle per result
on the worker's pipe.  Batch sweeps (:func:`~repro.par.engine.run_cells`) and the
serve daemon's :class:`~repro.par.engine.CellExecutor` both drive it;
cells that stay in the calling process need no runner at all.
"""
