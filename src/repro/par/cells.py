"""Cell envelopes: the pickle-safe task/result currency of the engine.

Every sweep in the repo is a list of *cells*: pure functions of their
parameters (including an explicit seed) that return a picklable result.
The Figure 5 / Table 1 grid, the benchmark matrix, profiles, the race
sweep, the fault matrix, the deadlock sweep and serve batch sessions
all run one cell, :func:`repro.run.run_spec_cell`; only Table 2
(native-only rows) keeps its own.  This module
owns the envelopes those cells travel in and the one true way to
execute a cell in the current process; everything above it (runners,
pools, environments) moves the envelopes around without ever looking
inside.

* :class:`CellTask` carries a module-level callable (pickled by
  reference) plus plain-data kwargs and the cell's derived seed.
* :class:`CellResult` carries plain data (value or error string) plus
  host-side diagnostics that never enter any canonical digest.
* :func:`execute_cell` runs one cell inline with per-cell error capture
  and optional obs-trace emission — the single code path shared by the
  inline runner, the executor's inline mode, and pool worker processes,
  which is what makes both environments (:data:`ENVIRONMENT_NAMES`)
  produce the same failure shape.
* With ``with_obs`` and a trace directory, a cell writes its hub's
  trace with :meth:`repro.obs.tracer.Tracer.write_chrome`, the format
  ``repro run --trace-out`` writes;
  :func:`repro.telemetry.spans.merge_host_trace` folds a batch's files
  into one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.telemetry.spans import child_span


__all__ = [
    "ENVIRONMENT_NAMES",
    "CellTask",
    "CellResult",
    "ParallelCellError",
    "execute_cell",
    "raise_failures",
]


#: Valid ``env`` names (the ``--env`` choices): ``inline`` runs cells
#: serially in the calling thread — the determinism oracle; ``process``
#: runs them on a persistent forked worker pool.  Both produce the same
#: canonical digest (``tests/par/test_env_equivalence.py``).
ENVIRONMENT_NAMES = ("inline", "process")


def check_environment(env: str | None) -> None:
    """Reject an ``env`` that is not ``None`` or a known name."""
    if env is not None and env not in ENVIRONMENT_NAMES:
        raise ValueError(
            f"unknown execution environment {env!r}; choose from "
            f"{', '.join(ENVIRONMENT_NAMES)}")


@dataclass
class CellTask:
    """One sweep cell: a picklable (function, kwargs) envelope.

    ``fn`` must be an importable module-level callable (pickled by
    reference); ``kwargs`` must contain only picklable values.  ``seed``
    records the cell's derived seed for provenance — the sweep builder
    is responsible for threading it into ``kwargs`` when the cell
    function takes one.
    """

    sweep_id: str
    index: int
    fn: object
    kwargs: dict = field(default_factory=dict)
    seed: int | None = None
    #: Inject a fresh ObsHub as ``kwargs["obs"]`` and capture its trace.
    with_obs: bool = False
    #: Host trace-context wire dict (``repro.telemetry``); rides the
    #: pickle into whatever process runs the cell so a worker's host
    #: spans join the submitter's trace.  ``None`` (the default) keeps
    #: pre-telemetry task envelopes byte-identical.
    trace: dict | None = None


@dataclass
class CellResult:
    """Outcome envelope for one cell, in task-list order."""

    index: int
    ok: bool
    value: object = None
    error: str | None = None
    #: Host wall-clock spent inside the cell function (diagnostics only;
    #: never part of structural output).
    duration_s: float = 0.0
    #: Pid of the worker that ran the cell (parent pid when inline).
    worker_pid: int = 0
    #: Chrome trace written by the cell's ObsHub, when ``with_obs``.
    trace_path: str | None = None


class ParallelCellError(RuntimeError):
    """One or more cells of a sweep failed."""

    def __init__(self, failures: list[CellResult]):
        self.failures = failures
        lines = [f"{len(failures)} sweep cell(s) failed:"]
        lines += [f"  cell {r.index}: {r.error}" for r in failures]
        super().__init__("\n".join(lines))


def raise_failures(results: list[CellResult]) -> list[CellResult]:
    """Raise :class:`ParallelCellError` if any cell failed; else pass
    results through (a convenience for sweeps that want fail-fast
    semantics on aggregation)."""
    failures = [r for r in results if not r.ok]
    if failures:
        raise ParallelCellError(failures)
    return results


def execute_cell(task: CellTask, trace_dir: str | None) -> CellResult:
    """Run one cell in the current process/thread (any environment).

    A task carrying a trace context runs under a ``cell`` host span
    when this process records telemetry (pool workers inherit the
    daemon's directory through fork and the environment)."""
    kwargs = dict(task.kwargs)
    hub = None
    trace_path = None
    if task.with_obs:
        from repro.obs import ObsHub

        hub = ObsHub()
        kwargs["obs"] = hub
    start = time.perf_counter()
    try:
        with child_span("cell", task.trace, service="worker",
                        track=f"worker {os.getpid()}",
                        sweep=task.sweep_id, index=task.index):
            value = task.fn(**kwargs)
    except Exception as exc:
        return CellResult(index=task.index, ok=False,
                          error=f"{type(exc).__name__}: {exc}",
                          duration_s=time.perf_counter() - start,
                          worker_pid=os.getpid())
    duration = time.perf_counter() - start
    if hub is not None and trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir,
                                  f"cell-{task.index:04d}.trace.json")
        hub.tracer.write_chrome(trace_path)
    return CellResult(index=task.index, ok=True, value=value,
                      duration_s=duration, worker_pid=os.getpid(),
                      trace_path=trace_path)
