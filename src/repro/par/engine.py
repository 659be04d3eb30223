"""The parallel experiment engine: run sweep cells inline or on a pool.

Every sweep in the repo — the fault matrix, the race sweep, the Figure 5
grid, table rows, the benchmark matrix — is a list of *cells*: pure
functions of their parameters (including an explicit seed) that return a
picklable result.  :func:`run_cells` executes such a list in one of
two execution environments, named in
:data:`~repro.par.cells.ENVIRONMENT_NAMES` —
serially in the calling thread (``inline``), or on a persistent pool of
forked processes (``process``) — with three guarantees that hold in
both:

* **determinism** — cell results are a function of the task list alone.
  Aggregated output is ordered by task position, never by completion
  order, and per-cell seeds come from
  :func:`repro.par.seeds.derive_cell_seed`, so worker count, dispatch
  order and environment choice cannot leak into results.
* **crash isolation** (process environment) — a worker that dies
  (``os._exit``, segfault, OOM kill) fails *its* cell with a diagnostic
  :class:`CellResult` and leaves every sibling cell untouched; the pool
  respawns the worker back to target size.  The inline path mirrors
  this by catching per-cell exceptions, so both environments agree on
  failure shape.
* **pickle-safe envelopes** — tasks carry a module-level callable plus
  plain-data kwargs; results carry plain data (value or error string).
  Anything unpicklable is converted to a failed cell, not a hung pool.

Observability composes: a task created with ``with_obs=True`` gets a
fresh :class:`repro.obs.ObsHub` injected as its ``obs`` kwarg, and the
cell writes the hub's Chrome trace into ``trace_dir`` next to its
siblings; :func:`repro.telemetry.spans.merge_host_trace` folds them
into one file, one pid block per cell in cell order (like every other
aggregate).

:class:`CellExecutor` is the ticket-based face of the same machinery
for daemons (``repro serve``): cells arrive one at a time from many
client connections and share one persistent pool, dispatched by the
same :class:`~repro.par.runners.process.ProcessRunner` loop that runs
batches.
"""

from __future__ import annotations

import os
import threading
from collections import deque

# Re-exported envelope API (the historical public surface of this
# module; sweeps and tests import these names from here).
from repro.par.cells import (
    ENVIRONMENT_NAMES,
    CellResult,
    CellTask,
    ParallelCellError,
    check_environment,
    execute_cell,
    raise_failures,
)
from repro.par.pool import WorkerPool, shared_pool
from repro.par.runners.process import STOP, ProcessRunner

__all__ = [
    "ENVIRONMENT_NAMES",
    "CellTask",
    "CellResult",
    "CellExecutor",
    "ParallelCellError",
    "run_cells",
    "run_specs",
    "raise_failures",
]


def run_cells(tasks, jobs: int = 1, trace_dir: str | None = None,
              env: str | None = None) -> list[CellResult]:
    """Run every task and return results **in task-list order**.

    ``jobs<=1``, a single task, or ``env="inline"`` runs the cells in
    the calling thread; anything else runs them on the process-wide
    :func:`shared_pool` of ``jobs`` workers.
    """
    tasks = list(tasks)
    check_environment(env)
    if jobs <= 1 or len(tasks) <= 1 or env == "inline":
        return [execute_cell(task, trace_dir) for task in tasks]
    return ProcessRunner(shared_pool(jobs)).run(tasks, trace_dir)


def run_specs(sweep_id: str, cells, jobs: int = 1,
              env: str | None = None) -> list:
    """Run :func:`repro.run.run_spec_cell` once per cell (its keyword
    dicts, each with a ``spec``) through :func:`run_cells`; values in
    cell order, independent of ``jobs`` and ``env``."""
    from repro.run import run_spec_cell

    tasks = [CellTask(sweep_id=sweep_id, index=index, fn=run_spec_cell,
                      kwargs=cell)
             for index, cell in enumerate(cells)]
    return [result.value
            for result in raise_failures(run_cells(tasks, jobs=jobs,
                                                   env=env))]


class CellExecutor:
    """A long-lived worker pool: submit cells over time, share the slots.

    :func:`run_cells` is a synchronous batch — fine for sweeps, useless
    for a daemon whose cells (serve sessions) arrive one at a time from
    many client connections.  The executor keeps the engine's guarantees
    (crash isolation, pickle-safe envelopes, explicit per-cell seeds —
    determinism never depends on completion order) while letting N
    independent submitters share at most ``jobs`` *persistent* workers:
    the pool forks once, when the executor is constructed, and serves
    every subsequent session warm, and a worker that dies is respawned
    without disturbing its siblings.

    The pool is private to the executor, which shuts it down, and is
    driven by a :class:`~repro.par.runners.process.ProcessRunner` on one
    dispatch thread, fed first-in first-out from the pending queue and
    woken through a pipe.
    ``jobs == 0`` (or ``env="inline"``) runs every cell inline in the
    submitting thread — no fork at all, used by tests and fork-less
    platforms; results are identical because cells are pure functions of
    their task.

    Single-consumer per ticket: :meth:`wait` (or a :meth:`poll` that
    finds the cell done) hands the result over exactly once.
    """

    def __init__(self, jobs: int = 2, env: str | None = None):
        check_environment(env)
        self.jobs = max(0, jobs)
        self.env = "inline" if self.jobs == 0 else env or "process"
        self._lock = threading.Lock()
        self._pending: deque = deque()
        self._done: dict[int, CellResult] = {}
        self._events: dict[int, threading.Event] = {}
        self._next_ticket = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self._runner: ProcessRunner | None = None
        if self.env == "process":
            # Private pool, owned by the executor's lifecycle.  It forks
            # before any other thread exists (the dispatch thread, a
            # daemon's handlers): a fork while another thread holds the
            # import lock wedges the child.  Respawns fork later.
            pool = WorkerPool(self.jobs)
            for slot in range(self.jobs):
                pool.worker(slot)
            self._runner = ProcessRunner(pool)
            self._wake_r, self._wake_w = os.pipe()
            # A full pipe already means "wake up": never block a submit.
            os.set_blocking(self._wake_w, False)
            self._thread = threading.Thread(
                target=self._dispatch, name="cell-executor", daemon=True)
            self._thread.start()

    # -- submit side -------------------------------------------------------

    def submit(self, task: CellTask) -> int:
        """Queue one cell; returns a ticket for :meth:`wait`/:meth:`poll`."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            ticket = self._next_ticket
            self._next_ticket += 1
            self._events[ticket] = threading.Event()
            self.submitted += 1
            if self._runner is not None:
                self._pending.append((ticket, task))
                self._wake()
                return ticket
            # Inline mode: run right here, same envelope semantics.
            self._done[ticket] = execute_cell(task, None)
            self.completed += 1
            self._events[ticket].set()
            return ticket

    def poll(self, ticket: int) -> CellResult | None:
        """The cell's result if it finished, else ``None`` (never blocks).
        A returned result is handed over: the ticket is retired."""
        with self._lock:
            result = self._done.pop(ticket, None)
            if result is not None:
                self._events.pop(ticket, None)
            return result

    def wait(self, ticket: int,
             timeout: float | None = None) -> CellResult | None:
        """Block until the cell finishes; ``None`` only on timeout."""
        event = self._events.get(ticket)
        if event is not None and not event.wait(timeout):
            return None
        return self.poll(ticket)

    def stats(self) -> dict:
        """Plain-data executor diagnostics for ``serve status`` and the
        host metrics: ticket counts, ``queued`` (cells accepted but not
        yet dispatched to a worker) and, on the process environment, the
        pool's own stats under ``pool``."""
        with self._lock:
            stats = {"jobs": self.jobs, "env": self.env,
                     "submitted": self.submitted,
                     "completed": self.completed,
                     "in_flight": self.submitted - self.completed,
                     "queued": len(self._pending)}
        if self._runner is not None:
            stats["pool"] = self._runner.pool.stats()
        return stats

    def shutdown(self) -> None:
        """Stop the pool: running workers are terminated, queued cells
        fail with a diagnostic result (nothing hangs)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._runner is not None:
            # Blocking, and outside the lock: the stop byte must land
            # even in a full pipe, which the loop drains.
            os.set_blocking(self._wake_w, True)
            os.write(self._wake_w, STOP)
            self._thread.join(timeout=30.0)
            os.close(self._wake_r)
            os.close(self._wake_w)
        self._fail_pending("executor shut down")

    def _fail_pending(self, message: str) -> None:
        with self._lock:
            pending = list(self._pending)
            self._pending.clear()
        for ticket, task in pending:
            self._deliver(ticket, CellResult(
                index=task.index, ok=False, error=message))

    # -- the dispatch thread -----------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except BlockingIOError:  # pipe full: a wake-up is already pending
            pass

    def _next_cell(self, slot: int):
        with self._lock:
            if self._closed or not self._pending:
                return None
            return self._pending.popleft()

    def _deliver(self, ticket: int, result: CellResult) -> None:
        with self._lock:
            self._done[ticket] = result
            self.completed += 1
            event = self._events.get(ticket)
        if event is not None:
            event.set()

    def _dispatch(self) -> None:
        survivors = self._runner.dispatch_loop(
            self._next_cell, self._deliver, None, wake_fd=self._wake_r)
        # Shutdown: kill the survivors, fail their cells — never hang.
        for ticket, task, worker in survivors.values():
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join(timeout=5.0)
            self._deliver(ticket, CellResult(
                index=task.index, ok=False,
                error="executor shut down", worker_pid=worker.pid))
        self._runner.pool.shutdown()
