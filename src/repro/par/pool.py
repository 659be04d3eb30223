"""Persistent warm worker pools: fork once, sweep many times.

The first-generation engine forked a fresh process *per cell* and a
fresh pool *per sweep*: on the 225-cell bench matrix that is 225 forks
plus 225 import-warm-up penalties per run, and the serve daemon paid
the same tax for every batch session.  :class:`WorkerPool` replaces
that with a small set of long-lived worker processes:

* **lazy spawn** — workers fork on first dispatch, inheriting the
  parent's warm imports (fork start method where available);
* **reuse across sweeps** — :func:`shared_pool` hands every
  ``run_cells`` caller in the process the same pool for a given size,
  so consecutive sweeps (and consecutive ``repro serve`` batches) share
  warm workers; per-pool counters record the amortisation for the
  BENCH report;
* **health-checked respawn** — a worker that dies (SIGKILL, OOM,
  ``os._exit``) fails only the cell it was running; the pool detects
  the death via the process sentinel, replaces the worker, and the next
  dispatch proceeds on a fresh process;
* **stall harvesting** — a dispatch loop may declare a busy worker
  wedged (no result within its stall budget) and have the pool kill and
  replace it, converting a hung sweep into one failed cell.

Determinism is unaffected by any of this: cells are pure functions of
their :class:`~repro.par.cells.CellTask` (seeds derive from the cell
index), results are slotted by task position, and a respawned worker
re-executes nothing — the failed cell stays failed, exactly as a
crashed one-shot worker did.  ``tests/par/test_pool_faults.py`` pins
kill/respawn/digest-identity; the differential suite pins pool output
against inline execution.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time

from repro.par import transport
from repro.par.cells import CellResult, CellTask, execute_cell

__all__ = ["PoolWorker", "WorkerPool", "shared_pool",
           "shutdown_shared_pools"]

#: How long ``shutdown`` waits for a worker to honour "stop" before
#: escalating to terminate().
_STOP_GRACE_S = 5.0


def _mp_context():
    """Fork when the platform offers it (cheap, inherits warm imports);
    otherwise the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _pool_worker_main(conn) -> None:
    """Worker-process entry: serve cells until told to stop.

    The loop shape is the whole crash-isolation story: one recv, one
    cell, one send.  A cell that raises becomes a failed envelope; a
    value that will not ship becomes a failed envelope (inside
    :func:`~repro.par.transport.send_result`); only process death can
    end the loop without a report, and the parent's sentinel watch
    turns that into a failed cell too.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        if op == "call":
            # Control plane: run a module-level callable (e.g. a cache
            # reset between bench phases) and acknowledge.
            try:
                message[1]()
                conn.send(("ctl", True, None))
            except Exception as exc:
                conn.send(("ctl", False, f"{type(exc).__name__}: {exc}"))
            continue
        task, trace_dir = message[1], message[2]
        try:
            result = execute_cell(task, trace_dir)
        except BaseException as exc:  # never let a worker die silently
            result = CellResult(index=task.index, ok=False,
                                error=f"{type(exc).__name__}: {exc}",
                                worker_pid=os.getpid())
        try:
            transport.send_result(conn, result)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class PoolWorker:
    """One persistent worker process and its parent-side bookkeeping."""

    __slots__ = ("index", "proc", "conn", "busy", "dispatched_at")

    def __init__(self, index: int, proc, conn):
        self.index = index
        self.proc = proc
        self.conn = conn
        #: Opaque tag set by the dispatch loop while a cell is in
        #: flight (task position or executor ticket); None when idle.
        self.busy = None
        self.dispatched_at = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid or 0

    def alive(self) -> bool:
        return self.proc.is_alive()


class WorkerPool:
    """``size`` persistent workers with respawn and stats."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self._ctx = _mp_context()
        self._slots: list[PoolWorker | None] = [None] * size
        self._closed = False
        #: Serialises whole batches / dispatch loops on this pool (the
        #: shared pool may be reached from several sweeps in one
        #: process; their batches run back to back, not interleaved).
        self.lock = threading.RLock()
        # -- amortisation / resilience counters (host diagnostics) ----
        self.spawned = 0
        self.respawns = 0
        self.stall_kills = 0
        self.tasks_dispatched = 0
        self.batches = 0

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, index: int) -> PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_pool_worker_main,
                                 args=(child_conn,),
                                 name=f"repro-pool-{index}",
                                 daemon=True)
        proc.start()
        child_conn.close()
        self.spawned += 1
        worker = PoolWorker(index, proc, parent_conn)
        self._slots[index] = worker
        return worker

    def worker(self, index: int) -> PoolWorker:
        """The live worker for a slot, spawning/respawning as needed."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        worker = self._slots[index]
        if worker is None:
            return self._spawn(index)
        if not worker.alive():
            self._discard(worker)
            self.respawns += 1
            return self._spawn(index)
        return worker

    def _discard(self, worker: PoolWorker) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.proc.join(timeout=_STOP_GRACE_S)
        self._slots[worker.index] = None

    def respawn(self, index: int) -> PoolWorker:
        """Replace a dead/condemned worker with a fresh process."""
        worker = self._slots[index]
        if worker is not None:
            if worker.alive():
                worker.proc.terminate()
            self._discard(worker)
        self.respawns += 1
        return self._spawn(index)

    def kill(self, index: int, reason: str = "stalled") -> None:
        """Forcibly end a wedged worker (the respawn happens on next
        :meth:`worker`/:meth:`respawn` call)."""
        worker = self._slots[index]
        if worker is None:
            return
        if reason == "stalled":
            self.stall_kills += 1
        if worker.alive():
            worker.proc.kill()
        worker.proc.join(timeout=_STOP_GRACE_S)

    def _stop_worker(self, worker: PoolWorker) -> None:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        worker.proc.join(timeout=_STOP_GRACE_S)
        if worker.proc.is_alive():  # pragma: no cover - stop suffices
            worker.proc.terminate()
            worker.proc.join(timeout=_STOP_GRACE_S)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Stop every worker (idempotent)."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._slots:
                if worker is not None:
                    self._stop_worker(worker)
            self._slots = [None] * self.size

    @property
    def closed(self) -> bool:
        return self._closed

    # -- dispatch helpers --------------------------------------------------

    def dispatch(self, index: int, task: CellTask,
                 trace_dir: str | None, tag=None) -> PoolWorker:
        """Send one cell to slot ``index``'s worker and mark it busy."""
        worker = self.worker(index)
        worker.busy = task.index if tag is None else tag
        worker.dispatched_at = time.monotonic()
        worker.conn.send(("task", task, trace_dir))
        self.tasks_dispatched += 1
        return worker

    def call_all(self, fn, timeout_s: float = 30.0) -> int:
        """Run a module-level callable in every *live, idle* worker
        (control plane — e.g. resetting memo caches between bench
        phases).  Returns the number of workers reached.

        A worker that does not acknowledge within ``timeout_s`` is
        respawned: its late acknowledgement would otherwise sit in the
        pipe and be read as the next cell's result."""
        with self.lock:
            reached = 0
            for worker in list(self._slots):
                if (worker is None or not worker.alive()
                        or worker.busy is not None):
                    continue
                worker.conn.send(("call", fn))
                if worker.conn.poll(timeout_s):
                    worker.conn.recv()
                    reached += 1
                else:
                    self.respawn(worker.index)
            return reached

    def live_workers(self) -> list[PoolWorker]:
        return [w for w in self._slots if w is not None and w.alive()]

    def stats(self) -> dict:
        """Plain-data pool diagnostics for reports and ``serve status``.

        The pool's own counters are the single source of truth for
        host observability: every read also publishes them into the
        process-wide host metrics registry, so ``serve status`` and the
        daemon's ``metrics`` exposition can never disagree.
        """
        from repro.telemetry import hostmetrics

        stats = {
            "size": self.size,
            "alive": len(self.live_workers()),
            "spawned": self.spawned,
            "respawns": self.respawns,
            "stall_kills": self.stall_kills,
            "tasks": self.tasks_dispatched,
            "batches": self.batches,
        }
        hostmetrics.publish_pool_stats(stats)
        return stats


# -- the process-wide shared pools ----------------------------------------

_shared_pools: dict[int, WorkerPool] = {}
_shared_lock = threading.Lock()


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide persistent pool for ``jobs`` workers.

    Every sweep that asks for the same worker count gets the same pool,
    which is what lets consecutive sweeps amortise fork + import cost;
    the pool is created on first use and torn down at interpreter exit.
    """
    with _shared_lock:
        pool = _shared_pools.get(jobs)
        if pool is None or pool.closed:
            pool = WorkerPool(jobs)
            _shared_pools[jobs] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Stop every shared pool (atexit hook; also used by tests)."""
    with _shared_lock:
        for pool in _shared_pools.values():
            pool.shutdown()
        _shared_pools.clear()


atexit.register(shutdown_shared_pools)
