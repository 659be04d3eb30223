"""Process runner: the one dispatch loop over a persistent worker pool.

Every cell that leaves the calling process goes through
:meth:`ProcessRunner.dispatch_loop`.  Two callers feed it, with the
same discipline — an idle slot gets exactly one cell, the oldest not
yet dispatched:

* :meth:`ProcessRunner.run` — a batch (``run_cells``): slots are fed
  the next undispatched task position, in task order, and results land
  in a position-slotted :class:`~repro.par.transport.ListBuffer`;
* :class:`~repro.par.engine.CellExecutor` — a daemon's ticket queue: its
  dispatch thread feeds slots from the pending deque, delivers results
  by ticket, and wakes the loop through a pipe when a cell arrives.

Workers are persistent (:class:`~repro.par.pool.WorkerPool`), so
consecutive batches amortise fork + import cost, and every result
crosses its worker's pipe as one pickle (:mod:`repro.par.transport`).
A runner never owns its pool: whoever built the pool shuts it down.

The loop waits on worker pipes *and* process sentinels, so a worker
that dies without reporting (SIGKILL, ``os._exit``, OOM) fails only its
cell and the pool respawns the slot back to target size.  An optional
stall budget converts a wedged worker (alive but silent) into a failed
cell plus a respawn instead of a hung sweep.  A cell whose dispatch
fails even after its worker was replaced fails with a diagnostic
result, and the loop keeps serving the rest.
"""

from __future__ import annotations

import os
import time
from multiprocessing import connection

from repro.par import transport
from repro.par.cells import CellResult, CellTask
from repro.par.pool import PoolWorker, WorkerPool
from repro.par.transport import ListBuffer

#: Floor for the connection.wait timeout while a stall budget is armed,
#: so a budget that just expired still polls promptly without spinning.
_MIN_WAIT_S = 0.05

#: Byte on a wake pipe that stops :meth:`ProcessRunner.dispatch_loop`
#: (any other byte just wakes it).  A closed write end cannot signal the
#: stop: forked workers inherit a copy of it.
STOP = b"q"


class ProcessRunner:
    """Run cells on a (usually shared) pool of persistent workers."""

    def __init__(self, pool: WorkerPool,
                 stall_timeout_s: float | None = None):
        self.pool = pool
        self.stall_timeout_s = stall_timeout_s

    def run(self, tasks: list[CellTask],
            trace_dir: str | None = None) -> list[CellResult]:
        """Execute every task; results come back in task-list order,
        whatever order the cells complete in."""
        tasks = list(tasks)
        buffer = ListBuffer(len(tasks))
        undispatched = iter(enumerate(tasks))
        with self.pool.lock:
            self.pool.batches += 1
            self.dispatch_loop(lambda slot: next(undispatched, None),
                               buffer.put, trace_dir)
        return buffer.collect()

    # -- the dispatch loop -------------------------------------------------

    def dispatch_loop(self, feed, deliver, trace_dir: str | None,
                      wake_fd: int | None = None) -> dict:
        """Keep every slot busy with cells from ``feed``.

        ``feed(slot)`` returns the next ``(key, task)`` for an idle slot,
        or ``None`` when it has nothing; ``deliver(key, result)``
        receives each fed cell's outcome exactly once.  Without
        ``wake_fd`` the loop returns when ``feed`` is dry and nothing is
        in flight.  With it, the loop also waits on that pipe: a byte
        re-feeds idle slots, and :data:`STOP` stops the loop.  Returns
        the cells still in flight when it stopped,
        ``{slot: (key, task, worker)}``, for the caller to settle.
        """
        in_flight: dict[int, tuple[object, CellTask, PoolWorker]] = {}
        idle = list(range(self.pool.size))
        while True:
            idle = [slot for slot in idle
                    if not self._start(slot, feed, deliver, trace_dir,
                                       in_flight)]
            if not in_flight and wake_fd is None:
                return in_flight
            waitables = [waitable for _, _, worker in in_flight.values()
                         for waitable in (worker.conn, worker.proc.sentinel)]
            if wake_fd is not None:
                waitables.append(wake_fd)
            ready = set(connection.wait(
                waitables, timeout=self._stall_budget(in_flight)) or ())
            if wake_fd in ready and STOP in os.read(wake_fd, 4096):
                return in_flight
            now = time.monotonic()
            for slot, (key, task, worker) in list(in_flight.items()):
                if worker.conn in ready or worker.proc.sentinel in ready:
                    result = self._harvest(task, worker, slot)
                elif self._stalled(worker, now):
                    result = self._kill_stalled(task, worker, slot)
                else:
                    continue
                del in_flight[slot]
                idle.append(slot)
                deliver(key, result)

    def _start(self, slot: int, feed, deliver, trace_dir: str | None,
               in_flight: dict) -> bool:
        """Put slot ``slot``'s next cell in flight; False once ``feed``
        has none for it."""
        while True:
            item = feed(slot)
            if item is None:
                return False
            key, task = item
            try:
                in_flight[slot] = (key, task,
                                   self._send(slot, key, task, trace_dir))
                return True
            except OSError as exc:
                deliver(key, CellResult(
                    index=task.index, ok=False,
                    error=(f"cannot dispatch cell {task.index}: worker "
                           f"pipe failed twice ({exc})")))

    def _send(self, slot: int, key, task: CellTask,
              trace_dir: str | None) -> PoolWorker:
        """Dispatch to the slot's worker.  A worker that died between
        health check and send is replaced and the send retried once; a
        second failure raises."""
        try:
            return self.pool.dispatch(slot, task, trace_dir, tag=key)
        except OSError:
            self.pool.respawn(slot)
            return self.pool.dispatch(slot, task, trace_dir, tag=key)

    # -- harvest -----------------------------------------------------------

    def _harvest(self, task: CellTask, worker: PoolWorker,
                 slot: int) -> CellResult:
        """Collect one result (or synthesise a death notice)."""
        result = None
        if worker.conn.poll():
            try:
                result = transport.recv_result(worker.conn.recv_bytes())
            except (EOFError, OSError):
                result = None
        if result is not None:
            worker.busy = None
            return result
        # Sentinel fired with nothing in the pipe: the worker died
        # mid-cell.
        worker.proc.join(timeout=5.0)
        result = CellResult(
            index=task.index, ok=False,
            error=(f"worker died before reporting "
                   f"(exit code {worker.proc.exitcode})"),
            worker_pid=worker.pid)
        self.pool.respawn(slot)
        return result

    # -- stalls ------------------------------------------------------------

    def _stalled(self, worker: PoolWorker, now: float) -> bool:
        return (self.stall_timeout_s is not None
                and now - worker.dispatched_at > self.stall_timeout_s)

    def _kill_stalled(self, task: CellTask, worker: PoolWorker,
                      slot: int) -> CellResult:
        self.pool.kill(slot, reason="stalled")
        self.pool.respawn(slot)
        return CellResult(
            index=task.index, ok=False,
            error=(f"worker stalled: no result within "
                   f"{self.stall_timeout_s:g}s; killed and respawned"),
            worker_pid=worker.pid)

    def _stall_budget(self, in_flight: dict) -> float | None:
        """connection.wait timeout: time until the first stall fires."""
        if self.stall_timeout_s is None or not in_flight:
            return None
        now = time.monotonic()
        deadline = min(worker.dispatched_at + self.stall_timeout_s
                       for _, _, worker in in_flight.values())
        return max(deadline - now, _MIN_WAIT_S)

    def stats(self) -> dict:
        """Plain-data diagnostics: the pool's lifecycle counters."""
        return {"pool": self.pool.stats()}
