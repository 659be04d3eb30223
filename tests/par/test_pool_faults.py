"""Fault tolerance of the persistent worker pool.

The warm-pool upgrade must not weaken the first-generation engine's
crash-isolation contract: a worker that dies mid-cell (SIGKILL, OOM,
``os._exit``) fails exactly that cell, the pool respawns the slot back
to target size, and a follow-up sweep on the *injured* pool is
digest-identical to a fresh run.  A wedged-but-alive worker is the new
failure mode persistence introduces; the stall budget converts it into
one failed cell plus a respawn instead of a hung sweep.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.experiments.runner import reset_caches
from repro.par.bench import bench_tasks, build_matrix, canonical_cells
from repro.par.cells import CellTask
from repro.par.engine import run_cells
from repro.par.pool import WorkerPool
from repro.par.runners.process import ProcessRunner
from repro.par.transport import recv_result


# Module-level so fork workers can pickle them by reference.
def _square(x):
    return x * x


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_then_square(seconds, x):
    time.sleep(seconds)
    return x * x


def _noop():
    pass


def _sleep_half_a_second():
    time.sleep(0.5)


def _announce_pid_and_hang(pid_file):
    with open(pid_file, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(600)


def _task(index, fn, **kwargs):
    return CellTask(sweep_id="pool-faults", index=index, fn=fn,
                    kwargs=kwargs)


def run_on(pool, tasks, stall_timeout_s=None):
    # The runner never owns the pool: it stays warm for the next sweep.
    return ProcessRunner(pool, stall_timeout_s=stall_timeout_s).run(tasks)


class TestWorkerDeath:
    def test_sigkill_fails_only_its_cell_and_pool_respawns(self):
        pool = WorkerPool(2)
        try:
            # Warm the pool with a clean sweep first.
            warm = run_on(pool, [_task(i, _square, x=i)
                                 for i in range(4)])
            assert [r.value for r in warm] == [0, 1, 4, 9]
            assert pool.stats()["spawned"] == 2

            tasks = [_task(0, _square, x=3),
                     _task(1, _kill_self),
                     _task(2, _square, x=5),
                     _task(3, _square, x=7)]
            results = run_on(pool, tasks)
            assert [r.ok for r in results] == [True, False, True, True]
            assert [r.value for r in results if r.ok] == [9, 25, 49]
            assert "worker died before reporting" in results[1].error
            # SIGKILL surfaces as a negative exit code on POSIX.
            assert "-9" in results[1].error

            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["alive"] == stats["size"] == 2
        finally:
            pool.shutdown()

    def test_external_sigkill_mid_cell(self, tmp_path):
        """Kill a worker from *outside* while its cell runs — the
        sentinel watch, not the cell's own exit path, must catch it."""
        pid_file = tmp_path / "victim.pid"
        pool = WorkerPool(2)
        sniper_error = []

        def sniper():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if pid_file.exists() and pid_file.read_text():
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)
                    return
                time.sleep(0.02)
            sniper_error.append("victim never announced its pid")

        thread = threading.Thread(target=sniper)
        thread.start()
        try:
            tasks = [_task(0, _announce_pid_and_hang,
                           pid_file=str(pid_file)),
                     _task(1, _square, x=6)]
            results = run_on(pool, tasks)
            thread.join(timeout=30.0)
            assert not sniper_error
            assert not results[0].ok
            assert "worker died before reporting" in results[0].error
            assert results[1].ok and results[1].value == 36
            assert pool.stats()["alive"] == 2
        finally:
            pool.shutdown()

    def test_followup_sweep_on_injured_pool_is_digest_identical(self):
        pool = WorkerPool(2)
        try:
            crashed = run_on(pool, [_task(0, _kill_self),
                                    _task(1, _square, x=2)])
            assert not crashed[0].ok and crashed[1].ok
            assert pool.stats()["respawns"] >= 1

            matrix = build_matrix(quick=True, seed=5)
            reset_caches()
            fresh = canonical_cells(
                run_cells(bench_tasks(matrix), jobs=1))
            reset_caches()
            injured = canonical_cells(
                run_on(pool, bench_tasks(build_matrix(quick=True,
                                                      seed=5))))
            assert injured == fresh
        finally:
            pool.shutdown()


class TestStallDetection:
    def test_stalled_worker_is_killed_and_respawned(self):
        pool = WorkerPool(2)
        try:
            tasks = [_task(0, _sleep_then_square, seconds=30, x=1),
                     _task(1, _square, x=4),
                     _task(2, _square, x=5)]
            start = time.monotonic()
            results = run_on(pool, tasks, stall_timeout_s=1.0)
            elapsed = time.monotonic() - start
            assert elapsed < 25, "stall budget did not fire"
            assert not results[0].ok
            assert ("worker stalled: no result within 1s; "
                    "killed and respawned") in results[0].error
            assert [r.value for r in results[1:]] == [16, 25]
            stats = pool.stats()
            assert stats["stall_kills"] == 1
            assert stats["alive"] == 2
        finally:
            pool.shutdown()

    def test_slow_but_within_budget_is_not_killed(self):
        pool = WorkerPool(1)
        try:
            results = run_on(pool, [_task(0, _sleep_then_square,
                                          seconds=0.2, x=3)],
                             stall_timeout_s=10.0)
            assert results[0].ok and results[0].value == 9
            assert pool.stats()["stall_kills"] == 0
        finally:
            pool.shutdown()


class TestPoolLifecycle:
    def test_reuse_across_sweeps_amortises_forks(self):
        pool = WorkerPool(2)
        try:
            for sweep in range(3):
                results = run_on(pool, [_task(i, _square, x=i)
                                        for i in range(6)])
                assert [r.value for r in results] == \
                    [i * i for i in range(6)]
            stats = pool.stats()
            assert stats["spawned"] == 2      # forked once, not per sweep
            assert stats["batches"] == 3
            assert stats["tasks"] == 18
        finally:
            pool.shutdown()

    def test_call_all_skips_a_worker_busy_with_cell_zero(self):
        """Tag 0 (cell 0, ticket 0) is busy too: the control plane must
        not talk to that worker mid-cell, or the call would swallow the
        cell's result as its acknowledgement."""
        pool = WorkerPool(1)
        try:
            worker = pool.dispatch(0, _task(0, _sleep_then_square,
                                            seconds=0.3, x=6), None)
            assert worker.busy == 0
            assert pool.call_all(_noop, timeout_s=5.0) == 0
            result = recv_result(worker.conn.recv())
            assert result.ok and result.value == 36
        finally:
            pool.shutdown()

    def test_call_all_timeout_respawns_the_late_worker(self):
        """A control call that outlives its timeout must not leave its
        late acknowledgement in the pipe for the next batch to read as
        a cell result."""
        pool = WorkerPool(1)
        try:
            pool.worker(0)
            assert pool.call_all(_sleep_half_a_second, timeout_s=0.1) == 0
            results = run_on(pool, [_task(i, _square, x=i)
                                    for i in range(2)])
            assert [r.value for r in results] == [0, 1]
            assert pool.stats()["respawns"] == 1
        finally:
            pool.shutdown()

    def test_shutdown_pool_refuses_dispatch(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()  # idempotent
        try:
            pool.worker(0)
        except RuntimeError as exc:
            assert "shut down" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected RuntimeError")
