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
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.experiments.runner import reset_caches
from repro.par.bench import bench_tasks, build_matrix, canonical_cells
from repro.par.cells import CellTask
from repro.par.engine import run_cells
from repro.par.pool import WorkerPool
from repro.par.runners.process import ProcessRunner


# Module-level so fork workers can pickle them by reference.
def _square(x):
    return x * x


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_then_square(seconds, x):
    time.sleep(seconds)
    return x * x


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

    def test_workers_die_with_their_parent(self):
        """A parent that exits without ``shutdown`` leaves no worker
        behind: each worker holds only its own end of its pipe, so the
        parent's death reads as EOF."""
        src = Path(__file__).resolve().parents[2] / "src"
        # Read one line, not to EOF: the workers inherit the stdout pipe.
        with subprocess.Popen(
                [sys.executable, "-c",
                 "import os\n"
                 "from repro.par.pool import WorkerPool\n"
                 "pool = WorkerPool(2)\n"
                 "print(pool.worker(0).pid, pool.worker(1).pid, "
                 "flush=True)\n"
                 "os._exit(0)\n"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(src))) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert proc.wait(timeout=60) == 0
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids)), pids
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (an unreaped zombie has
    already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
