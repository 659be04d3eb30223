"""CellExecutor tests: ticketed submit/poll/wait, crash isolation,
shutdown semantics, and jobs-invariant results (serve satellite: the
same session load is byte-identical under ``--jobs 1`` and ``--jobs 4``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import serve_load
from repro.par.engine import CellExecutor, CellTask, run_cells
from repro.par.pool import WorkerPool
from repro.run import run_spec_cell
from repro.serve.session import session_result


# Module-level so the fork workers can pickle them by reference.
def _square(x):
    return x * x


def _crash(message):
    raise RuntimeError(message)


def _hard_exit():
    os._exit(17)


def _sleep_forever():
    time.sleep(3600)


def _task(index, fn, **kwargs):
    return CellTask(sweep_id="exec-test", index=index, fn=fn,
                    kwargs=kwargs)


class TestInlineMode:
    def test_jobs_zero_runs_in_process(self):
        executor = CellExecutor(jobs=0)
        try:
            ticket = executor.submit(_task(0, _square, x=7))
            result = executor.poll(ticket)
            assert result.ok and result.value == 49
            assert result.worker_pid == os.getpid()
            assert executor.in_flight == 0
        finally:
            executor.shutdown()

    def test_poll_hands_a_result_over_exactly_once(self):
        executor = CellExecutor(jobs=0)
        try:
            ticket = executor.submit(_task(0, _square, x=3))
            assert executor.poll(ticket).value == 9
            assert executor.poll(ticket) is None
        finally:
            executor.shutdown()

    def test_inline_exceptions_become_failed_results(self):
        executor = CellExecutor(jobs=0)
        try:
            result = executor.poll(executor.submit(
                _task(4, _crash, message="boom")))
            assert not result.ok
            assert "boom" in result.error
            assert result.index == 4
        finally:
            executor.shutdown()


class TestEnvironmentNames:
    def test_unknown_env_is_rejected_alike_by_batch_and_executor(self):
        """One check serves both: a batch at ``jobs=1`` that never
        leaves the caller still refuses a name the executor refuses."""
        with pytest.raises(ValueError) as executor_error:
            CellExecutor(env="bogus")
        with pytest.raises(ValueError) as batch_error:
            run_cells([_task(0, _square, x=2)], jobs=1, env="bogus")
        assert str(batch_error.value) == str(executor_error.value)
        assert "'bogus'" in str(batch_error.value)


class TestForkPool:
    def test_pool_forks_at_construction(self):
        # Every worker forks before the dispatch thread starts, so no
        # fork can happen while a daemon handler thread holds the
        # import lock.
        executor = CellExecutor(jobs=2, env="process")
        try:
            assert executor.pool_stats()["alive"] == 2
        finally:
            executor.shutdown()

    def test_results_arrive_out_of_band(self):
        executor = CellExecutor(jobs=2)
        try:
            tickets = [executor.submit(_task(i, _square, x=i))
                       for i in range(6)]
            values = [executor.wait(t, timeout=60.0).value
                      for t in tickets]
            assert values == [i * i for i in range(6)]
            assert executor.completed == 6
        finally:
            executor.shutdown()

    def test_worker_crash_is_isolated(self):
        executor = CellExecutor(jobs=2)
        try:
            dead = executor.submit(_task(0, _hard_exit))
            alive = executor.submit(_task(1, _square, x=5))
            crashed = executor.wait(dead, timeout=60.0)
            assert not crashed.ok
            assert "exit code 17" in crashed.error
            assert executor.wait(alive, timeout=60.0).value == 25
        finally:
            executor.shutdown()

    def test_wait_timeout_returns_none_and_keeps_the_ticket(self):
        executor = CellExecutor(jobs=1)
        try:
            blocker = executor.submit(_task(0, _sleep_forever))
            queued = executor.submit(_task(1, _square, x=2))
            assert executor.wait(queued, timeout=0.1) is None
            assert executor.in_flight == 2
        finally:
            executor.shutdown()
        # Shutdown fails both without hanging; tickets still resolve.
        assert "shut down" in executor.poll(blocker).error
        assert "shut down" in executor.poll(queued).error

    def test_submit_after_shutdown_is_an_error(self):
        executor = CellExecutor(jobs=0)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(_task(0, _square, x=1))

    def test_shutdown_is_idempotent(self):
        executor = CellExecutor(jobs=2)
        executor.shutdown()
        executor.shutdown()

    def test_double_dispatch_failure_fails_the_cell_and_keeps_serving(
            self, monkeypatch):
        def broken_dispatch(self, *args, **kwargs):
            raise BrokenPipeError("pipe gone")

        monkeypatch.setattr(WorkerPool, "dispatch", broken_dispatch)
        executor = CellExecutor(jobs=1)
        try:
            failed = executor.wait(
                executor.submit(_task(0, _square, x=3)), timeout=30.0)
            assert failed is not None and not failed.ok
            assert "cannot dispatch cell 0" in failed.error
            assert "pipe gone" in failed.error
            assert executor.in_flight == 0
            # The dispatch thread survived: once dispatch works again,
            # the same executor serves the next cell.
            monkeypatch.undo()
            ticket = executor.submit(_task(1, _square, x=4))
            assert executor.wait(ticket, timeout=60.0).value == 16
        finally:
            executor.shutdown()


class TestJobsInvariance:
    """The serve satellite contract: the session load produces
    byte-identical outcomes whether the daemon runs ``--jobs 1`` or
    ``--jobs 4`` (scheduling must not leak into simulated results)."""

    def _run_load(self, jobs: int) -> str:
        specs = serve_load.build_load(4, workload="fft", base_seed=9,
                                      scale=0.05)
        executor = CellExecutor(jobs=jobs)
        try:
            tickets = [
                executor.submit(CellTask(
                    sweep_id=serve_load.SWEEP_ID, index=index,
                    fn=run_spec_cell,
                    kwargs={"spec": spec, "outputs": {"obs": None},
                            "session_id": f"s-{index}"},
                    seed=spec["seed"]))
                for index, spec in enumerate(specs)]
            outcomes = []
            for index, ticket in enumerate(tickets):
                result = executor.wait(ticket, timeout=120.0)
                assert result.ok, result.error
                outcomes.append({"index": index,
                                 "seed": specs[index]["seed"],
                                 **session_result(result.value)})
        finally:
            executor.shutdown()
        return serve_load.load_digest(outcomes)

    def test_digest_identical_across_jobs_1_and_4(self):
        assert self._run_load(1) == self._run_load(4)

    def test_fork_pool_matches_inline(self):
        assert self._run_load(0) == self._run_load(2)
