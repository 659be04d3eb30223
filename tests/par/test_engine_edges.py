"""Edge cases of the engine's result-transport and harvest paths.

Each test pins one of the ways a cell result can take an unusual route
home: oversized payloads crossing the worker's pipe intact,
unpicklable values downgraded to failed envelopes, workers that die
without reporting (caught by the process sentinel), completions
arriving out of task order (slotted back by position), and batch cells
dispatched in task order, each exactly once.  These are the
paths the differential suite exercises only implicitly — here each gets
a direct witness.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.par.cells import CellResult, CellTask
from repro.par.pool import WorkerPool
from repro.par.runners.process import ProcessRunner
from repro.par.transport import ListBuffer, recv_result, send_result

BIG_BYTES = 2 * 1024 * 1024  # many times a 64KiB pipe buffer


# Module-level so fork workers can pickle them by reference.
def _big_blob(n, fill):
    return bytes([fill]) * n


def _unpicklable():
    return lambda: None  # lambdas cannot be pickled


def _hard_exit(code):
    import os

    os._exit(code)


def _sleep_then_value(seconds, value):
    time.sleep(seconds)
    return value


def _task(index, fn, **kwargs):
    return CellTask(sweep_id="edge-test", index=index, fn=fn,
                    kwargs=kwargs)


def _run_private(tasks, jobs=2):
    pool = WorkerPool(jobs)
    try:
        return ProcessRunner(pool).run(tasks)
    finally:
        pool.shutdown()


class TestSharedMemoryTransport:
    """The result transport: every result, whatever its size, crosses
    the worker's pipe as one pickle."""

    def test_oversized_result_crosses_intact(self):
        results = _run_private(
            [_task(0, _big_blob, n=BIG_BYTES, fill=0xAB),
             _task(1, _big_blob, n=16, fill=0x01)])
        assert results[0].ok
        assert results[0].value == bytes([0xAB]) * BIG_BYTES
        assert results[1].value == bytes([0x01]) * 16

    def test_small_payload_stays_inline(self):
        parent, child = multiprocessing.Pipe()
        result = CellResult(index=0, ok=True, value=42)
        send_result(child, result)
        message = parent.recv_bytes()
        # One pickle on the wire: the bytes the worker checked.
        assert message == pickle.dumps(result,
                                       protocol=pickle.HIGHEST_PROTOCOL)
        assert recv_result(message).value == 42


class TestUnpicklableResults:
    def test_unpicklable_value_becomes_failed_cell(self):
        results = _run_private([_task(0, _unpicklable),
                                _task(1, _sleep_then_value,
                                      seconds=0, value=7)])
        assert not results[0].ok
        assert "result not picklable" in results[0].error
        assert results[0].worker_pid is not None
        assert results[1].ok and results[1].value == 7

    def test_send_result_never_raises_on_bad_payload(self):
        parent, child = multiprocessing.Pipe()
        bad = CellResult(index=5, ok=True, value=lambda: None)
        send_result(child, bad)  # must not raise
        decoded = recv_result(parent.recv_bytes())
        assert not decoded.ok
        assert decoded.index == 5
        assert "result not picklable" in decoded.error


class TestDeadWorkerSentinel:
    def test_exit_code_is_reported(self):
        results = _run_private([_task(0, _hard_exit, code=17),
                                _task(1, _sleep_then_value,
                                      seconds=0, value=1)])
        assert not results[0].ok
        assert "worker died before reporting (exit code 17)" \
            in results[0].error
        assert results[1].ok

    def test_sweep_continues_past_multiple_deaths(self):
        tasks = [_task(0, _hard_exit, code=11),
                 _task(1, _sleep_then_value, seconds=0, value=10),
                 _task(2, _hard_exit, code=12),
                 _task(3, _sleep_then_value, seconds=0, value=30)]
        results = _run_private(tasks)
        assert [r.ok for r in results] == [False, True, False, True]
        assert "exit code 11" in results[0].error
        assert "exit code 12" in results[2].error
        assert [r.value for r in results if r.ok] == [10, 30]


class TestOutOfOrderCompletion:
    """Later cells finishing first must still land in task order."""

    def _delays(self):
        # Cell 0 is the slowest, so completions arrive in reverse.
        return [_task(i, _sleep_then_value,
                      seconds=(3 - i) * 0.15, value=i * 10)
                for i in range(4)]

    def test_process_env_slots_by_position(self):
        results = _run_private(self._delays(), jobs=4)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.value for r in results] == [0, 10, 20, 30]


class TestBatchDispatch:
    """A batch feeds each idle slot the oldest undispatched cell."""

    def _run_recording(self, monkeypatch, tasks, jobs):
        dispatched = []
        dispatch = WorkerPool.dispatch

        def recording(self, index, task, trace_dir, tag=None):
            dispatched.append(task.index)
            return dispatch(self, index, task, trace_dir, tag=tag)

        monkeypatch.setattr(WorkerPool, "dispatch", recording)
        return _run_private(tasks, jobs=jobs), dispatched

    def test_cells_dispatch_in_task_order(self, monkeypatch):
        # Cell 0 holds one slot while the other runs every other cell.
        tasks = [_task(i, _sleep_then_value,
                       seconds=0.6 if i == 0 else 0.01, value=i)
                 for i in range(6)]
        results, dispatched = self._run_recording(monkeypatch, tasks, 2)
        assert dispatched == list(range(6))
        assert [r.value for r in results] == list(range(6))

    def test_every_cell_runs_exactly_once(self, monkeypatch):
        tasks = [_task(i, _sleep_then_value, seconds=0.02 * (i % 3),
                       value=i * 10)
                 for i in range(12)]
        results, dispatched = self._run_recording(monkeypatch, tasks, 3)
        assert sorted(dispatched) == list(range(12))
        assert [r.value for r in results] == [i * 10 for i in range(12)]


class TestDispatchFailure:
    def test_double_dispatch_failure_fails_only_the_cell(self,
                                                         monkeypatch):
        def broken_dispatch(self, *args, **kwargs):
            raise BrokenPipeError("pipe gone")

        monkeypatch.setattr(WorkerPool, "dispatch", broken_dispatch)
        results = _run_private([_task(i, _sleep_then_value, seconds=0,
                                      value=i) for i in range(3)])
        assert [r.index for r in results] == [0, 1, 2]
        assert not any(r.ok for r in results)
        assert all("worker pipe failed twice" in r.error
                   for r in results)


class TestBufferContract:
    @given(st.integers(min_value=0, max_value=64).flatmap(
        lambda items: st.permutations(range(items))))
    def test_buffer_collects_in_task_order(self, completion_order):
        """Results land at their task position, whatever order the
        cells complete in."""
        buffer = ListBuffer(len(completion_order))
        for position in completion_order:
            buffer.put(position, f"cell-{position}")
        assert buffer.collect() == [f"cell-{position}" for position
                                    in range(len(completion_order))]

    def test_incomplete_buffer_refuses_to_collect(self):
        buffer = ListBuffer(3)
        buffer.put(0, CellResult(index=0, ok=True, value=1))
        buffer.put(2, CellResult(index=2, ok=True, value=3))
        with pytest.raises(RuntimeError, match=r"slots \[1\]"):
            buffer.collect()

    def test_pickle_roundtrip_of_cell_result(self):
        result = CellResult(index=9, ok=False, error="boom",
                            worker_pid=123)
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
