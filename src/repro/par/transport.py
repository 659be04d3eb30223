"""Buffers and transports: how cell results travel between runners.

The process runner harvests on a single dispatch thread, so its
parent-side :class:`ListBuffer` is plain position-indexed slots with no
locking.  What it needs beyond that is the *wire transport* for the
worker→parent hop, :func:`send_result` / :func:`recv_result`.

Every result crosses the worker's pipe as one pickle: the worker
pickles the result once (which is also the check that it *can* be
pickled) and sends those bytes; the parent unpickles them.  A payload
that fails to pickle is converted into a failed-cell envelope — the
engine's "anything unpicklable is a failed cell, not a hung pool" rule
lives here.
"""

from __future__ import annotations

import os
import pickle

from repro.par.cells import CellResult

__all__ = ["ListBuffer", "send_result", "recv_result"]


class ListBuffer:
    """Position-slotted result buffer for single-threaded delivery."""

    def __init__(self, size: int):
        self._slots: list[CellResult | None] = [None] * size

    def put(self, position: int, result: CellResult) -> None:
        self._slots[position] = result

    def collect(self) -> list[CellResult]:
        """Results in task-list order; every slot must be filled."""
        missing = [i for i, slot in enumerate(self._slots)
                   if slot is None]
        if missing:
            raise RuntimeError(
                f"result buffer incomplete: slots {missing} never "
                "received a result")
        return list(self._slots)


def send_result(conn, result: CellResult) -> None:
    """Worker side: ship one result envelope to the parent.

    Never raises for payload problems — an unpicklable value is
    downgraded to a failed :class:`CellResult` (carrying the
    diagnostic) so the pool never wedges on a bad cell.
    """
    try:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        payload = pickle.dumps(CellResult(
            index=result.index, ok=False,
            error=f"result not picklable: {exc}",
            duration_s=result.duration_s, worker_pid=os.getpid()))
    conn.send_bytes(payload)


def recv_result(message: bytes) -> CellResult:
    """Parent side: decode the bytes one :func:`send_result` sent.

    The caller is responsible for ``conn.recv_bytes()``; this function
    only interprets the message, so the dispatch loop can keep
    multiplexing connections however it likes.
    """
    return pickle.loads(message)
