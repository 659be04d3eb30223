"""Buffers and transports: how cell results travel between runners.

The process runner harvests on a single dispatch thread, so its
parent-side :class:`ListBuffer` is plain position-indexed slots with no
locking.  What it needs beyond that is a *wire transport* for the
worker→parent hop, provided by :func:`send_result` /
:func:`recv_result`.

The wire transport ships small results inline through the pipe (one
pickled message, the historical behaviour) but diverts payloads larger
than :data:`SHM_THRESHOLD_BYTES` through ``multiprocessing``
POSIX shared memory: the worker copies the pickled bytes into a fresh
segment and sends only ``(name, size)``; the parent maps the segment,
unpickles, and unlinks it.  Large trace/profile artifacts therefore
cross in one copy instead of being squeezed through a 64KiB pipe buffer
in chunks while the parent's dispatch loop is blocked on other workers.

Shared memory is an optimisation, never a requirement: platforms
without ``multiprocessing.shared_memory`` (or with ``/dev/shm``
unavailable) silently fall back to the inline pipe path, and a payload
that fails to pickle is converted into a failed-cell envelope — the
engine's "anything unpicklable is a failed cell, not a hung pool" rule
lives here.
"""

from __future__ import annotations

import pickle

from repro.par.cells import CellResult

__all__ = [
    "ListBuffer",
    "SHM_THRESHOLD_BYTES",
    "send_result",
    "recv_result",
    "shm_available",
]

#: Pickled results at or above this size take the shared-memory path.
#: A Linux pipe buffer is 64KiB; one page below that keeps every
#: inline message a single atomic write.
SHM_THRESHOLD_BYTES = 60 * 1024

try:  # gated: some platforms build Python without _posixshmem
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - stdlib always has it on linux
    _shm = None


def shm_available() -> bool:
    return _shm is not None


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


def _unregister_from_tracker(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    The creating worker hands ownership to the parent (which unlinks
    after reading); without this, the worker's tracker would try to
    unlink the long-gone segment at interpreter exit and log leaks.
    """
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name.lstrip('/')}",
                                    "shared_memory")
    except Exception:
        pass


def send_result(conn, result: CellResult,
                threshold: int = SHM_THRESHOLD_BYTES) -> None:
    """Worker side: ship one result envelope to the parent.

    Never raises for payload problems — an unpicklable or otherwise
    unshippable value is downgraded to a failed :class:`CellResult`
    (carrying the diagnostic) so the pool never wedges on a bad cell.
    """
    import os

    try:
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        conn.send(("inline", CellResult(
            index=result.index, ok=False,
            error=f"result not picklable: {exc}",
            duration_s=result.duration_s, worker_pid=os.getpid())))
        return
    if _shm is None or len(payload) < threshold:
        conn.send(("inline", result))
        return
    try:
        segment = _shm.SharedMemory(create=True, size=len(payload))
    except Exception:
        # /dev/shm missing or full: the pipe still works, just slower.
        conn.send(("inline", result))
        return
    try:
        segment.buf[:len(payload)] = payload
        name = segment.name
        segment.close()
        _unregister_from_tracker(name)
        conn.send(("shm", name, len(payload), result.index))
    except Exception as exc:  # pragma: no cover - copy failures are rare
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass
        conn.send(("inline", CellResult(
            index=result.index, ok=False,
            error=f"shared-memory transport failed: {exc}",
            worker_pid=os.getpid())))


def recv_result(message) -> CellResult:
    """Parent side: decode one envelope produced by :func:`send_result`.

    The caller is responsible for ``conn.recv()``; this function only
    interprets the message, so the dispatch loop can keep multiplexing
    connections however it likes.
    """
    from repro.telemetry import hostmetrics

    kind = message[0]
    if kind == "inline":
        hostmetrics.inc("host.transport.inline_results")
        return message[1]
    if kind != "shm":  # pragma: no cover - protocol is two-armed
        raise RuntimeError(f"unknown result transport kind {kind!r}")
    hostmetrics.inc("host.transport.shm_results")
    _, name, size, index = message
    segment = _shm.SharedMemory(name=name)
    try:
        return pickle.loads(bytes(segment.buf[:size]))
    except Exception as exc:
        return CellResult(index=index, ok=False,
                          error=f"shared-memory payload corrupt: {exc}")
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
