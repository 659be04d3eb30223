"""Trace context: the (trace_id, span_id) pair that follows a request.

A root context is created at every CLI entry point and at every serve
request that arrives without one; children are derived per hop (client
rpc -> daemon op -> session -> pool worker) so the merged host trace
reconstructs the full causal path.  The wire form is a small JSON
object, carried as an optional ``"trace"`` field on protocol requests,
on :class:`~repro.run.RunSpec` (which the serve registry journals, so
a resumed session keeps its original trace_id across daemon death), and
on :class:`~repro.par.cells.CellTask` envelopes into pool workers.

IDs come from :func:`os.urandom` — host randomness, never the seeded
guest RNG, so creating a context cannot perturb a simulated run.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "TraceContext",
    "new_context",
    "current_context",
    "use_context",
    "wire_context",
]

#: Wire field carrying a trace context on protocol requests, specs, and
#: cell tasks.
TRACE_KEY = "trace"

_local = threading.local()


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace (immutable, JSON-safe)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "TraceContext":
        """A new span under this one, same trace."""
        return TraceContext(trace_id=self.trace_id, span_id=_new_id(),
                            parent_id=self.span_id)

    def to_dict(self) -> dict:
        data = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        return data

    @classmethod
    def from_dict(cls, data) -> "TraceContext | None":
        """Parse a wire dict; tolerant — garbage yields ``None``, never
        an exception (telemetry must not fail a request)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            span_id = _new_id()
        parent = data.get("parent_id")
        if not isinstance(parent, str):
            parent = None
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent)


def new_context() -> TraceContext:
    """A fresh root context (new trace_id)."""
    return TraceContext(trace_id=_new_id(), span_id=_new_id())


def current_context() -> TraceContext | None:
    """The context installed on this thread, if any."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use_context(ctx: TraceContext | None):
    """Install ``ctx`` as the thread's current context for the block.

    ``None`` is accepted and is a no-op, so call sites can pass through
    whatever :meth:`TraceContext.from_dict` returned.
    """
    if ctx is None:
        yield None
        return
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()


def wire_context() -> dict | None:
    """The current context's wire dict, or ``None`` (for attaching to
    outgoing requests and task envelopes)."""
    ctx = current_context()
    return ctx.to_dict() if ctx is not None else None
