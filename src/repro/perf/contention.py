"""Cache-line contention accounting.

The paper attributes the TO/PO agents' poor scalability to read-write
sharing on buffer cursor variables, and the WoC agent's efficiency to
having only single-producer buffers plus clocks that are shared *only when
the application's own locks were already contended* (Section 4.5).

:class:`SharedLineModel` turns that observation into cycles: each access to
a logically shared line records the accessing thread; the penalty for an
access grows with the number of *distinct other threads* seen within the
recent access window.  This makes contention an emergent property of the
workload's actual sharing pattern rather than a per-benchmark fudge factor.
"""

from __future__ import annotations

from collections import deque


class SharedLineModel:
    """Tracks recent accessors of one logically shared cache line."""

    __slots__ = ("window", "_recent", "_recent_set")

    def __init__(self, window: int = 16):
        self.window = window
        self._recent: deque[str] = deque(maxlen=window)
        self._recent_set: dict[str, int] = {}

    def access(self, thread_id: str) -> int:
        """Record an access; return the number of distinct *other* recent
        accessors (the coherence-miss multiplier)."""
        recent = self._recent
        counts = self._recent_set
        if len(recent) == self.window:
            # The append below evicts the oldest accessor.
            oldest = recent[0]
            count = counts[oldest]
            if count == 1:
                del counts[oldest]
            else:
                counts[oldest] = count - 1
        recent.append(thread_id)
        counts[thread_id] = counts.get(thread_id, 0) + 1
        return len(counts) - 1


def coherence_cycles(costs, sharers: int) -> float:
    """Saturating cost of one access to a line with ``sharers`` other
    recent accessors: one full transfer plus sub-linear queuing."""
    if sharers <= 0:
        return 0.0
    penalty = costs.coherence_penalty
    return (penalty + 0.3 * penalty * (sharers - 1)) * costs.numa_factor


class ContentionTracker:
    """A keyed collection of shared lines (one per cursor / clock / lock)."""

    def __init__(self, window: int = 16):
        self.window = window
        self._lines: dict[object, SharedLineModel] = {}

    def access(self, key: object, thread_id: str) -> int:
        """Record an access to line ``key``; returns distinct other sharers."""
        line = self._lines.get(key)
        if line is None:
            line = SharedLineModel(self.window)
            self._lines[key] = line
        return line.access(thread_id)

    def line_count(self) -> int:
        return len(self._lines)
