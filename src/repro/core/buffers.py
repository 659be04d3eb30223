"""Shared ring buffers: syscall buffers and sync buffers (Section 4).

ReMon uses two families of shared buffers: *syscall buffers* through which
monitors compare arguments and replicate results, and *sync buffers*
through which the agents capture and replay sync-op orders.  We model them
as append-only logs with explicit cursors and high-water-mark accounting;
the cache-line cost of sharing the cursors is charged through
:mod:`repro.perf.contention` by the agents that own each buffer.

Two flavours exist, mirroring the paper's designs:

* :class:`MultiProducerLog` — one global log all master threads append to
  (the TO/PO agents' single sync buffer).  Appending requires claiming the
  shared "next free position", the scalability problem Section 4.5
  describes.
* :class:`SPSCBuffer` — one buffer per master thread with exactly one
  producer and, per slave variant, one consumer (the wall-of-clocks
  design, Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sched.hooks import Hooks


@dataclass
class SyncRecord:
    """One logged sync op."""

    thread: str          # logical id of the master thread that executed it
    addr: int            # master-variant address of the sync variable
    site: str            # static instruction site label
    payload: Any = None  # agent-specific (e.g. (clock_id, time) for WoC)


class MultiProducerLog:
    """Append-only log with a shared producer cursor.

    ``append`` is what the master's agent calls; the shared-cursor
    contention it causes is the caller's to charge (the log itself is a
    passive data structure).
    """

    def __init__(self):
        self._entries: list[SyncRecord] = []
        #: Positions of each thread's entries, for O(1) per-thread lookup
        #: (the "n-th op of thread T" correspondence of Section 4.5.1).
        self._thread_positions: dict[str, list[int]] = {}
        self.high_water = 0
        #: The machine's hook table, installed by the agents' shared
        #: state.  An attached fault injector may corrupt a record before
        #: it is indexed (a flipped word in the shared IPC segment).
        self.hooks = Hooks()

    def append(self, record: SyncRecord) -> int:
        """Log a record; returns its global position."""
        if self.hooks.faults:
            self.hooks.faults.on_sync_produce(record)
        position = len(self._entries)
        self._entries.append(record)
        self._thread_positions.setdefault(record.thread, []).append(position)
        self.high_water = max(self.high_water, position + 1)
        return position

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, position: int) -> SyncRecord:
        return self._entries[position]

    def thread_entry_position(self, thread: str, index: int) -> int | None:
        """Global position of ``thread``'s ``index``-th record, if logged."""
        positions = self._thread_positions.get(thread)
        if positions is None or index >= len(positions):
            return None
        return positions[index]

    def thread_entry_count(self, thread: str) -> int:
        return len(self._thread_positions.get(thread, ()))

    def occupancy(self, consumer_frontiers) -> int:
        """Entries the slowest consumer has not yet replayed.

        ``consumer_frontiers`` is an iterable of per-consumer consumed
        counts (TO cursors, PO window frontiers); the observability
        layer samples this after each append/consume.
        """
        slowest = min(consumer_frontiers, default=len(self._entries))
        return len(self._entries) - slowest

    def fingerprint(self) -> dict:
        """JSON-safe cursor snapshot (machine checkpoints)."""
        return {"entries": len(self._entries),
                "high_water": self.high_water,
                "per_thread": {thread: len(positions)
                               for thread, positions
                               in sorted(self._thread_positions.items())}}


class ConsumptionWindow:
    """Per-slave-variant consumption state over a MultiProducerLog.

    Tracks which global positions were replayed and maintains the frontier
    (lowest unconsumed position) that bounds the PO agent's lookahead scan.
    """

    def __init__(self):
        self.consumed: set[int] = set()
        self.frontier = 0
        #: Per-thread count of replayed entries.
        self.per_thread: dict[str, int] = {}

    def mark_consumed(self, position: int, thread: str) -> None:
        self.consumed.add(position)
        self.per_thread[thread] = self.per_thread.get(thread, 0) + 1
        while self.frontier in self.consumed:
            self.consumed.discard(self.frontier)
            self.frontier += 1

    def next_index_for(self, thread: str) -> int:
        return self.per_thread.get(thread, 0)

    def is_consumed(self, position: int) -> bool:
        return position < self.frontier or position in self.consumed

    def window_size(self) -> int:
        """Entries currently in the lookahead window (for stats)."""
        return len(self.consumed)

    def fingerprint(self) -> dict:
        """JSON-safe cursor snapshot (machine checkpoints)."""
        return {"frontier": self.frontier,
                "window": sorted(self.consumed),
                "per_thread": dict(sorted(self.per_thread.items()))}


class SPSCBuffer:
    """Single-producer buffer with independent per-consumer cursors."""

    def __init__(self, producer: str):
        self.producer = producer
        self._entries: list[SyncRecord] = []
        #: consumer key (slave variant index) -> next index to consume.
        self._cursors: dict[int, int] = {}
        self.high_water = 0
        #: The machine's hook table (see MultiProducerLog.hooks).
        self.hooks = Hooks()

    def produce(self, record: SyncRecord) -> int:
        if self.hooks.faults:
            self.hooks.faults.on_sync_produce(record)
        position = len(self._entries)
        self._entries.append(record)
        self.high_water = max(self.high_water,
                              position + 1 - min(self._cursors.values(),
                                                 default=0))
        return position

    def peek(self, consumer: int) -> SyncRecord | None:
        """Next unconsumed record for ``consumer`` (None if drained)."""
        cursor = self._cursors.get(consumer, 0)
        if cursor >= len(self._entries):
            return None
        return self._entries[cursor]

    def advance(self, consumer: int) -> None:
        self._cursors[consumer] = self._cursors.get(consumer, 0) + 1

    def produced(self) -> int:
        return len(self._entries)

    def consumed(self, consumer: int) -> int:
        return self._cursors.get(consumer, 0)

    def reset_consumer(self, consumer: int) -> None:
        """Rewind one consumer to the start (variant-restart resync)."""
        self._cursors[consumer] = 0

    def occupancy(self) -> int:
        """Entries the slowest consumer has not yet replayed."""
        return len(self._entries) - min(self._cursors.values(), default=0)

    def fingerprint(self) -> dict:
        """JSON-safe cursor snapshot (machine checkpoints)."""
        return {"produced": len(self._entries),
                "high_water": self.high_water,
                "cursors": {str(consumer): cursor for consumer, cursor
                            in sorted(self._cursors.items())}}
