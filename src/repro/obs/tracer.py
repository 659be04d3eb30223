"""Structured event tracing for the MVEE simulator.

The tracer records *what happened when* inside a run: monitor rendezvous,
§4.1 ordering-clock stalls, sync-buffer occupancy, futex parking, and
scheduler grants.  Events are keyed by ``(variant, logical thread)`` —
the same identity scheme the monitor uses to pair equivalent threads —
and carry the simulated-cycle timestamp of the machine clock, so a trace
of an MVEE run is as deterministic as the run itself.

One sink: **Chrome ``trace_event`` JSON** (:meth:`Tracer.write_chrome`),
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
Each variant becomes a process, each logical thread a named thread;
wait spans render as slices, buffer occupancy as counter tracks.
:func:`repro.telemetry.spans.merge_host_trace` folds several such files
(and host span logs) into one.

The tracer is a consumer of the machine's hook table
(:mod:`repro.sched.hooks`): each vocabulary method it defines turns one
event into trace events.  A tracing :class:`~repro.obs.ObsHub` owns one
and :class:`~repro.core.mvee.MVEE` attaches it right after the hub; an
untraced hub (``ObsHub(trace=False)``) has none, so no hook reaches a
tracer at all.  Recording an event never touches the simulated clock,
so an instrumented run spends the exact same number of simulated cycles
as an uninstrumented one.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from repro.kernel.vtime import CYCLES_PER_SECOND

#: Default length of the per-variant event tail kept for forensics.
DEFAULT_RING_SIZE = 256

#: Microseconds per simulated cycle (Chrome traces use microsecond ts).
_US_PER_CYCLE = 1e6 / CYCLES_PER_SECOND


@dataclass
class TraceEvent:
    """One traced occurrence inside a run.

    ``ph`` follows the Chrome ``trace_event`` phase vocabulary we emit:
    ``"i"`` (instant), ``"X"`` (complete span with ``dur``), and ``"C"``
    (counter sample).
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "variant", "thread",
                 "args")

    name: str
    cat: str
    ph: str
    ts: float          # simulated cycles
    dur: float         # simulated cycles (spans only)
    variant: int
    thread: str
    args: dict | None

    def to_dict(self) -> dict:
        """Compact JSON-friendly form (cycle timestamps preserved)."""
        out = {"name": self.name, "cat": self.cat, "ph": self.ph,
               "ts": self.ts, "variant": self.variant,
               "thread": self.thread}
        if self.ph == "X":
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def to_chrome(self, tid: int) -> dict:
        """Chrome ``trace_event`` form (microsecond timestamps)."""
        out = {"name": self.name, "cat": self.cat, "ph": self.ph,
               "ts": self.ts * _US_PER_CYCLE, "pid": self.variant,
               "tid": tid}
        if self.ph == "X":
            out["dur"] = self.dur * _US_PER_CYCLE
        if self.ph == "i":
            out["s"] = "t"  # instant scope: thread
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Accumulates :class:`TraceEvent` records for one run.

    ``clock`` is a zero-argument callable returning the current simulated
    time in cycles (bound to ``Machine.now`` by the MVEE bootstrap);
    until one is bound, events are stamped at cycle 0.  The methods
    named in :data:`repro.sched.hooks.EVENTS` are hook-table callbacks.
    """

    def __init__(self, clock=None, ring_size: int = DEFAULT_RING_SIZE):
        self._clock = clock or (lambda: 0.0)
        self.events: list[TraceEvent] = []
        #: variant -> bounded tail of that variant's events (forensics).
        self._rings: dict[int, deque] = {}
        self._ring_size = ring_size
        #: span key -> (start ts, name, cat, variant, thread, args)
        self._open_spans: dict = {}
        #: rendezvous key -> first-arrival ts.
        self._rdv_first: dict = {}

    def bind_clock(self, clock) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # -- recording ---------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)
        ring = self._rings.get(event.variant)
        if ring is None:
            ring = self._rings[event.variant] = deque(
                maxlen=self._ring_size)
        ring.append(event)

    def instant(self, name: str, variant: int, thread: str,
                cat: str = "obs", args: dict | None = None) -> None:
        """Record a point event at the current simulated time."""
        self._record(TraceEvent(name=name, cat=cat, ph="i",
                                ts=self._clock(), dur=0.0,
                                variant=variant, thread=thread, args=args))

    def counter(self, name: str, variant: int, value: float,
                series: str = "value", cat: str = "buffer") -> None:
        """Record a counter sample (occupancy tracks in Perfetto)."""
        self._record(TraceEvent(name=name, cat=cat, ph="C",
                                ts=self._clock(), dur=0.0,
                                variant=variant, thread="",
                                args={series: value}))

    def complete(self, name: str, variant: int, thread: str,
                 ts: float, dur: float, cat: str = "obs",
                 args: dict | None = None) -> None:
        """Record a finished span with explicit start and duration."""
        self._record(TraceEvent(name=name, cat=cat, ph="X", ts=ts,
                                dur=dur, variant=variant, thread=thread,
                                args=args))

    def begin_span(self, key, name: str, variant: int, thread: str,
                   cat: str = "obs", args: dict | None = None) -> None:
        """Open a span; :meth:`end_span` with the same key closes it."""
        self._open_spans[key] = (self._clock(), name, cat, variant,
                                 thread, args)

    def end_span(self, key, extra_args: dict | None = None) -> float:
        """Close the span opened under ``key``; returns its duration."""
        opened = self._open_spans.pop(key, None)
        if opened is None:
            return 0.0
        start, name, cat, variant, thread, args = opened
        if extra_args:
            args = {**(args or {}), **extra_args}
        dur = self._clock() - start
        self.complete(name, variant, thread, ts=start, dur=dur,
                      cat=cat, args=args)
        return dur

    # -- monitor hooks -------------------------------------------------------

    def monitored_call(self, variant: int, thread: str, name: str,
                       call_class: str, seq: int) -> None:
        self.instant(name, variant, thread, cat="call",
                     args={"seq": seq, "class": call_class})

    def rendezvous_arrive(self, rdv_key, variant: int,
                          thread: str) -> None:
        self._rdv_first.setdefault(rdv_key, self._clock())
        self.instant("rdv.arrive", variant, thread, cat="rdv",
                     args={"seq": rdv_key[1]})

    def rendezvous_complete(self, rdv_key, variant: int, thread: str,
                            matched: bool) -> None:
        now = self._clock()
        first = self._rdv_first.pop(rdv_key, now)
        self.complete("rdv.wait", variant, thread, ts=first,
                      dur=now - first, cat="rdv",
                      args={"seq": rdv_key[1], "matched": matched})

    def clock_tick(self, variant: int, thread: str, time: int) -> None:
        self.instant("clock.tick", variant, thread, cat="clock",
                     args={"time": time})

    def clock_stall(self, variant: int, thread: str, wait_key) -> None:
        self.instant("clock.stall", variant, thread, cat="clock",
                     args={"kind": wait_key[0] if wait_key else "order"})

    def stream_publish(self, variant: int, thread: str,
                       index: int) -> None:
        self.instant("stream.publish", variant, thread, cat="stream",
                     args={"index": index})

    def stream_wait(self, variant: int, thread: str, index: int) -> None:
        self.instant("stream.wait", variant, thread, cat="stream",
                     args={"index": index})

    # -- machine hooks -------------------------------------------------------

    def sched_grant(self, variant: int, thread: str) -> None:
        self.instant("sched.grant", variant, thread, cat="sched")

    def park(self, variant: int, thread_global: str, thread: str,
             wait_key) -> None:
        kind = wait_key[0] if wait_key else "?"
        self.begin_span(("park", thread_global), f"wait:{kind}", variant,
                        thread, cat="wait")

    def unpark(self, variant: int, thread_global: str,
               thread: str) -> None:
        self.end_span(("park", thread_global))

    def divergence(self, report) -> None:
        kind = getattr(getattr(report, "kind", None), "value", "unknown")
        self.instant("divergence", 0, getattr(report, "thread", ""),
                     cat="divergence", args={"kind": kind})

    # -- fault / resilience hooks --------------------------------------------

    def fault_injected(self, kind: str, variant: int, thread: str,
                       site: str, detail: str) -> None:
        self.instant(f"fault.{kind}", variant, thread, cat="fault",
                     args={"site": site, "detail": detail})

    def watchdog_timeout(self, thread: str, seq: int,
                         missing: list) -> None:
        self.instant("watchdog.timeout", 0, thread, cat="resilience",
                     args={"seq": seq, "missing": list(missing)})

    def variant_quarantined(self, variant: int, kind: str, thread: str,
                            seq: int) -> None:
        self.instant("quarantine", variant, thread, cat="resilience",
                     args={"kind": kind, "seq": seq})

    def variant_restarted(self, variant: int) -> None:
        self.instant("restart", variant, "main", cat="resilience")

    def variant_caught_up(self, variant: int) -> None:
        self.instant("caught_up", variant, "main", cat="resilience")

    # -- replay / checkpoint hooks -------------------------------------------

    def checkpoint_taken(self, index: int, at_cycles: float,
                         decisions: int | None) -> None:
        self.instant("checkpoint", 0, "main", cat="replay",
                     args={"index": index, "at_cycles": at_cycles,
                           "decisions": decisions})

    def replay_diverged(self, step: int, index: int) -> None:
        self.instant("replay.diverged", 0, "main", cat="replay",
                     args={"step": step, "index": index})

    # -- race / deadlock detector hooks --------------------------------------

    def race_detected(self, race) -> None:
        self.instant("race", race.current.variant, race.current.thread,
                     cat="race", args={"kind": race.kind,
                                       "site": race.current.site,
                                       "prior_site": race.prior.site})

    def deadlock_detected(self, record) -> None:
        self.instant("deadlock", record.variant, record.threads[0].thread,
                     cat="deadlock", args={"cycle": record.cycle_name(),
                                           "locks": list(record.locks())})

    # -- agent hooks ---------------------------------------------------------

    def sync_record(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        self.counter(f"buf:{buffer}", variant, occupancy,
                     series="occupancy")

    sync_replay = sync_record

    def sync_stall(self, variant: int, thread: str, kind: str,
                   buffer: str) -> None:
        self.instant(f"sync.{kind}", variant, thread, cat="sync",
                     args={"buffer": buffer})

    def clock_lag(self, variant: int, thread: str, clock_id: int,
                  lag: float) -> None:
        self.instant("clock.stall", variant, thread, cat="clock",
                     args={"clock": clock_id, "lag": lag})

    # -- kernel hooks --------------------------------------------------------

    def futex_park(self, variant: int, addr: int,
                   thread_global: str) -> None:
        self.instant("futex.park", variant, thread_global.partition(":")[2],
                     cat="futex", args={"addr": addr})

    def futex_wake(self, variant: int, addr: int, waker,
                   woken: list) -> None:
        for thread_global in woken:
            self.instant("futex.wake", variant,
                         thread_global.partition(":")[2], cat="futex",
                         args={"addr": addr})

    # -- forensics support --------------------------------------------------

    def tail(self, variant: int) -> list[TraceEvent]:
        """The last events recorded for ``variant`` (bounded ring)."""
        return list(self._rings.get(variant, ()))

    def variants(self) -> list[int]:
        return sorted(self._rings)

    # -- export -------------------------------------------------------------

    def to_chrome(self) -> dict:
        """Build the Chrome ``trace_event`` JSON object.

        Thread ids are assigned per variant in first-appearance order
        (deterministic for a deterministic run) and labelled with
        metadata events so Perfetto shows logical thread names.
        """
        trace_events: list[dict] = []
        tids: dict[tuple[int, str], int] = {}
        seen_pids: set[int] = set()
        for event in self.events:
            pid = event.variant
            if pid not in seen_pids:
                seen_pids.add(pid)
                role = "master" if pid == 0 else f"slave {pid}"
                trace_events.append({
                    "name": "process_name", "ph": "M", "pid": pid,
                    "tid": 0, "args": {"name": f"variant {pid} ({role})"}})
            key = (pid, event.thread)
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = len([k for k in tids if k[0] == pid])
                if event.thread:
                    trace_events.append({
                        "name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": event.thread}})
            trace_events.append(event.to_chrome(tid))
        return {"traceEvents": trace_events, "displayTimeUnit": "ns",
                "otherData": {"source": "repro.obs",
                              "clock": "simulated cycles (1 cycle = 1 ns)"}}

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, sort_keys=True)
