"""``repro.obs`` — structured tracing, metrics, and divergence forensics.

The simulator's hot paths fire events through the machine's hook table
(:mod:`repro.sched.hooks`), and an :class:`ObsHub` is one consumer on
it.  Without a hub attached (the default) an event's tuple of callbacks
is empty and the run is observationally identical to the seed
simulator; with a hub attached, each event feeds

* the **tracer** (:mod:`repro.obs.tracer`) — spans/instants keyed by
  (variant, logical thread), exportable to Chrome ``trace_event`` JSON
  for Perfetto or to JSONL;
* the **metrics registry** (:mod:`repro.obs.metrics`) — counters,
  gauges, and histograms with deterministic snapshots;
* the **forensics rings** (:mod:`repro.obs.forensics`) — bounded
  per-variant event tails captured into a divergence bundle when the
  monitor kills the run.

Wiring happens in :class:`repro.core.mvee.MVEE` (pass ``obs=ObsHub()``)
and in the CLI (``--trace-out`` / ``--metrics``); hub methods never
charge simulated cycles, so enabling observability does not perturb the
simulated timeline — a property the test suite pins down.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


class ObsHub:
    """One observability session: tracer + metrics + forensic state.

    Every public method named in :data:`repro.sched.hooks.EVENTS` is a
    hook-table callback: the simulator, monitor, agents, and kernel
    fire them from their hot paths when (and only when) a hub is
    attached.  The rest (``fault_injected``, ``race_detected``, ...)
    are called by the other consumers the hub is bound to.  The hub
    translates each occurrence into trace events and metric updates; it
    holds whatever cross-call state that requires (e.g. rendezvous
    first-arrival timestamps) so the instrumented components stay
    stateless about observability.
    """

    def __init__(self, trace: bool = True):
        self.tracer = Tracer() if trace else NULL_TRACER
        self.metrics = MetricsRegistry()
        #: rendezvous key -> (first-arrival ts, arrival count).
        self._rdv_first: dict = {}
        self.divergence_report = None
        #: Injected-fault records (dicts), in injection order.
        self.fault_log: list[dict] = []
        #: Recovery actions (watchdog fires, quarantines, restarts).
        self.recovery_log: list[dict] = []
        #: Races reported by an attached detector (dicts, in order).
        self.race_log: list[dict] = []
        #: Wait-for cycles reported by an attached deadlock detector.
        #: Deliberately NOT part of :meth:`digest`'s payload (the keys
        #: there are frozen by the golden-digest pins); a detected cycle
        #: still moves the digest through the ``deadlocks.detected``
        #: counter, and a clean run's digest is unchanged.
        self.deadlock_log: list[dict] = []

    def bind_clock(self, clock) -> None:
        """Attach the machine's simulated clock (``lambda: machine.now``)."""
        self.tracer.bind_clock(clock)

    @property
    def now(self) -> float:
        return self.tracer.now

    def digest(self) -> str:
        """Canonical digest of everything the hub observed.

        Covers the metrics snapshot and the fault/recovery/race logs —
        all simulated quantities, so two runs of the same configuration
        produce the same digest regardless of host, worker count, or
        whether the run was driven in one shot or in step batches.
        ``repro.serve`` uses this to prove a served session is
        byte-identical to the equivalent single-shot ``repro run``.
        """
        import hashlib
        import json

        payload = {
            "metrics": self.metrics.snapshot(),
            "faults": self.fault_log,
            "recovery": self.recovery_log,
            "races": self.race_log,
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()

    # -- monitor hooks -------------------------------------------------------

    def monitored_call(self, variant: int, thread: str, name: str,
                       call_class: str, seq: int) -> None:
        """First arrival of one variant's thread at a monitored call."""
        self.metrics.counter("monitor.calls").inc()
        self.metrics.counter(f"monitor.calls.class.{call_class}").inc()
        self.metrics.counter(f"monitor.calls.name.{name}").inc()
        self.tracer.instant(name, variant, thread, cat="call",
                            args={"seq": seq, "class": call_class})

    def rendezvous_arrive(self, rdv_key, variant: int,
                          thread: str) -> None:
        """A variant registered at a lockstep rendezvous."""
        self.metrics.counter("monitor.rendezvous.arrivals").inc()
        now = self.now
        if rdv_key not in self._rdv_first:
            self._rdv_first[rdv_key] = now
        self.tracer.instant("rdv.arrive", variant, thread, cat="rdv",
                            args={"seq": rdv_key[1]})

    def rendezvous_complete(self, rdv_key, variant: int, thread: str,
                            matched: bool) -> None:
        """The last variant arrived; the rendezvous was compared."""
        first = self._rdv_first.pop(rdv_key, self.now)
        latency = self.now - first
        self.metrics.counter("monitor.rendezvous.completed").inc()
        self.metrics.histogram(
            "monitor.rendezvous.latency_cycles").observe(latency)
        self.tracer.complete("rdv.wait", variant, thread, ts=first,
                             dur=latency, cat="rdv",
                             args={"seq": rdv_key[1],
                                   "matched": matched})
        if not matched:
            self.metrics.counter("monitor.rendezvous.mismatches").inc()

    def clock_tick(self, variant: int, thread: str, time: int) -> None:
        """The master stamped the §4.1 syscall-ordering clock."""
        self.metrics.counter("monitor.order.ticks").inc()
        self.tracer.instant("clock.tick", variant, thread, cat="clock",
                            args={"time": time})

    def clock_stall(self, variant: int, thread: str, wait_key) -> None:
        """A §4.1 ordering-clock check parked the thread."""
        kind = wait_key[0] if wait_key else "order"
        self.metrics.counter("monitor.order.stalls").inc()
        self.metrics.counter(f"monitor.order.stalls.{kind}").inc()
        self.tracer.instant("clock.stall", variant, thread, cat="clock",
                            args={"kind": kind})

    def stream_publish(self, variant: int, thread: str,
                       index: int) -> None:
        """The master published a blocking-call stream result."""
        self.metrics.counter("monitor.stream.published").inc()
        self.tracer.instant("stream.publish", variant, thread,
                            cat="stream", args={"index": index})

    def stream_wait(self, variant: int, thread: str, index: int) -> None:
        """A slave stalled waiting for a stream result."""
        self.metrics.counter("monitor.stream.waits").inc()
        self.tracer.instant("stream.wait", variant, thread,
                            cat="stream", args={"index": index})

    # -- machine hooks -------------------------------------------------------

    def sched_grant(self, variant: int, thread: str) -> None:
        """The scheduler granted a core to a thread."""
        self.metrics.counter("sched.grants").inc()
        self.tracer.instant("sched.grant", variant, thread, cat="sched")

    def park(self, variant: int, thread_global: str, thread: str,
             wait_key) -> None:
        """A thread blocked on a wait key; opens a wait span."""
        kind = wait_key[0] if wait_key else "?"
        self.metrics.counter("machine.parks").inc()
        self.metrics.counter(f"machine.parks.{kind}").inc()
        self.tracer.begin_span(("park", thread_global),
                               f"wait:{kind}", variant, thread,
                               cat="wait")

    def unpark(self, variant: int, thread_global: str,
               thread: str) -> None:
        """A parked thread became runnable; closes its wait span."""
        dur = self.tracer.end_span(("park", thread_global))
        self.metrics.histogram("machine.park_cycles").observe(dur)

    def divergence(self, report) -> None:
        """The monitor killed the run."""
        self.divergence_report = report
        kind = getattr(getattr(report, "kind", None), "value", "unknown")
        self.metrics.counter("divergence.total").inc()
        self.metrics.counter(f"divergence.kind.{kind}").inc()
        self.tracer.instant("divergence", 0,
                            getattr(report, "thread", ""),
                            cat="divergence", args={"kind": kind})

    # -- fault / resilience hooks --------------------------------------------

    def fault_injected(self, kind: str, variant: int, thread: str,
                       site: str, detail: str) -> None:
        """The fault injector fired one planned fault."""
        self.fault_log.append({"kind": kind, "variant": variant,
                               "thread": thread, "site": site,
                               "detail": detail, "at_cycles": self.now})
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.injected.{kind}").inc()
        self.tracer.instant(f"fault.{kind}", variant, thread,
                            cat="fault", args={"site": site,
                                               "detail": detail})

    def watchdog_timeout(self, thread: str, seq: int,
                         missing: list) -> None:
        """The lockstep watchdog condemned variants that never arrived."""
        self.recovery_log.append({"action": "watchdog_timeout",
                                  "thread": thread, "seq": seq,
                                  "variants": list(missing),
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.watchdog_timeouts").inc()
        self.tracer.instant("watchdog.timeout", 0, thread,
                            cat="resilience",
                            args={"seq": seq, "missing": list(missing)})

    def variant_quarantined(self, variant: int, kind: str, thread: str,
                            seq: int) -> None:
        """The monitor demoted one variant and kept the rest running."""
        self.recovery_log.append({"action": "quarantine",
                                  "variant": variant, "kind": kind,
                                  "thread": thread, "seq": seq,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.quarantines").inc()
        self.metrics.counter(f"resilience.quarantines.{kind}").inc()
        self.tracer.instant("quarantine", variant, thread,
                            cat="resilience",
                            args={"kind": kind, "seq": seq})

    def variant_restarted(self, variant: int) -> None:
        """A quarantined variant was rebuilt and re-admitted."""
        self.recovery_log.append({"action": "restart",
                                  "variant": variant,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.restarts").inc()
        self.tracer.instant("restart", variant, "main",
                            cat="resilience", args={})

    def variant_caught_up(self, variant: int) -> None:
        """A restarted variant drained the master history and went live."""
        self.recovery_log.append({"action": "caught_up",
                                  "variant": variant,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.caught_up").inc()
        self.tracer.instant("caught_up", variant, "main",
                            cat="resilience", args={})

    # -- replay / checkpoint hooks -------------------------------------------
    # Tracer-only by design: the digest() payload (metrics + logs) must
    # not move when recording or checkpointing is enabled, so a recorded
    # run can prove itself identical to an unrecorded one.

    def checkpoint_taken(self, index: int, at_cycles: float,
                         decisions: int | None) -> None:
        """The checkpointer snapshotted machine state."""
        self.tracer.instant("checkpoint", 0, "main", cat="replay",
                            args={"index": index,
                                  "at_cycles": at_cycles,
                                  "decisions": decisions})

    def replay_diverged(self, step: int, index: int) -> None:
        """A replayed run left its recorded decision stream."""
        self.tracer.instant("replay.diverged", 0, "main", cat="replay",
                            args={"step": step, "index": index})

    # -- race detector hooks -------------------------------------------------

    def race_detected(self, race) -> None:
        """The happens-before detector recorded a new distinct race."""
        record = race.to_dict()
        record["at_cycles"] = self.now
        self.race_log.append(record)
        self.metrics.counter("races.detected").inc()
        self.metrics.counter(f"races.kind.{race.kind}").inc()
        self.tracer.instant("race", race.current.variant,
                            race.current.thread, cat="race",
                            args={"kind": race.kind,
                                  "site": race.current.site,
                                  "prior_site": race.prior.site})

    # -- deadlock detector hooks ---------------------------------------------

    def deadlock_detected(self, record) -> None:
        """The wait-for-graph detector completed a cycle."""
        entry = record.to_dict()
        entry["at_cycles"] = self.now
        self.deadlock_log.append(entry)
        self.metrics.counter("deadlocks.detected").inc()
        self.tracer.instant("deadlock", record.variant,
                            record.threads[0].thread, cat="deadlock",
                            args={"cycle": record.cycle_name(),
                                  "locks": list(record.locks())})

    # -- agent hooks ---------------------------------------------------------

    def sync_record(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        """The master logged one sync op; samples buffer occupancy."""
        self.metrics.counter("agent.recorded").inc()
        gauge = self.metrics.gauge(f"agent.buffer.{buffer}.occupancy")
        gauge.set(occupancy)
        self.tracer.counter(f"buf:{buffer}", variant, occupancy,
                            series="occupancy")

    def sync_replay(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        """A slave consumed one sync-op record."""
        self.metrics.counter("agent.replayed").inc()
        self.tracer.counter(f"buf:{buffer}", variant, occupancy,
                            series="occupancy")

    def sync_stall(self, variant: int, thread: str, kind: str,
                   buffer: str) -> None:
        """A sync-op wrapper parked (log/order/backpressure wait)."""
        self.metrics.counter("agent.stalls").inc()
        self.metrics.counter(f"agent.stalls.{kind}").inc()
        self.tracer.instant(f"sync.{kind}", variant, thread, cat="sync",
                            args={"buffer": buffer})

    def clock_lag(self, variant: int, thread: str, clock_id: int,
                  lag: float) -> None:
        """A WoC slave observed its local clock behind the recorded time."""
        self.metrics.histogram("woc.clock_lag",
                               bounds=(1, 2, 4, 8, 16, 32, 64, 128,
                                       256)).observe(lag)
        self.tracer.instant("clock.stall", variant, thread, cat="clock",
                            args={"clock": clock_id, "lag": lag})

    # -- kernel hooks --------------------------------------------------------

    def futex_park(self, variant: int, addr: int,
                   thread_global: str) -> None:
        """A thread queued on a futex word."""
        self.metrics.counter("futex.parks").inc()
        self.tracer.instant("futex.park", variant,
                            thread_global.partition(":")[2],
                            cat="futex", args={"addr": addr})

    def futex_wake(self, variant: int, addr: int, waker,
                   woken: list) -> None:
        """A futex wake released queued threads."""
        self.metrics.counter("futex.wakes").inc()
        self.metrics.counter("futex.woken").inc(len(woken))
        for thread_global in woken:
            self.tracer.instant("futex.wake", variant,
                                thread_global.partition(":")[2],
                                cat="futex", args={"addr": addr})
