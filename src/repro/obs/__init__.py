"""``repro.obs`` — structured tracing, metrics, and divergence forensics.

The simulator's hot paths fire events through the machine's hook table
(:mod:`repro.sched.hooks`), and an :class:`ObsHub` is one consumer on
it.  Without a hub attached (the default) an event's tuple of callbacks
is empty and the run is observationally identical to the seed
simulator; with a hub attached, each event feeds

* the **metrics registry** (:mod:`repro.obs.metrics`) — counters,
  gauges, and histograms with deterministic snapshots;
* the hub's **logs** of injected faults, recovery actions, races and
  deadlocks, which with the metrics make up :meth:`ObsHub.digest`;
* the **tracer** (:mod:`repro.obs.tracer`) of a tracing hub — a second
  consumer, attached right after the hub, recording spans/instants
  keyed by (variant, logical thread), exportable to Chrome
  ``trace_event`` JSON for Perfetto, whose per-variant rings feed the
  **forensics** bundle (:mod:`repro.obs.forensics`) captured when the
  monitor kills the run.

The hub reads the machine clock itself, so its metrics, logs and digest
do not depend on whether it traces.  Wiring happens in
:class:`repro.core.mvee.MVEE` (pass ``obs=ObsHub()``) and in the CLI
(``--trace-out`` / ``--metrics``); hub methods never charge simulated
cycles, so enabling observability does not perturb the simulated
timeline — a property the test suite pins down.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class ObsHub:
    """One observability session: metrics, logs, and an optional tracer.

    Every public method is a hook-table callback named in
    :data:`repro.sched.hooks.EVENTS`: the simulator, monitor, agents,
    kernel, fault injector and detectors fire them when (and only when)
    a hub is attached.  The hub translates each occurrence into metric
    updates and log records; it holds whatever cross-call state that
    requires (rendezvous first arrivals, park start times) so the
    instrumented components stay stateless about observability.

    ``trace`` gives the hub a :class:`~repro.obs.tracer.Tracer`, which
    the MVEE attaches as its own consumer; with ``trace=False``,
    ``tracer`` is None and no event reaches a tracer.
    """

    def __init__(self, trace: bool = True):
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry()
        self._clock = lambda: 0.0
        #: rendezvous key -> first-arrival ts.
        self._rdv_first: dict = {}
        #: thread global id -> ts it parked at.
        self._parked: dict = {}
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
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    def digest(self) -> str:
        """Canonical digest of everything the hub observed.

        Covers the metrics snapshot and the fault/recovery/race logs —
        all simulated quantities, so two runs of the same configuration
        produce the same digest regardless of host, worker count,
        tracing, or whether the run was driven in one shot or in step
        batches.  ``repro.serve`` uses this to prove a served session is
        byte-identical to the equivalent single-shot ``repro run``.
        Recording and checkpointing are not observed here (the hub
        defines no ``checkpoint_taken`` or ``replay_diverged``), so a
        recorded run can prove itself identical to an unrecorded one.
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

    def rendezvous_arrive(self, rdv_key, variant: int,
                          thread: str) -> None:
        """A variant registered at a lockstep rendezvous."""
        self.metrics.counter("monitor.rendezvous.arrivals").inc()
        self._rdv_first.setdefault(rdv_key, self.now)

    def rendezvous_complete(self, rdv_key, variant: int, thread: str,
                            matched: bool) -> None:
        """The last variant arrived; the rendezvous was compared."""
        now = self.now
        self.metrics.counter("monitor.rendezvous.completed").inc()
        self.metrics.histogram("monitor.rendezvous.latency_cycles").observe(
            now - self._rdv_first.pop(rdv_key, now))
        if not matched:
            self.metrics.counter("monitor.rendezvous.mismatches").inc()

    def clock_tick(self, variant: int, thread: str, time: int) -> None:
        """The master stamped the §4.1 syscall-ordering clock."""
        self.metrics.counter("monitor.order.ticks").inc()

    def clock_stall(self, variant: int, thread: str, wait_key) -> None:
        """A §4.1 ordering-clock check parked the thread."""
        kind = wait_key[0] if wait_key else "order"
        self.metrics.counter("monitor.order.stalls").inc()
        self.metrics.counter(f"monitor.order.stalls.{kind}").inc()

    def stream_publish(self, variant: int, thread: str,
                       index: int) -> None:
        """The master published a blocking-call stream result."""
        self.metrics.counter("monitor.stream.published").inc()

    def stream_wait(self, variant: int, thread: str, index: int) -> None:
        """A slave stalled waiting for a stream result."""
        self.metrics.counter("monitor.stream.waits").inc()

    # -- machine hooks -------------------------------------------------------

    def sched_grant(self, variant: int, thread: str) -> None:
        """The scheduler granted a core to a thread."""
        self.metrics.counter("sched.grants").inc()

    def park(self, variant: int, thread_global: str, thread: str,
             wait_key) -> None:
        """A thread blocked on a wait key."""
        kind = wait_key[0] if wait_key else "?"
        self.metrics.counter("machine.parks").inc()
        self.metrics.counter(f"machine.parks.{kind}").inc()
        self._parked[thread_global] = self.now

    def unpark(self, variant: int, thread_global: str,
               thread: str) -> None:
        """A parked thread became runnable; observes its wait."""
        start = self._parked.pop(thread_global, None)
        self.metrics.histogram("machine.park_cycles").observe(
            0.0 if start is None else self.now - start)

    def divergence(self, report) -> None:
        """The monitor killed the run."""
        self.divergence_report = report
        kind = getattr(getattr(report, "kind", None), "value", "unknown")
        self.metrics.counter("divergence.total").inc()
        self.metrics.counter(f"divergence.kind.{kind}").inc()

    # -- fault / resilience hooks --------------------------------------------

    def fault_injected(self, kind: str, variant: int, thread: str,
                       site: str, detail: str) -> None:
        """The fault injector fired one planned fault."""
        self.fault_log.append({"kind": kind, "variant": variant,
                               "thread": thread, "site": site,
                               "detail": detail, "at_cycles": self.now})
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.injected.{kind}").inc()

    def watchdog_timeout(self, thread: str, seq: int,
                         missing: list) -> None:
        """The lockstep watchdog condemned variants that never arrived."""
        self.recovery_log.append({"action": "watchdog_timeout",
                                  "thread": thread, "seq": seq,
                                  "variants": list(missing),
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.watchdog_timeouts").inc()

    def variant_quarantined(self, variant: int, kind: str, thread: str,
                            seq: int) -> None:
        """The monitor demoted one variant and kept the rest running."""
        self.recovery_log.append({"action": "quarantine",
                                  "variant": variant, "kind": kind,
                                  "thread": thread, "seq": seq,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.quarantines").inc()
        self.metrics.counter(f"resilience.quarantines.{kind}").inc()

    def variant_restarted(self, variant: int) -> None:
        """A quarantined variant was rebuilt and re-admitted."""
        self.recovery_log.append({"action": "restart",
                                  "variant": variant,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.restarts").inc()

    def variant_caught_up(self, variant: int) -> None:
        """A restarted variant drained the master history and went live."""
        self.recovery_log.append({"action": "caught_up",
                                  "variant": variant,
                                  "at_cycles": self.now})
        self.metrics.counter("resilience.caught_up").inc()

    # -- race / deadlock detector hooks --------------------------------------

    def race_detected(self, race) -> None:
        """The happens-before detector recorded a new distinct race."""
        record = race.to_dict()
        record["at_cycles"] = self.now
        self.race_log.append(record)
        self.metrics.counter("races.detected").inc()
        self.metrics.counter(f"races.kind.{race.kind}").inc()

    def deadlock_detected(self, record) -> None:
        """The wait-for-graph detector completed a cycle."""
        entry = record.to_dict()
        entry["at_cycles"] = self.now
        self.deadlock_log.append(entry)
        self.metrics.counter("deadlocks.detected").inc()

    # -- agent hooks ---------------------------------------------------------

    def sync_record(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        """The master logged one sync op; samples buffer occupancy."""
        self.metrics.counter("agent.recorded").inc()
        self.metrics.gauge(f"agent.buffer.{buffer}.occupancy").set(occupancy)

    def sync_replay(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        """A slave consumed one sync-op record."""
        self.metrics.counter("agent.replayed").inc()

    def sync_stall(self, variant: int, thread: str, kind: str,
                   buffer: str) -> None:
        """A sync-op wrapper parked (log/order/backpressure wait)."""
        self.metrics.counter("agent.stalls").inc()
        self.metrics.counter(f"agent.stalls.{kind}").inc()

    def clock_lag(self, variant: int, thread: str, clock_id: int,
                  lag: float) -> None:
        """A WoC slave observed its local clock behind the recorded time."""
        self.metrics.histogram("woc.clock_lag",
                               bounds=(1, 2, 4, 8, 16, 32, 64, 128,
                                       256)).observe(lag)

    # -- kernel hooks --------------------------------------------------------

    def futex_park(self, variant: int, addr: int,
                   thread_global: str) -> None:
        """A thread queued on a futex word."""
        self.metrics.counter("futex.parks").inc()

    def futex_wake(self, variant: int, addr: int, waker,
                   woken: list) -> None:
        """A futex wake released queued threads."""
        self.metrics.counter("futex.wakes").inc()
        self.metrics.counter("futex.woken").inc(len(woken))
