"""Top-level MVEE orchestration — the ReMon analogue.

:class:`MVEE` plays the role of ReMon's bootstrap process (Section 4): it
sets up N variants of one guest program (with the requested diversity
transforms), creates the monitor and the shared buffers, injects the
synchronization agents into each variant, hands control to the simulated
machine, and turns whatever happens into a verdict:

* ``"clean"`` — all variants ran to completion in lockstep;
* ``"degraded"`` — the run completed, but only after the monitor
  quarantined (and possibly restarted) at least one variant under a
  graceful-degradation policy (see ``docs/RESILIENCE.md``);
* ``"divergence"`` — the monitor killed the variants (report attached);
* ``"deadlock"`` — replay wedged (typically missing instrumentation or a
  guest bug; real MVEEs eventually time out in this situation).

Use :func:`run_mvee` for the one-call version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.agents.base import AgentSharedState
from repro.core.divergence import DivergenceReport, MonitorPolicy
from repro.core.injection import inject_agents, instrument_all
from repro.core.monitor import Monitor
from repro.core.relaxed import RelaxedMonitor
from repro.diversity.spec import DiversitySpec, apply_diversity, layouts_for
from repro.errors import DeadlockError, DivergenceError
from repro.faults import FaultInjector
from repro.guest.program import GuestProgram, build_context
from repro.kernel.fs import VirtualDisk
from repro.kernel.kernel import VirtualKernel
from repro.kernel.net import Network
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.sched.machine import Machine, MachineReport
from repro.sched.scheduler import SchedulingPolicy
from repro.sched.vm import VariantVM


@dataclass
class MVEEOutcome:
    """Everything a test or bench needs from one MVEE run."""

    verdict: str          # "clean" | "degraded" | "divergence" | "deadlock"
    report: MachineReport | None
    divergence: DivergenceReport | None
    disk: VirtualDisk
    vms: list[VariantVM]
    monitor: object
    agent_shared: AgentSharedState | None
    machine: Machine
    deadlock: DeadlockError | None = None
    #: The observability hub attached to the run (None when disabled).
    obs: object | None = None
    #: Forensics bundle captured when the run diverged under observation.
    obs_bundle: object | None = None
    #: Graceful-degradation actions taken (QuarantineEvent list, in order).
    quarantines: list = field(default_factory=list)
    #: Faults actually injected (InjectedFault list, in injection order).
    faults: list = field(default_factory=list)
    #: Race report from an attached detector (None when disabled).
    races: object | None = None
    #: Deadlock report from an attached detector (None when disabled).
    deadlocks: object | None = None

    @property
    def cycles(self) -> float:
        if self.report is not None:
            return self.report.cycles
        return self.machine.now

    @property
    def stdout(self) -> str:
        return self.disk.stream_text("stdout")


class MVEE:
    """Bootstrap and run one multi-variant execution."""

    def __init__(self, program: GuestProgram, variants: int = 2,
                 agent: str | None = "wall_of_clocks",
                 policy: MonitorPolicy | None = None,
                 monitor_kind: str = "strict",
                 seed: int = 0,
                 cores: int = 16,
                 costs: CostModel | None = None,
                 sched_policy: SchedulingPolicy | None = None,
                 diversity: DiversitySpec | None = None,
                 instrument: Callable[[str], bool] | None = instrument_all,
                 record_trace: bool = False,
                 record_sync_trace: bool = False,
                 disk: VirtualDisk | None = None,
                 with_network: bool = False,
                 traffic=None,
                 max_cycles: float | None = None,
                 agent_options: dict | None = None,
                 obs=None,
                 faults=None,
                 races=None,
                 deadlocks=None,
                 replay=None,
                 checkpoints=None):
        if variants < 2:
            raise ValueError("an MVEE needs at least two variants")
        self.program = program
        self.variants = variants
        self.agent_name = agent
        self.costs = costs or DEFAULT_COSTS
        self.policy = policy or MonitorPolicy()
        self.monitor_kind = monitor_kind
        self.seed = seed
        self.cores = cores
        self.sched_policy = sched_policy
        self.diversity = diversity
        self.instrument = instrument
        self.record_trace = record_trace
        self.record_sync_trace = record_sync_trace
        self.disk = disk if disk is not None else VirtualDisk()
        self.network = Network() if with_network else None
        self.traffic = traffic
        self.max_cycles = max_cycles
        self.agent_options = agent_options or {}
        #: Optional :class:`repro.obs.ObsHub` observing this run.
        self.obs = obs
        #: Optional fault injection: a :class:`repro.faults.FaultPlan`
        #: (or a pre-built injector) driving deterministic faults.
        if faults is None:
            self.fault_injector = None
        elif isinstance(faults, FaultInjector):
            self.fault_injector = faults
        else:
            self.fault_injector = FaultInjector(faults)
        #: Optional race detection: ``True`` attaches a default
        #: :class:`repro.races.RaceDetector`, or pass a configured one.
        if races is None or races is False:
            self.races = None
        elif races is True:
            from repro.races import RaceDetector

            self.races = RaceDetector()
        else:
            self.races = races
        #: Optional deadlock detection: ``True`` attaches a default
        #: :class:`repro.races.DeadlockDetector`, or pass a configured one.
        if deadlocks is None or deadlocks is False:
            self.deadlocks = None
        elif deadlocks is True:
            from repro.races import DeadlockDetector

            self.deadlocks = DeadlockDetector()
        else:
            self.deadlocks = deadlocks
        #: Optional replay sink: a ``DecisionRecorder`` (capture the
        #: decision stream) or ``DecisionReplayer`` (re-drive the run
        #: from a log).  See :mod:`repro.replay`.
        self.replay = replay
        #: Optional checkpointing: a ``CheckpointPolicy``, a cadence in
        #: cycles, or ``True`` for the default cadence.
        self._checkpoint_request = checkpoints
        self.checkpointer = None
        #: Variants replaced by the restart policy (kept for forensics).
        self.retired_vms: list[VariantVM] = []
        self._build()

    # -- bootstrap --------------------------------------------------------

    def _build(self) -> None:
        if self.monitor_kind == "strict":
            self.monitor = Monitor(self.variants, policy=self.policy,
                                   costs=self.costs)
        elif self.monitor_kind == "relaxed":
            self.monitor = RelaxedMonitor(self.variants, costs=self.costs)
        else:
            raise ValueError(
                f"unknown monitor kind {self.monitor_kind!r}")
        self.machine = Machine(cores=self.cores, seed=self.seed,
                               costs=self.costs, policy=self.sched_policy,
                               interceptor=self.monitor)
        if self.max_cycles is not None:
            self.machine.max_cycles = self.max_cycles
        layouts = layouts_for(self.diversity, self.variants)
        self._layouts = layouts
        self.vms: list[VariantVM] = []
        for index in range(self.variants):
            role = "master" if index == 0 else "slave"
            kernel = VirtualKernel(
                self.disk,
                network=self.network if index == 0 else None,
                bases=layouts[index], role=role, variant_index=index)
            vm = VariantVM(index=index, kernel=kernel,
                           record_trace=self.record_trace,
                           record_sync_trace=self.record_sync_trace)
            self.vms.append(vm)
            self.machine.add_vm(vm)
        apply_diversity(self.diversity, self.vms)
        self.agent_shared = inject_agents(
            self.vms, self.agent_name, costs=self.costs,
            instrument=self.instrument, **self.agent_options)
        if self.agent_shared is not None:
            self.agent_shared.bind_machine(self.machine)
        self.monitor.bind_machine(self.machine)
        if (self.monitor_kind == "strict"
                and self.policy.degradation == "restart"):
            self.monitor.set_restart_callback(self._restart_variant)
        self._attach_hooks()
        if self._checkpoint_request:
            self._attach_checkpoints()
        if self.network is not None:
            self.machine.attach_network(self.network)
        for vm in self.vms:
            ctx = build_context(vm, self.program)
            self.machine.add_thread(vm, "main", self.program.main(ctx))
        if self.traffic is not None:
            self.traffic(self.machine, self.network)

    def _attach_hooks(self) -> None:
        """Compile every optional consumer into the machine's hook table.

        Attach order is fan-out order: obs, its profiler, races,
        deadlocks, replay.  The monitor, orderer, agents, buffers and
        futex tables already share the table (``bind_machine`` /
        ``add_vm``), so this is the only wiring a consumer needs.  The
        one intrusive move is replay's: the scheduler RNG is wrapped
        (record) or substituted (replay) so every draw flows through
        the decision stream.
        """
        from repro.replay import RecordingRandom, ReplayRandom

        machine = self.machine
        obs = self.obs
        consumers = (obs, obs.prof if obs is not None else None,
                     self.races, self.deadlocks, self.replay)
        # The injector is bound like the rest, but it defines no
        # vocabulary event: its answers go through the one faults slot.
        for consumer in (*consumers, self.fault_injector):
            if consumer is None:
                continue
            if hasattr(consumer, "bind_clock"):
                consumer.bind_clock(lambda: machine.now)
            if obs is not None and hasattr(consumer, "bind_obs"):
                consumer.bind_obs(obs)
            machine.hooks.attach(consumer)
        machine.hooks.faults = self.fault_injector
        if self.deadlocks is not None:
            self.deadlocks.bind_machine(machine)
        if self.replay is not None:
            if self.replay.mode == "record":
                machine.rng = RecordingRandom(machine.rng, self.replay)
            elif self.replay.mode == "replay":
                machine.rng = ReplayRandom(self.replay, machine.rng)

    def _attach_checkpoints(self) -> None:
        """Attach a periodic checkpointer (watchdog lane, zero cycles)."""
        from repro.replay import Checkpointer, CheckpointPolicy

        request = self._checkpoint_request
        if isinstance(request, Checkpointer):
            checkpointer = request
        else:
            if isinstance(request, CheckpointPolicy):
                policy = request
            elif request is True:
                policy = CheckpointPolicy()
            else:
                policy = CheckpointPolicy(every_cycles=float(request))
            recorder = (self.replay
                        if (self.replay is not None
                            and self.replay.mode == "record") else None)
            checkpointer = Checkpointer(self, policy, recorder=recorder,
                                        obs=self.obs)
        self.checkpointer = checkpointer
        if hasattr(self.monitor, "checkpoints"):
            self.monitor.checkpoints = checkpointer.store
        checkpointer.arm()

    # -- restart ------------------------------------------------------------

    def _restart_variant(self, index: int) -> None:
        """Rebuild a quarantined slave and resync it from master history.

        The replacement gets a fresh kernel and the *same* deterministic
        diversity transforms (layout, noise factors) its predecessor had,
        a fresh agent attached to the retained shared sync state, and a
        fresh ``main`` thread.  The monitor re-admits it in catch-up
        mode: recorded calls are served from history, then it rejoins the
        live lockstep.
        """
        old = next(vm for vm in self.vms if vm.index == index)
        self.retired_vms.append(old)
        kernel = VirtualKernel(self.disk, network=None,
                               bases=self._layouts[index], role="slave",
                               variant_index=index)
        vm = VariantVM(index=index, kernel=kernel,
                       record_trace=self.record_trace,
                       record_sync_trace=self.record_sync_trace)
        vm.instrument = self.instrument
        apply_diversity(self.diversity, [vm])
        if self.agent_shared is not None and old.agent is not None:
            self.agent_shared.reset_variant(index)
            vm.agent = type(old.agent)(self.agent_shared, index)
        for position, existing in enumerate(self.vms):
            if existing.index == index:
                self.vms[position] = vm
                break
        self.machine.replace_vm(vm)
        self.monitor.readmit(index)
        ctx = build_context(vm, self.program)
        self.machine.add_thread(vm, "main", self.program.main(ctx))
        # Consumers drop the old incarnation's state here: stale clocks
        # or lock ownership would fabricate races and wait-for edges
        # against the replacement's fresh memory.
        for hook in self.machine.hooks.variant_restarted:
            hook(index)

    # -- run ----------------------------------------------------------------

    def run(self) -> MVEEOutcome:
        """Execute the variant set and return the verdict."""
        outcome = self.advance()
        assert outcome is not None
        return outcome

    def advance(self, max_events: int | None = None) -> MVEEOutcome | None:
        """Drive the run incrementally: process up to ``max_events``
        machine events and return the :class:`MVEEOutcome` once the run
        finishes, or ``None`` while it is still in flight.

        A budgeted sequence of ``advance`` calls yields the *same*
        outcome (verdict, cycles, observability stream) as one
        :meth:`run` — the machine pauses between events without
        perturbing the timeline.  This is the execution primitive behind
        ``repro.serve`` step-driven sessions.
        """
        try:
            report = self.machine.advance(max_events)
        except DivergenceError as exc:
            return self._outcome("divergence", None, exc.report)
        except DeadlockError as exc:
            return self._outcome("deadlock", None, None, deadlock=exc)
        if report is None:
            return None
        audit = self.monitor.finalize()
        if audit is not None:
            return self._outcome("divergence", report, audit)
        if getattr(self.monitor, "quarantine_log", None):
            return self._outcome("degraded", report, None)
        return self._outcome("clean", report, None)

    def _outcome(self, verdict, report, divergence,
                 deadlock=None) -> MVEEOutcome:
        quarantines = list(getattr(self.monitor, "quarantine_log", ()) or ())
        faults = (list(self.fault_injector.injected)
                  if self.fault_injector is not None else [])
        bundle = None
        # Forensics focus: the fatal divergence, or — for a degraded run
        # — the report behind the last quarantine.
        focus = divergence
        if focus is None and quarantines:
            focus = quarantines[-1].report
        # A guest deadlock has no divergence report, but the forensics
        # bundle still carries the wait-for cycle (hub.deadlock_log).
        if self.obs is not None and (focus is not None
                                     or verdict == "deadlock"):
            from repro.obs.forensics import capture_bundle

            bundle = capture_bundle(
                self.obs, focus, monitor=self.monitor,
                config={"seed": self.seed, "agent": self.agent_name,
                        "variants": self.variants,
                        "monitor": self.monitor_kind,
                        "cores": self.cores})
        return MVEEOutcome(
            verdict=verdict, report=report, divergence=divergence,
            disk=self.disk, vms=self.vms, monitor=self.monitor,
            agent_shared=self.agent_shared, machine=self.machine,
            deadlock=deadlock, obs=self.obs, obs_bundle=bundle,
            quarantines=quarantines, faults=faults,
            races=(self.races.report if self.races is not None
                   else None),
            deadlocks=(self.deadlocks.report
                       if self.deadlocks is not None else None))


def run_mvee(program: GuestProgram, **kwargs) -> MVEEOutcome:
    """Bootstrap and run an MVEE in one call (see :class:`MVEE`)."""
    return MVEE(program, **kwargs).run()
