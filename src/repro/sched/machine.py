"""The discrete-event simulator: a multi-core machine running variants.

One :class:`Machine` simulates the paper's testbed — a fixed number of
cores executing *all* threads of *all* variants side by side, exactly as
ReMon runs every variant on the same physical machine.  Threads advance in
steps: the machine resumes a thread's generator to learn its next event,
charges the event's duration (base cost + carried monitor/agent overhead +
jitter), and commits the event's semantic effect when the duration elapses.
Commits are atomic and totally ordered by simulated time, which gives
atomic instructions their semantics for free.

Interposition points:

* before/after every monitored syscall, the installed
  :class:`~repro.sched.interceptor.SyscallInterceptor` (the MVEE monitor)
  may park the thread, synthesize a result (replication), or kill the run
  (divergence);
* before/after every *instrumented* sync op, the variant's injected
  :class:`~repro.sched.interceptor.SyncAgent` may park the thread (replay
  ordering) and charges its buffer/contention costs;
* every optional observer (tracing, profiling, race and deadlock
  detection, record/replay) listens through one hook table,
  :attr:`Machine.hooks` (:mod:`repro.sched.hooks`), without moving the
  timeline; its ``faults`` slot holds the fault injector, if any.

Scheduling nondeterminism comes from the seeded policy plus per-step
duration jitter; the same seed always reproduces the same run.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.errors import DeadlockError, DivergenceError, GuestFault
from repro.kernel.kernel import Blocked
from repro.kernel.syscalls import spec_for
from repro.kernel.vtime import cycles_to_seconds
from repro.perf.contention import ContentionTracker, coherence_cycles
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.sched.events import (
    Annotate,
    Compute,
    Join,
    Spawn,
    SyncOp,
    Syscall,
)
from repro.sched.hooks import Hooks
from repro.sched.interceptor import Kill, Result, Wait
from repro.sched.scheduler import RandomPolicy, SchedulingPolicy
from repro.sched.thread import GuestThread, ThreadState
from repro.sched.vm import VariantVM

#: Default simulation budget: generous, but finite so livelocks surface.
DEFAULT_MAX_CYCLES = 5e12


@dataclass
class MachineReport:
    """Summary of one finished simulation."""

    cycles: float
    per_variant: dict[int, dict] = field(default_factory=dict)
    total_syscalls: int = 0
    total_sync_ops: int = 0

    @property
    def seconds(self) -> float:
        return cycles_to_seconds(self.cycles)


class Machine:
    """Discrete-event simulation of cores, threads, and interposition."""

    def __init__(self, cores: int = 16, seed: int = 0,
                 costs: CostModel | None = None,
                 policy: SchedulingPolicy | None = None,
                 interceptor=None,
                 max_cycles: float = DEFAULT_MAX_CYCLES):
        self.cores = cores
        self.costs = costs or DEFAULT_COSTS
        self.policy = policy or RandomPolicy()
        self.interceptor = interceptor
        self.max_cycles = max_cycles
        self.rng = random.Random(seed)
        self.now = 0.0
        self.vms: list[VariantVM] = []
        self._heap: list = []
        self._serial = 0
        self._ready: list[GuestThread] = []
        self._free_cores = cores
        self._parked: dict[tuple, list[GuestThread]] = {}
        self._external_waiters: dict[tuple, list] = {}
        self._threads_by_id: dict[str, GuestThread] = {}
        #: The exception that ends the run, raised after the current
        #: event commits: a divergence kill, else an unhandled guest
        #: fault, else a detected guest deadlock (in that precedence).
        self._flagged: Exception | None = None
        # Whether the initial dispatch has happened; lets advance() be
        # called repeatedly (incremental driving) without re-running the
        # bootstrap dispatch.
        self._started = False
        #: The optional observers (tracing, profiling, race and deadlock
        #: detection, record/replay, fault injection), compiled into one
        #: table.  Every futex table shares it from :meth:`add_vm`, and
        #: the monitor and agents from their ``bind_machine``; see
        #: :mod:`repro.sched.hooks`.
        self.hooks = Hooks()
        #: Application-level cache-line contention: every atomic access to
        #: a shared word pays coherence, in native runs and MVEE runs
        #: alike.  (Agent-added traffic is charged separately by the
        #: agents themselves.)
        self._line_contention = ContentionTracker()
        # Per-step dispatch caches: the duration and commit handlers for
        # each event type, resolved once instead of walking an
        # isinstance chain on every simulated step (the hottest lookups
        # in the simulator, measured via `repro bench`).  Pure lookup
        # refactor: the per-type arithmetic is unchanged, so timelines
        # stay bit-identical to the chained form.
        self._duration_dispatch = {
            Compute: self._duration_compute,
            SyncOp: self._duration_syncop,
            Syscall: self._duration_syscall,
            Spawn: self._duration_spawn,
            Join: self._duration_join,
            Annotate: self._duration_annotate,
        }
        self._commit_dispatch = {
            Compute: self._commit_compute,
            SyncOp: self._commit_syncop,
            Syscall: self._commit_syscall,
            Spawn: self._commit_spawn_fresh,
            Join: self._commit_join,
            Annotate: self._commit_annotate,
        }
        # Step-kind names for the step_committed hook (one dict lookup
        # per step, only when a consumer listens).
        self._event_kinds = {
            Compute: "compute",
            SyncOp: "syncop",
            Syscall: "syscall",
            Spawn: "spawn",
            Join: "join",
            Annotate: "annotate",
        }

    # -- setup ----------------------------------------------------------------

    def add_vm(self, vm: VariantVM) -> None:
        """Register a variant; wire its kernel clock to simulated time
        and its futex table to the hook table."""
        self.vms.append(vm)
        vm.kernel.clock.bind(lambda: self.now)
        vm.kernel.futexes.hooks = self.hooks

    def attach_network(self, network) -> None:
        """Let network activity wake parked threads and external actors."""
        network.bind_waker(self.wake_key)

    def add_thread(self, vm: VariantVM, logical_id: str, gen) -> GuestThread:
        """Create a guest thread in READY state."""
        thread = GuestThread(vm, logical_id, gen)
        vm.threads[logical_id] = thread
        self._threads_by_id[thread.global_id] = thread
        thread.ready_since = self.now
        self._ready.append(thread)
        for hook in self.hooks.thread_created:
            hook(vm.index, thread.global_id, logical_id)
        return thread

    # -- external actors (benchmark traffic drivers etc.) -----------------------

    def call_at(self, time_cycles: float, fn) -> None:
        """Run ``fn(machine)`` at the given simulated time."""
        self._push(max(time_cycles, self.now), "external", fn)

    def call_soon(self, fn) -> None:
        """Run ``fn(machine)`` at the current simulated time."""
        self._push(self.now, "external", fn)

    def wait_key_external(self, key: tuple, fn) -> None:
        """Run ``fn(machine)`` the next time ``key`` is woken."""
        self._external_waiters.setdefault(key, []).append(fn)

    def schedule_watchdog(self, time_cycles: float, fn) -> None:
        """Schedule a watchdog probe ``fn(machine, time)``.

        Unlike :meth:`call_at`, a probe does *not* advance the simulated
        clock and is exempt from the cycle budget: a probe that finds
        nothing wrong leaves the timeline byte-identical to a run
        without watchdogs.  A probe that fires must call
        :meth:`commit_time` itself to account for the waited-out
        deadline.
        """
        self._push(max(time_cycles, self.now), "watchdog", fn)

    def commit_time(self, time_cycles: float) -> None:
        """Advance the clock to a watchdog deadline that really elapsed."""
        if time_cycles > self.now:
            self.now = time_cycles

    # -- wakes ---------------------------------------------------------------------

    def wake_key(self, key: tuple) -> None:
        """Wake every thread and external actor parked on ``key``."""
        threads = self._parked.pop(key, None)
        if threads:
            for thread in threads:
                self._unpark(thread)
        externals = self._external_waiters.pop(key, None)
        if externals:
            for fn in externals:
                self._push(self.now, "external", fn)

    def has_waiters(self, key: tuple) -> bool:
        """Whether any thread is currently parked on ``key``."""
        return bool(self._parked.get(key))

    def wake_thread(self, global_id: str) -> None:
        """Wake one specific parked thread (futex wake path)."""
        thread = self._threads_by_id.get(global_id)
        if thread is None or thread.state is not ThreadState.BLOCKED:
            return
        key = thread.park_key
        if key is not None and key in self._parked:
            waiting = self._parked[key]
            if thread in waiting:
                waiting.remove(thread)
                if not waiting:
                    del self._parked[key]
        self._unpark(thread)

    def _unpark(self, thread: GuestThread) -> None:
        if not thread.alive:
            return
        thread.state = ThreadState.READY
        thread.stats.stall_cycles += self.now - thread.park_time
        thread.park_key = None
        thread.ready_since = self.now
        self._ready.append(thread)
        for hook in self.hooks.unpark:
            hook(thread.vm.index, thread.global_id, thread.logical_id)

    # -- main loop -------------------------------------------------------------------

    def run(self) -> MachineReport:
        """Simulate until all threads finish.

        Raises :class:`DivergenceError` if the monitor killed the run,
        :class:`GuestFault` for unhandled native faults, and
        :class:`DeadlockError` when no progress is possible.
        """
        return self.advance()

    def advance(self, max_events: int | None = None) -> MachineReport | None:
        """Process up to ``max_events`` pending events, then pause.

        ``None`` (the default) runs to completion — exactly
        :meth:`run`.  With a budget, the machine returns ``None`` when
        the budget is exhausted but the simulation has not finished;
        calling :meth:`advance` again resumes *exactly* where it
        stopped, so a budgeted sequence of calls produces a timeline
        bit-identical to one unbudgeted :meth:`run` (the property
        ``repro.serve`` sessions rely on).  Exceptions propagate at the
        same event they would under :meth:`run`.
        """
        if not self._started:
            self._started = True
            self._dispatch()
            if self._flagged is not None:
                raise self._flagged
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                return None
            processed += 1
            time, _, kind, payload = heapq.heappop(self._heap)
            if kind == "watchdog":
                # Probes neither advance the clock nor count against the
                # budget; a firing probe commits its own time.
                payload(self, time)
                if self._flagged is not None:
                    raise self._flagged
                self._dispatch()
                if self._flagged is not None:
                    raise self._flagged
                continue
            if time > self.max_cycles:
                raise DeadlockError(
                    f"simulation budget exceeded at {time:.0f} cycles "
                    "(possible livelock)",
                    blocked=self._blocked_summary())
            self.now = time
            if kind == "step_done":
                thread, started = payload
                if thread.alive and thread.state is ThreadState.RUNNING:
                    duration = self.now - started
                    thread.stats.busy_cycles += duration
                    thread.burst_cycles += duration
                    step_hooks = self.hooks.step_committed
                    if step_hooks:
                        # park_resume is still set for mid-event resumes,
                        # so a consumer can attribute the recheck to the
                        # wait that caused it.
                        step_kind = (
                            "resume" if thread.park_resume is not None
                            else self._event_kinds[
                                type(thread.pending_event)])
                        for hook in step_hooks:
                            hook(thread.vm.index, thread.global_id,
                                 thread.logical_id, step_kind, duration)
                    self._commit_step(thread)
            elif kind == "external":
                payload(self)
            elif kind == "timer_wake":
                thread, key = payload
                if (thread.state is ThreadState.BLOCKED
                        and thread.park_key == key):
                    waiting = self._parked.get(key)
                    if waiting and thread in waiting:
                        waiting.remove(thread)
                        if not waiting:
                            del self._parked[key]
                    self._unpark(thread)
            if self._flagged is not None:
                raise self._flagged
            self._dispatch()
            if self._flagged is not None:
                raise self._flagged
        alive = [t for t in self._threads_by_id.values() if t.alive]
        if alive:
            raise DeadlockError(
                f"{len(alive)} thread(s) blocked with no pending events",
                blocked=self._blocked_summary())
        return self._report()

    def flag_guest_deadlock(self, record) -> None:
        """Sticky-flag a detected guest deadlock (raised after the
        current event commits, like divergences and faults).

        ``record`` is a :class:`repro.races.deadlock.DeadlockRecord`; it
        rides on the raised :class:`DeadlockError` as ``.record`` so the
        MVEE can name the cycle in the outcome and forensics bundle.
        """
        if self._flagged is not None:
            return
        error = DeadlockError(
            f"guest deadlock: {record.cycle_name()} "
            f"(variant {record.variant})",
            blocked=self._blocked_summary())
        error.record = record
        self._flagged = error

    def _blocked_summary(self) -> list[str]:
        return [f"{t.global_id} waiting on {t.park_key}"
                for t in self._threads_by_id.values()
                if t.state is ThreadState.BLOCKED]

    def _report(self) -> MachineReport:
        report = MachineReport(cycles=self.now)
        for vm in self.vms:
            busy = sum(t.stats.busy_cycles for t in vm.threads.values())
            stall = sum(t.stats.stall_cycles for t in vm.threads.values())
            queue = sum(t.stats.queue_cycles for t in vm.threads.values())
            vm.total_busy_cycles = busy
            vm.total_stall_cycles = stall
            report.per_variant[vm.index] = {
                "busy_cycles": busy,
                "stall_cycles": stall,
                "queue_cycles": queue,
                "syscalls": vm.total_syscalls,
                "sync_ops": vm.total_sync_ops,
            }
            report.total_syscalls += vm.total_syscalls
            report.total_sync_ops += vm.total_sync_ops
        return report

    # -- scheduling ------------------------------------------------------------------------

    def _push(self, time: float, kind: str, payload) -> None:
        self._serial += 1
        heapq.heappush(self._heap, (time, self._serial, kind, payload))

    def _dispatch(self) -> None:
        while self._free_cores > 0 and self._ready:
            index = self.policy.pick(self._ready, self.rng)
            thread = self._ready.pop(index)
            if not thread.alive:
                continue
            thread.stats.queue_cycles += self.now - thread.ready_since
            thread.state = ThreadState.RUNNING
            for hook in self.hooks.sched_grant:
                hook(thread.vm.index, thread.logical_id)
            thread.burst_cycles = 0.0
            thread.burst_quantum = (self.costs.preempt_quantum
                                    * self.policy.quantum_scale(self.rng))
            self._free_cores -= 1
            if thread.park_resume is not None:
                # Mid-event resume: charge the carried cost, do not touch
                # the generator.
                duration = thread.take_carried_cost() + 1.0
                self._push(self.now + duration, "step_done",
                           (thread, self.now))
            else:
                self._begin_step(thread)

    def _release_core(self) -> None:
        self._free_cores += 1

    def _park(self, thread: GuestThread, key: tuple, resume: tuple) -> None:
        thread.state = ThreadState.BLOCKED
        thread.park_key = key
        thread.park_resume = resume
        thread.park_time = self.now
        self._parked.setdefault(key, []).append(thread)
        self._release_core()
        for hook in self.hooks.park:
            hook(thread.vm.index, thread.global_id, thread.logical_id, key)

    # -- stepping ----------------------------------------------------------------------------

    def _begin_step(self, thread: GuestThread) -> None:
        """Resume the generator to learn the next event; schedule commit."""
        try:
            event = thread.gen.send(thread.inbox)
        except StopIteration as stop:
            self._finish_thread(thread, stop.value)
            return
        except GuestFault as fault:
            self._handle_fault(thread, fault)
            return
        thread.inbox = None
        thread.pending_event = event
        duration_fn = self._duration_dispatch.get(type(event))
        if duration_fn is None:
            raise TypeError(f"guest yielded a non-event: {event!r}")
        duration = duration_fn(thread, event)
        duration += thread.take_carried_cost()
        jitter = self.costs.compute_jitter
        if jitter:
            duration *= 1.0 + self.rng.uniform(-jitter, jitter)
        self._push(self.now + max(duration, 1.0), "step_done",
                   (thread, self.now))

    # Per-type duration handlers (dispatched via _duration_dispatch).
    # Each also accounts the event's deterministic logical progress —
    # what a performance counter would report, scaled by diversity's
    # instruction_factor; no jitter.

    def _duration_compute(self, thread: GuestThread, event) -> float:
        factor = thread.vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += event.cycles * factor
        thread.stats.compute_events += 1
        return max(event.cycles * thread.vm.compute_scale, 1.0)

    def _duration_syncop(self, thread: GuestThread, event) -> float:
        costs = self.costs
        vm = thread.vm
        factor = vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += 1.0 * factor
        duration = costs.sync_op_exec
        # The application's own contention on the sync variable's
        # cache line (per variant; granule-level like real lines).
        sharers = self._line_contention.access(
            (vm.index, event.addr >> 6), thread.global_id)
        duration += coherence_cycles(costs, sharers)
        agent = vm.agent
        if agent is not None and vm.is_instrumented(event.site):
            duration += costs.agent_wrapper
        else:
            agent = None
        thread.sync_agent = agent
        return duration

    def _duration_syscall(self, thread: GuestThread, event) -> float:
        factor = thread.vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += 10.0 * factor
        return self.costs.syscall_base

    def _duration_spawn(self, thread: GuestThread, event) -> float:
        factor = thread.vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += 10.0 * factor
        return self.costs.syscall_base + self.costs.clone_cost

    def _duration_join(self, thread: GuestThread, event) -> float:
        factor = thread.vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += 10.0 * factor
        return self.costs.syscall_base

    def _duration_annotate(self, thread: GuestThread, event) -> float:
        factor = thread.vm.instruction_factor_for(thread.logical_id)
        thread.stats.logical_instructions += 10.0 * factor
        return 1.0

    def _commit_step(self, thread: GuestThread) -> None:
        resume = thread.park_resume
        if resume is not None:
            thread.park_resume = None
            kind = resume[0]
            if kind == "recheck_syncop":
                self._commit_syncop(thread, resume[1])
            elif kind == "reask_syscall":
                self._commit_syscall(thread, resume[1])
            elif kind == "retry_kernel":
                self._execute_kernel(thread, resume[1])
            elif kind == "deliver":
                thread.inbox = resume[1]
                self._after_step(thread)
            elif kind == "deliver_syscall":
                self._finish_syscall(thread, resume[1], resume[2])
            elif kind == "respawn":
                self._commit_spawn(thread, resume[1], resume[2])
            elif kind == "rejoin":
                self._commit_join(thread, resume[1])
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown resume kind {kind}")
            return
        event = thread.pending_event
        commit_fn = self._commit_dispatch.get(type(event))
        if commit_fn is not None:
            commit_fn(thread, event)

    def _commit_compute(self, thread: GuestThread, event: Compute) -> None:
        thread.inbox = None
        self._after_step(thread)

    def _commit_spawn_fresh(self, thread: GuestThread,
                            event: Spawn) -> None:
        self._commit_spawn(thread, event, None)

    def _commit_annotate(self, thread: GuestThread,
                         event: Annotate) -> None:
        thread.inbox = None
        self._after_step(thread)

    def _after_step(self, thread: GuestThread, force_yield: bool = False) -> None:
        """Thread finished an event; keep the core or yield it."""
        if not thread.alive:
            return
        if self._ready and (force_yield
                            or thread.burst_cycles >= thread.burst_quantum):
            thread.state = ThreadState.READY
            thread.ready_since = self.now
            self._ready.append(thread)
            self._release_core()
        else:
            self._begin_step(thread)

    # -- sync ops ---------------------------------------------------------------------------------

    def _commit_syncop(self, thread: GuestThread, event: SyncOp) -> None:
        vm = thread.vm
        agent = thread.sync_agent
        if agent is not None:
            outcome = agent.before_sync_op(vm, thread, event)
            if isinstance(outcome, Wait):
                thread.carry_cost(outcome.cost
                                  + self.costs.ordering_wait_recheck)
                self._park(thread, outcome.key, ("recheck_syncop", event))
                return
            thread.carry_cost(outcome.cost)
        value = self._apply_syncop(vm, event)
        for hook in self.hooks.sync_op:
            hook(vm, thread, event, value)
        thread.stats.sync_ops += 1
        vm.total_sync_ops += 1
        if agent is not None:
            thread.carry_cost(agent.after_sync_op(vm, thread, event, value))
        thread.inbox = value
        self._after_step(thread)

    @staticmethod
    def _apply_syncop(vm: VariantVM, event: SyncOp):
        """Atomically apply the op to variant memory at commit time."""
        space = vm.kernel.addr_space
        op = event.op
        if op == "cas":
            expected, new = event.args
            old = space.load(event.addr)
            if old == expected:
                space.store(event.addr, new)
            return old
        if op == "xchg":
            (new,) = event.args
            old = space.load(event.addr)
            space.store(event.addr, new)
            return old
        if op == "fetch_add":
            (delta,) = event.args
            old = space.load(event.addr)
            space.store(event.addr, old + delta)
            return old
        if op == "load":
            return space.load(event.addr)
        if op == "store":
            (value,) = event.args
            space.store(event.addr, value)
            return None
        raise TypeError(f"unknown sync op {op!r}")

    # -- syscalls -----------------------------------------------------------------------------------

    def _commit_syscall(self, thread: GuestThread, event: Syscall) -> None:
        vm = thread.vm
        spec = spec_for(event.name)
        faults = self.hooks.faults
        if faults and not spec.unmonitored:
            spec_hit = faults.check_syscall(
                vm.index, thread.logical_id, event.name, vm.total_syscalls)
            if spec_hit is not None:
                if spec_hit.kind == "crash":
                    self._handle_fault(thread, GuestFault(
                        f"injected crash entering {event.name!r}",
                        variant=vm.index, thread=thread.logical_id))
                    return
                # "stall": the call never returns — park on a key that
                # nothing ever wakes (the watchdog's raison d'être).
                self._park(thread, ("fault_stall", thread.global_id),
                           ("reask_syscall", event))
                return
        if self.interceptor is not None and not spec.unmonitored:
            directive = self.interceptor.before_syscall(
                vm, thread, event.name, event.args)
            if isinstance(directive, Kill):
                self._kill_all(directive.report)
                return
            if not thread.alive:
                # The monitor quarantined this thread's own variant
                # while handling the call; the event dies with it.
                return
            if isinstance(directive, Wait):
                thread.carry_cost(directive.cost)
                self._park(thread, directive.key, ("reask_syscall", event))
                return
            if isinstance(directive, Result):
                thread.carry_cost(directive.cost)
                self._record_syscall(vm, thread, event, directive.value)
                thread.inbox = directive.value
                self._after_step(thread)
                return
            thread.carry_cost(directive.cost)
        self._execute_kernel(thread, event)

    def _execute_kernel(self, thread: GuestThread, event: Syscall) -> None:
        vm = thread.vm
        try:
            outcome = vm.kernel.execute(event.name, event.args,
                                        thread.global_id)
        except GuestFault as fault:
            self._handle_fault(thread, fault)
            return
        self._drain_kernel_wakeups(vm)
        if isinstance(outcome, Blocked):
            if outcome.timeout_cycles is not None:
                self._push(self.now + outcome.timeout_cycles, "timer_wake",
                           (thread, outcome.wait_key))
            resume = (("retry_kernel", event) if outcome.retry
                      else ("deliver_syscall", event, outcome.wake_result))
            self._park(thread, outcome.wait_key, resume)
            return
        if (isinstance(outcome, tuple) and outcome
                and outcome[0] == "exit_group"):
            self._exit_group(vm, outcome[1])
            return
        self._finish_syscall(thread, event, outcome)

    def _finish_syscall(self, thread: GuestThread, event: Syscall,
                        outcome) -> None:
        """Record, run the after-hook, and deliver a syscall result."""
        vm = thread.vm
        spec = spec_for(event.name)
        self._record_syscall(vm, thread, event, outcome, spec=spec)
        if self.interceptor is not None and not spec.unmonitored:
            after = self.interceptor.after_syscall(
                vm, thread, event.name, event.args, outcome)
            if isinstance(after, Kill):
                self._kill_all(after.report)
                return
            if not thread.alive:
                return
            thread.carry_cost(after.cost)
        thread.inbox = outcome
        self._after_step(thread,
                         force_yield=(event.name == "sched_yield"))

    def _drain_kernel_wakeups(self, vm: VariantVM) -> None:
        wakeups, vm.kernel.pending_wakeups = vm.kernel.pending_wakeups, []
        for kind, target in wakeups:
            if kind == "key":
                self.wake_key(target)
            else:
                self.wake_thread(target)

    def _record_syscall(self, vm: VariantVM, thread: GuestThread,
                        event: Syscall, result, spec=None) -> None:
        if spec is None:
            spec = spec_for(event.name)
        if spec.unmonitored:
            # sched_yield & co: scheduling noise, not Table 2 traffic.
            return
        thread.stats.syscalls += 1
        vm.total_syscalls += 1
        for hook in self.hooks.syscall:
            hook(vm, thread, event, result)

    # -- spawn / join / exit -----------------------------------------------------------------------------

    def _commit_spawn(self, thread: GuestThread, event: Spawn,
                      child_id: str | None) -> None:
        vm = thread.vm
        if child_id is None:
            child_id = (event.name if event.name is not None
                        else thread.next_child_id())
        if self.interceptor is not None:
            directive = self.interceptor.before_syscall(
                vm, thread, "clone", (child_id,))
            if isinstance(directive, Kill):
                self._kill_all(directive.report)
                return
            if not thread.alive:
                return
            if isinstance(directive, Wait):
                thread.carry_cost(directive.cost)
                self._park(thread, directive.key,
                           ("respawn", event, child_id))
                return
            thread.carry_cost(getattr(directive, "cost", 0.0))
        gen = event.fn(*event.args)
        child = self.add_thread(vm, child_id, gen)
        for hook in self.hooks.spawn:
            hook(thread, child)
        self._record_syscall(vm, thread, Syscall("clone", (child_id,)),
                             child_id)
        if self.interceptor is not None:
            after = self.interceptor.after_syscall(
                vm, thread, "clone", (child_id,), child_id)
            if isinstance(after, Kill):
                self._kill_all(after.report)
                return
            if not thread.alive:
                return
            thread.carry_cost(after.cost)
        thread.inbox = child_id
        self._after_step(thread)

    def _commit_join(self, thread: GuestThread, event: Join) -> None:
        vm = thread.vm
        target = vm.threads.get(event.tid)
        if target is None:
            self._handle_fault(
                thread, GuestFault(f"join on unknown thread {event.tid!r}",
                                   variant=vm.index,
                                   thread=thread.logical_id))
            return
        if target.state is ThreadState.DONE:
            for hook in self.hooks.join:
                hook(thread, target)
            thread.inbox = target.result
            self._after_step(thread)
            return
        self._park(thread, ("join", vm.index, event.tid), ("rejoin", event))
        if vm.agent is not None:
            vm.agent.on_thread_descheduled(vm, thread)

    def _finish_thread(self, thread: GuestThread, value) -> None:
        thread.result = value
        thread.terminate(ThreadState.DONE)
        thread.pending_event = None
        for hook in self.hooks.thread_finished:
            hook(thread.vm.index, thread.global_id, thread.logical_id)
        if self.interceptor is not None:
            self.interceptor.on_thread_exit(thread.vm, thread)
        if thread.vm.agent is not None:
            thread.vm.agent.on_thread_descheduled(thread.vm, thread)
        self._release_core()
        self.wake_key(("join", thread.vm.index, thread.logical_id))

    def _exit_group(self, vm: VariantVM, code: int) -> None:
        """Terminate every thread of one variant (exit_group)."""
        for other in vm.threads.values():
            if other.alive:
                if other.state is ThreadState.RUNNING:
                    self._release_core()
                elif other.state is ThreadState.BLOCKED:
                    self._remove_parked(other)
                elif other.state is ThreadState.READY:
                    if other in self._ready:
                        self._ready.remove(other)
                other.terminate(ThreadState.DONE)
                other.result = code
                self.wake_key(("join", vm.index, other.logical_id))

    def _remove_parked(self, thread: GuestThread) -> None:
        key = thread.park_key
        if key is not None and key in self._parked:
            waiting = self._parked[key]
            if thread in waiting:
                waiting.remove(thread)
                if not waiting:
                    del self._parked[key]
        thread.park_key = None

    # -- faults and kills --------------------------------------------------------------------------------------

    def _handle_fault(self, thread: GuestThread, fault: GuestFault) -> None:
        fault.variant = thread.vm.index
        fault.thread = thread.logical_id
        thread.terminate(ThreadState.KILLED)
        self._release_core()
        if self.interceptor is not None:
            directive = self.interceptor.on_fault(thread.vm, thread, fault)
            if isinstance(directive, Kill):
                self._kill_all(directive.report)
                return
            # Monitor tolerated the fault: the thread dies alone.
            self.wake_key(("join", thread.vm.index, thread.logical_id))
            return
        if not isinstance(self._flagged, DivergenceError):
            self._flagged = fault

    def terminate_variant(self, variant_index: int) -> None:
        """Quarantine support: kill every thread of one variant without
        exit callbacks (the variant is demoted, not exiting cleanly)."""
        vm = next((v for v in self.vms if v.index == variant_index), None)
        if vm is None:  # pragma: no cover - defensive
            return
        vm.killed = True
        vm.quarantined = True
        for thread in vm.threads.values():
            if not thread.alive:
                continue
            if thread.state is ThreadState.RUNNING:
                self._release_core()
            elif thread.state is ThreadState.BLOCKED:
                self._remove_parked(thread)
            elif thread.state is ThreadState.READY:
                if thread in self._ready:
                    self._ready.remove(thread)
            thread.terminate(ThreadState.KILLED)
        agent_shared = getattr(vm.agent, "shared", None)
        if agent_shared is not None:
            # A demoted slave stops consuming the sync logs; ring-buffer
            # backpressure must not wait on it.
            agent_shared.retire_variant(vm.index)

    def replace_vm(self, vm: VariantVM) -> None:
        """Restart support: swap a rebuilt variant in at its old index."""
        for position, old in enumerate(self.vms):
            if old.index == vm.index:
                self.vms[position] = vm
                break
        vm.kernel.clock.bind(lambda: self.now)
        vm.kernel.futexes.hooks = self.hooks

    def kill_all(self, report) -> None:
        """Externally triggered kill (e.g. a watchdog timeout verdict)."""
        self._kill_all(report)

    def _kill_all(self, report) -> None:
        """Divergence: terminate every variant (the MVEE's response)."""
        self._flagged = DivergenceError(report)
        for hook in self.hooks.divergence:
            hook(report)
        for vm in self.vms:
            vm.killed = True
            for thread in vm.threads.values():
                if thread.alive:
                    thread.terminate(ThreadState.KILLED)
        self._heap.clear()
        self._ready.clear()
        self._parked.clear()
        self._free_cores = self.cores
