"""Runs: the native baseline, the run spec, the one MVEE builder and
the one sweep cell.

The paper measures every configuration against its own unprotected
native execution (§6).  This module owns that baseline
(:func:`run_native`, memoized by :func:`native_cycles`), the JSON-safe
:class:`RunSpec` that the serve daemon journals, a decision log carries
and the CLI assembles, :func:`build_mvee` — the only code that turns a
spec into an MVEE, so no two front ends can drift apart — and
:func:`run_spec_cell`, the cell of every spec-shaped sweep.

Import direction: this module depends on the simulator and never on
``serve``, ``replay``, ``experiments``, ``par`` or ``cli``; those all
build through it.
"""

from __future__ import annotations

import json
import time
from dataclasses import astuple, dataclass, field, replace

# The native-baseline imports come first: importing ``repro.sched``
# before ``repro.kernel`` is the order their package inits need.
from repro.guest.program import GuestProgram, build_context
from repro.kernel.fs import VirtualDisk
from repro.kernel.kernel import VirtualKernel
from repro.kernel.net import Network
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.sched.machine import Machine, MachineReport
from repro.sched.scheduler import SchedulingPolicy
from repro.sched.vm import VariantVM

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import MVEE
from repro.errors import BadRequest, ConfigError
from repro.faults import DEGRADATION_POLICIES, parse_fault_plan
from repro.workloads.nginx import (
    NginxConfig,
    NginxServer,
    TrafficStats,
    make_traffic,
)
from repro.workloads.spec import ALL_SPECS
from repro.workloads.synthetic import make_benchmark

#: The paper's machine: dual-socket E5-2660, 16 physical cores (HT off).
PAPER_CORES = 16

AGENT_NAMES = ("none", "total_order", "partial_order", "wall_of_clocks",
               "dmt")

#: Cycle budget of an nginx run (it has no native baseline).
NGINX_MAX_CYCLES = 5e9

#: Default checkpoint cadence under ``resync_mode="checkpoint"``: this
#: many snapshots per native runtime.
CHECKPOINTS_PER_NATIVE = 64

#: Default nginx sizing: short enough that a run completes in
#: milliseconds, long enough to exercise the acceptor pool and produce
#: non-trivial sync traffic.  ``RunSpec.params`` overrides it per field.
SHORT_NGINX = {"pool_threads": 2, "connections": 2,
               "requests_per_connection": 1, "work_cycles": 5000.0}

#: The §5.5 server sizing, passed as ``RunSpec.params`` by the race
#: sweep and ``repro profile nginx``: enough pool threads, connections
#: and requests for the custom primitives to race.
NGINX_PAPER_SIZING = {"pool_threads": 8, "connections": 6,
                      "requests_per_connection": 3,
                      "work_cycles": 20_000.0}

#: Cost model of every nginx run: low monitor overhead keeps the runs
#: quick while preserving every ordering decision.
NGINX_COSTS = CostModel(monitor_syscall_overhead=2_000.0,
                        preempt_quantum=20_000.0)

#: The only :class:`MVEE` keywords :func:`build_mvee` passes through;
#: everything else about a run comes from its spec.
MVEE_KEYWORDS = frozenset((
    "obs", "replay", "checkpoints", "races", "deadlocks", "diversity",
    "instrument", "cores", "costs", "agent_options", "record_trace",
    "record_sync_trace"))


@dataclass
class NativeResult:
    """Everything a test or bench needs from a native run."""

    report: MachineReport
    disk: VirtualDisk
    vm: VariantVM
    machine: Machine

    @property
    def cycles(self) -> float:
        return self.report.cycles

    @property
    def stdout(self) -> str:
        return self.disk.stream_text("stdout")


def run_native(program: GuestProgram, *, seed: int = 0, cores: int = 16,
               costs: CostModel | None = None,
               policy: SchedulingPolicy | None = None,
               disk: VirtualDisk | None = None,
               network: Network | None = None,
               record_trace: bool = False,
               traffic=None,
               max_cycles: float | None = None) -> NativeResult:
    """Run ``program`` natively and return its result.

    ``traffic`` is an optional callable ``(machine, network) -> None``
    that schedules external client activity (the nginx benchmarks).
    """
    disk = disk if disk is not None else VirtualDisk()
    kernel = VirtualKernel(disk, network=network, role="native")
    vm = VariantVM(index=0, kernel=kernel, record_trace=record_trace)
    machine = Machine(cores=cores, seed=seed, costs=costs, policy=policy)
    if max_cycles is not None:
        machine.max_cycles = max_cycles
    machine.add_vm(vm)
    if network is not None:
        machine.attach_network(network)
    ctx = build_context(vm, program)
    machine.add_thread(vm, "main", program.main(ctx))
    if traffic is not None:
        traffic(machine, network)
    report = machine.run()
    return NativeResult(report=report, disk=disk, vm=vm, machine=machine)


_native_cache: dict[tuple, float] = {}


def reset_caches() -> None:
    """Drop the per-process memo caches: native runtimes
    (:func:`native_cycles`) and spec cells (:func:`run_spec_cell`).

    The ``repro bench`` harness calls this between its timed phases so
    neither phase rides the other's warm cache; tests use it to force
    re-simulation."""
    _native_cache.clear()
    _cell_cache.clear()


def native_cycles(benchmark: str, scale: float = 1.0, seed: int = 1,
                  cores: int = PAPER_CORES,
                  costs: CostModel | None = None) -> float:
    """Native (unprotected) runtime of a benchmark slice, memoized.

    The cache is keyed on every input, the cost model by field values,
    so equal configurations share one native run per process.
    """
    key = (benchmark, scale, seed, cores, astuple(costs or DEFAULT_COSTS))
    cached = _native_cache.get(key)
    if cached is None:
        result = run_native(make_benchmark(benchmark, scale=scale),
                            seed=seed, cores=cores, costs=costs)
        cached = result.report.cycles
        _native_cache[key] = cached
    return cached


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_workload(name) -> None:
    if not isinstance(name, str) or (name != "nginx"
                                     and name not in ALL_SPECS):
        raise BadRequest(f"unknown workload {name!r} "
                         "(see the 'workloads' op or 'repro list')")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)build one run's MVEE, JSON-safe.

    The spec is the unit of persistence: the serve registry journals
    it, a decision log carries it in its header, and the batch path
    pickles it into a worker.  Rebuilding from the same spec reproduces
    the same simulated timeline (seeded determinism), which is what
    makes replay and quarantine-resume converge to the original result.
    """

    workload: str
    agent: str = "wall_of_clocks"
    variants: int = 2
    seed: int = 1
    scale: float = 0.25
    #: Fault plan text as accepted by ``repro run --faults`` (None = no
    #: faults); stored as text and re-parsed so it journals as JSON.
    faults: str | None = None
    fault_seed: int = 0
    policy: str = "kill-all"
    watchdog: float | None = None
    race_detect: bool = False
    #: Restart resync strategy: "history" or "checkpoint" (the latter
    #: gets a checkpointer; see MonitorPolicy.resync_mode).
    resync_mode: str = "history"
    #: Workload-specific overrides (nginx: pool_threads, connections,
    #: requests_per_connection, work_cycles).
    params: dict = field(default_factory=dict)
    #: Host trace-context wire dict (``repro.telemetry``): set by the
    #: daemon from the creating request, journaled with the spec, and
    #: pickled into batch workers — so a session's host spans (even
    #: after a daemon crash + resume) carry the original trace_id.
    #: Never a simulated quantity; ``None`` keeps pre-telemetry specs
    #: byte-identical on the wire and in the journal.
    trace: dict | None = None

    def validate(self) -> "RunSpec":
        """Reject a malformed spec with a typed :class:`BadRequest`."""
        _check_workload(self.workload)
        for name in ("variants", "seed", "fault_seed"):
            if not _is_int(getattr(self, name)):
                raise BadRequest(f"{name} must be an integer")
        if not _is_real(self.scale):
            raise BadRequest("scale must be a number")
        if self.watchdog is not None and not _is_real(self.watchdog):
            raise BadRequest("watchdog must be a number (or omitted)")
        if not isinstance(self.race_detect, bool):
            raise BadRequest("race_detect must be true or false")
        if self.agent not in AGENT_NAMES:
            raise BadRequest(f"unknown agent {self.agent!r}; expected "
                             "one of " + ", ".join(AGENT_NAMES))
        if self.policy not in DEGRADATION_POLICIES:
            raise BadRequest(f"unknown policy {self.policy!r}; expected "
                             "one of " + ", ".join(DEGRADATION_POLICIES))
        if self.resync_mode not in ("history", "checkpoint"):
            raise BadRequest(f"unknown resync_mode "
                             f"{self.resync_mode!r}; expected 'history' "
                             "or 'checkpoint'")
        if not 2 <= self.variants <= 16:
            raise BadRequest("variants must be between 2 and 16 "
                             "(an MVEE needs at least two)")
        if not 0.001 <= self.scale <= 4.0:
            raise BadRequest("scale must be between 0.001 and 4.0")
        if self.faults is not None:
            if not isinstance(self.faults, str):
                raise BadRequest("faults must be a fault-plan string")
            try:
                parse_fault_plan(self.faults, seed=self.fault_seed,
                                 n_variants=self.variants)
            except ConfigError as exc:
                raise BadRequest(f"bad fault plan: {exc}") from None
        if not isinstance(self.params, dict):
            raise BadRequest("params must be an object")
        if self.trace is not None and not isinstance(self.trace, dict):
            raise BadRequest("trace must be an object (or omitted)")
        return self

    def to_dict(self) -> dict:
        data = {"workload": self.workload, "agent": self.agent,
                "variants": self.variants, "seed": self.seed,
                "scale": self.scale, "faults": self.faults,
                "fault_seed": self.fault_seed, "policy": self.policy,
                "watchdog": self.watchdog,
                "race_detect": self.race_detect,
                "resync_mode": self.resync_mode,
                "params": dict(self.params)}
        if self.trace is not None:
            data["trace"] = dict(self.trace)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise BadRequest("spec must be a JSON object")
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise BadRequest("unknown spec field(s): "
                             + ", ".join(sorted(extra)))
        if "workload" not in data:
            raise BadRequest("spec needs a 'workload' field")
        try:
            return cls(**data)
        except TypeError as exc:
            raise BadRequest(f"bad spec: {exc}") from None


def build_mvee(spec: RunSpec, **mvee_keywords):
    """Build the MVEE a spec describes; returns ``(mvee, native)``.

    ``native`` is the benchmark twin's native runtime (``None`` for
    nginx, which has no baseline).  The spec decides the run; the
    keywords only attach what a caller observes or overrides, and must
    be :class:`MVEE` keywords listed in :data:`MVEE_KEYWORDS`.  Decided
    here and nowhere else:

    * the cycle budget: 400 times the native runtime, computed with the
      run's cores and costs (nginx: ``NGINX_MAX_CYCLES``) — far past
      any lockstep slowdown, so only a wedged run hits it;
    * agent ``"none"`` means no agent;
    * the :class:`MonitorPolicy` and the parsed fault plan;
    * nginx: :data:`SHORT_NGINX` sizing under ``spec.params``,
      :data:`NGINX_COSTS` unless ``costs`` is given, network and
      traffic;
    * ``resync_mode="checkpoint"`` without a ``checkpoints`` keyword
      checkpoints every ``native / CHECKPOINTS_PER_NATIVE`` cycles
      (pass ``checkpoints=False`` to attach none).

    The spec is not validated here; callers taking untrusted input call
    :meth:`RunSpec.validate` first.
    """
    unknown = set(mvee_keywords) - MVEE_KEYWORDS
    if unknown:
        raise TypeError("build_mvee got non-MVEE keyword(s): "
                        + ", ".join(sorted(unknown)))
    _check_workload(spec.workload)
    keywords = dict(mvee_keywords)
    if keywords.get("races") is None:
        keywords["races"] = spec.race_detect
    if spec.faults is not None:
        keywords["faults"] = parse_fault_plan(
            spec.faults, seed=spec.fault_seed, n_variants=spec.variants)
    if spec.workload == "nginx":
        try:
            config = NginxConfig(**{**SHORT_NGINX, **spec.params})
        except TypeError as exc:
            raise BadRequest(f"bad nginx params: {exc}") from None
        if keywords.get("costs") is None:
            keywords["costs"] = NGINX_COSTS
        program = NginxServer(config)
        native = None
        keywords.update(with_network=True,
                        traffic=make_traffic(config, 0.0, TrafficStats()),
                        max_cycles=NGINX_MAX_CYCLES)
    else:
        if spec.params:
            raise BadRequest("params are only accepted for the nginx "
                             "workload")
        program = make_benchmark(spec.workload, scale=spec.scale)
        native = native_cycles(spec.workload, scale=spec.scale,
                               seed=spec.seed,
                               cores=keywords.get("cores", PAPER_CORES),
                               costs=keywords.get("costs"))
        keywords["max_cycles"] = native * 400
        if (keywords.get("checkpoints") is None
                and spec.resync_mode == "checkpoint"):
            keywords["checkpoints"] = native / CHECKPOINTS_PER_NATIVE
    policy = MonitorPolicy(degradation=spec.policy,
                           watchdog_cycles=spec.watchdog,
                           resync_mode=spec.resync_mode)
    mvee = MVEE(program, variants=spec.variants,
                agent=None if spec.agent == "none" else spec.agent,
                seed=spec.seed, policy=policy, **keywords)
    return mvee, native


@dataclass
class RunRecord:
    """The result of one spec-shaped run (see :func:`run_spec_cell`).

    Every field but ``wall_s`` (host seconds ``mvee.run()`` took, never
    compared) is a pure function of the spec and the build keywords, so
    ``build_mvee(record.spec, **record.build_keywords)`` rebuilds the
    run.  Each sweep's row type is a projection of a record.
    ``resync_stats`` sums the restarted variants' resync counters.
    """

    spec: RunSpec
    build_keywords: dict
    verdict: str
    cycles: float
    native_cycles: float | None
    sync_ops: int | None
    syscalls: int | None
    stall_cycles: float
    faults_injected: int
    quarantines: list[str]
    quarantined: list[int]
    restarted: list[int]
    resync_stats: dict
    races: object | None
    divergence: str | None
    extras: dict = field(default_factory=dict)
    wall_s: float = field(default=0.0, compare=False)

    @classmethod
    def of(cls, spec: RunSpec, outcome, native: float | None,
           build_keywords: dict | None = None, extras: dict | None = None,
           wall_s: float = 0.0) -> "RunRecord":
        """Fold a finished :class:`~repro.core.mvee.MVEEOutcome`."""
        report, events = outcome.report, outcome.quarantines
        stats = getattr(outcome.monitor, "resync_stats", {}) or {}
        return cls(
            spec=spec, build_keywords=dict(build_keywords or {}),
            verdict=outcome.verdict, cycles=outcome.cycles,
            native_cycles=native,
            sync_ops=report.total_sync_ops if report else None,
            syscalls=report.total_syscalls if report else None,
            stall_cycles=sum(vm.total_stall_cycles for vm in outcome.vms),
            faults_injected=len(outcome.faults),
            quarantines=[event.summary() for event in events],
            quarantined=[event.variant for event in events],
            restarted=[event.variant for event in events if event.restarted],
            resync_stats={name: sum(entry.get(name, 0)
                                    for entry in stats.values())
                          for name in ("fast_forwarded", "resynced")},
            races=outcome.races,
            divergence=(outcome.divergence.explain()
                        if outcome.divergence is not None else None),
            extras=dict(extras or {}), wall_s=wall_s)


_cell_cache: dict[tuple, RunRecord] = {}


def run_spec_cell(spec, outputs=(), session_id: str | None = None, *,
                  costs: CostModel | None = None, instrument=None,
                  checkpoints=None, obs=None):
    """Build and run one spec; the cell function of every spec-shaped
    sweep and of the serve batch path.

    ``spec`` is a :class:`RunSpec` or its dict form (validated: it may
    come off the wire).  ``outputs`` maps each requested extra to its
    argument: ``profile`` to the lag tracker's ``sample_every`` (the
    cycle profile dict) and ``obs`` to the forensics bundle's path or
    ``None`` (``{"digest", "bundle"}``: the ``ObsHub(trace=False)``
    digest and the path the bundle was saved to).  ``session_id`` names
    a traced serve session's host span.  ``costs``, ``instrument`` and
    ``checkpoints`` are :func:`build_mvee` overrides; ``obs`` is the hub
    a ``with_obs`` engine task injects.  Without extras or a hub,
    records are memoized on the spec's value (trace context aside) and
    the overrides (:func:`reset_caches` drops them).

    A list of :class:`RunSpec` runs back to back in this one call,
    unmemoized, and returns their records in order: twins whose host
    ``wall_s`` are compared are timed fresh, on one worker, under the
    same load.
    """
    outputs = dict(outputs)
    if set(outputs) - {"profile", "obs"} or (outputs and obs is not None):
        raise TypeError(f"run_spec_cell: unknown extras, or extras "
                        f"with a hub: {sorted(outputs)}")
    if costs is not None:
        # A copy: the record's keywords must rebuild its run even if the
        # caller later mutates its cost model.
        costs = replace(costs)
    keywords = {name: value for name, value in (
        ("costs", costs), ("instrument", instrument),
        ("checkpoints", checkpoints)) if value is not None}
    if isinstance(spec, list):
        return [_run_spec(one, outputs, session_id, keywords, obs)
                for one in spec]
    if isinstance(spec, dict):
        spec = RunSpec.from_dict(spec).validate()
    key = None
    if not outputs and obs is None:
        data = spec.to_dict()
        data.pop("trace", None)
        key = (json.dumps(data, sort_keys=True),
               astuple(costs or DEFAULT_COSTS), instrument, checkpoints)
        if key in _cell_cache:
            return _cell_cache[key]
    record = _run_spec(spec, outputs, session_id, keywords, obs)
    if key is not None:
        _cell_cache[key] = record
    return record


def _run_spec(spec: RunSpec, outputs: dict, session_id: str | None,
              keywords: dict, obs) -> RunRecord:
    from repro.telemetry.spans import child_span

    if outputs:
        from repro.obs import ObsHub

        obs = ObsHub(trace=False, profile="profile" in outputs,
                     lag_sample_every=outputs.get("profile") or 1)
    with child_span("session.run",
                    spec.trace if session_id is not None else None,
                    service="session", track=f"session {session_id}",
                    session=session_id):
        mvee, native = build_mvee(spec, obs=obs, **keywords)
        start = time.perf_counter()
        outcome = mvee.run()
        wall = time.perf_counter() - start
    extras = {}
    if "profile" in outputs:
        obs.prof.finalize(outcome.machine.now)
        extras["profile"] = obs.prof.snapshot().to_dict()
    if "obs" in outputs:
        bundle = None
        if outputs["obs"] and outcome.obs_bundle is not None:
            bundle = outputs["obs"]
            outcome.obs_bundle.save(bundle)
        extras["obs"] = {"digest": obs.digest(), "bundle": bundle}
    return RunRecord.of(spec, outcome, native, build_keywords=keywords,
                        extras=extras, wall_s=wall)
