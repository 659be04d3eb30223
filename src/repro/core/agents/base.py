"""Shared agent infrastructure.

Each MVEE run creates one :class:`AgentSharedState` — the analogue of the
System V shared-memory segment the real agents attach to during
initialization (Section 4.5) — and one agent instance per variant.  The
variant-0 agent plays the *master* (recording) role; all others replay.
Role assignment happens through the MVEE's injection step, mirroring the
paper's self-awareness pseudo-syscall.

Agents are prohibited from dynamic per-variable allocation (Section 3.3);
concretely, the structures they may grow are the logs themselves (which
live in the pre-mapped shared segment) — never per-sync-variable
metadata.  The WoC agent's fixed clock wall is the visible consequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.contention import ContentionTracker, coherence_cycles
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.sched.hooks import Hooks
from repro.sched.interceptor import SyncAgent


@dataclass
class AgentStats:
    """Counters reported by the benches and the ablation studies."""

    recorded: int = 0
    replayed: int = 0
    stalls: int = 0
    log_waits: int = 0       # slave waited for the master to produce
    order_waits: int = 0     # slave waited for replay order
    producer_waits: int = 0  # master stalled on a full ring buffer
    scanned_entries: int = 0  # PO lookahead scanning work
    clock_collision_stalls: int = 0  # WoC: stalls on hash-colliding clocks


class AgentSharedState:
    """State shared by all variants' agents (the shared memory segment)."""

    def __init__(self, n_variants: int, costs: CostModel | None = None,
                 contention_window: int = 16,
                 buffer_capacity: int = 1 << 16):
        self.n_variants = n_variants
        self.costs = costs or DEFAULT_COSTS
        self.contention = ContentionTracker(window=contention_window)
        #: Ring-buffer capacity: how far the master's recording may run
        #: ahead of the slowest slave's consumption before the producer
        #: must stall (the paper's buffers are rings; ours are logs with
        #: explicit backpressure).  The default is effectively unbounded
        #: for the benchmark slices; the ablation bench shrinks it.
        self.buffer_capacity = buffer_capacity
        self.stats = AgentStats()
        #: Bound to Machine.wake_key by the MVEE bootstrap.
        self.wake = lambda key: None
        #: The machine's hook table: agents fire record/replay/stall
        #: events with buffer-occupancy samples, and the shared buffers
        #: consult its fault injector.
        self.hooks = Hooks()
        #: When True, slave agents verify that the replayed op's site label
        #: matches the recorded one — a debugging aid for diversity that
        #: changes sync behaviour (Section 4.5.1 documents that such
        #: diversity is unsupported).
        self.check_sites = False
        #: Variants demoted by the monitor (quarantine): ring-buffer
        #: backpressure must stop waiting for their consumption or the
        #: master stalls forever behind a dead consumer.
        self.retired: set[int] = set()

    def bind_machine(self, machine) -> None:
        """Install the simulator's wake callback and hook table (MVEE
        bootstrap)."""
        self.wake = machine.wake_key
        self.bind_hooks(machine.hooks)

    def bind_hooks(self, hooks) -> None:
        """Share the hook table; subclasses hand it to their buffers so
        corrupt_sync faults reach the records."""
        self.hooks = hooks

    def retire_variant(self, variant: int) -> None:
        """Stop backpressure from waiting on a quarantined slave.

        Subclasses drop the variant's consumption cursor from their
        slowest-consumer computation and wake a master parked on a full
        ring, then call up."""
        self.retired.add(variant)

    def reset_variant(self, variant: int) -> None:
        """Rewind one slave's replay cursors so a restarted variant
        replays the retained sync history from the beginning."""
        self.retired.discard(variant)

    def coherence_cost(self, line_key, thread_global_id: str) -> float:
        """Charge for touching a logically shared cache line.

        One other recent sharer costs a full line transfer; additional
        sharers add queuing on the line (sub-linear — the line ping-pongs,
        it does not broadcast), matching the saturating behaviour of real
        coherence fabrics.
        """
        sharers = self.contention.access(line_key, thread_global_id)
        return coherence_cycles(self.costs, sharers)


class BaseAgent(SyncAgent):
    """Common plumbing for the three replication strategies."""

    name = "base"

    def __init__(self, shared: AgentSharedState, variant_index: int):
        self.shared = shared
        self.variant_index = variant_index
        #: Variant 0's agent records; every other one replays.
        self.is_master = variant_index == 0

    @property
    def costs(self) -> CostModel:
        return self.shared.costs

    def slave_indices(self) -> range:
        return range(1, self.shared.n_variants)


def make_agents(agent_name: str, n_variants: int,
                costs: CostModel | None = None,
                **agent_options):
    """Build the shared state and one agent per variant.

    ``agent_name`` is a key of
    :data:`repro.core.agents.AGENT_REGISTRY`; ``agent_options`` are passed
    to the shared-state factory of the chosen agent class (e.g.
    ``n_clocks`` for wall-of-clocks).
    """
    from repro.core.agents import AGENT_REGISTRY  # deferred: avoid cycle

    if agent_name == "dmt" and agent_name not in AGENT_REGISTRY:
        import repro.baselines.dmt  # noqa: F401  (self-registers)
    try:
        agent_cls = AGENT_REGISTRY[agent_name]
    except KeyError:
        raise ValueError(
            f"unknown agent {agent_name!r}; "
            f"choose from {sorted(AGENT_REGISTRY)}") from None
    shared = agent_cls.make_shared(n_variants, costs, **agent_options)
    agents = [agent_cls(shared, index) for index in range(n_variants)]
    return shared, agents
