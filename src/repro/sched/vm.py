"""Per-variant virtual machine container.

A :class:`VariantVM` bundles everything private to one variant: its kernel
(address space, FDs, futexes), its injected synchronization agent (if any),
the instrumentation filter that decides which sync-op sites call the agent,
and optional traces used by tests and the figure benches.

The same class serves native runs (``index=0``, no agent, no interceptor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.kernel.kernel import VirtualKernel


@dataclass
class TraceEntry:
    """One traced event (syscall or sync op) for divergence comparison."""

    thread: str
    kind: str            # "syscall" | "syncop"
    name: str            # syscall name or sync op "op@site"
    detail: tuple        # normalized arguments
    result: object = None
    time: float = 0.0

    def key(self) -> tuple:
        """Comparison key: what an MVEE monitor would cross-check."""
        return (self.thread, self.kind, self.name, self.detail)


class VariantVM:
    """One variant: kernel + agent + instrumentation + traces."""

    def __init__(self, index: int, kernel: VirtualKernel,
                 instrument: Callable[[str], bool] | None = None,
                 record_trace: bool = False,
                 record_sync_trace: bool = False):
        self.index = index
        self.kernel = kernel
        #: The injected synchronization agent (None when not injected —
        #: e.g. native runs, or the un-instrumented nginx demo).
        self.agent = None
        self.instrument = instrument
        self.record_trace = record_trace
        self.record_sync_trace = record_sync_trace
        self.trace: list[TraceEntry] = []
        self.sync_trace: list[TraceEntry] = []
        self.threads: dict[str, object] = {}
        #: Set when the monitor killed this variant (divergence).
        self.killed = False
        #: Set when the monitor demoted this variant under a graceful
        #: degradation policy (the rest of the set kept running).
        self.quarantined = False
        #: Diversity knobs: compute_scale models NOP-insertion slowing the
        #: variant down; instruction_factor perturbs the *logical
        #: instruction count* diversified code executes for the same work
        #: (what breaks performance-counter-based DMT, Section 2.1).
        self.compute_scale = 1.0
        self.instruction_factor = 1.0
        #: Per-thread relative spread on instruction counts: NOP insertion
        #: does not inflate all code paths evenly, so each thread's factor
        #: is drawn from instruction_factor * (1 ± instruction_noise).
        self.instruction_noise = 0.0
        self.noise_seed = 0
        self._thread_factors: dict[str, float] = {}
        #: Extra bytes the (diversified) allocator pads onto each malloc;
        #: a different value per variant changes allocation behaviour and
        #: is the documented-unsupported diversity case (Section 4.5.1).
        self.malloc_padding = 0
        #: Per-variant aggregate counters (filled by the machine).
        self.total_syscalls = 0
        self.total_sync_ops = 0
        self.total_stall_cycles = 0.0
        self.total_busy_cycles = 0.0

    @property
    def addr_space(self):
        return self.kernel.addr_space

    def instruction_factor_for(self, logical_id: str) -> float:
        """Per-thread logical-instruction multiplier under diversity."""
        if not self.instruction_noise:
            return self.instruction_factor
        factor = self._thread_factors.get(logical_id)
        if factor is None:
            import random
            rng = random.Random(
                f"{self.noise_seed}:{self.index}:{logical_id}")
            factor = self.instruction_factor * (
                1.0 + rng.uniform(-self.instruction_noise,
                                  self.instruction_noise))
            self._thread_factors[logical_id] = factor
        return factor

    @property
    def instrument(self) -> Callable[[str], bool] | None:
        """Predicate deciding whether a sync-op *site* is instrumented;
        ``None`` means "nothing instrumented".  Assigning it forgets the
        per-site decisions :meth:`is_instrumented` remembered."""
        return self._instrument

    @instrument.setter
    def instrument(self, predicate: Callable[[str], bool] | None) -> None:
        self._instrument = predicate
        self._instrumented: dict[str, bool] = {}

    def is_instrumented(self, site: str) -> bool:
        """Whether sync ops at ``site`` call the agent wrappers.

        The predicate is asked once per site (predicates are pure
        functions of the site label) and its answer remembered."""
        decided = self._instrumented.get(site)
        if decided is None:
            decided = self._instrumented[site] = (
                self._instrument is not None and bool(self._instrument(site)))
        return decided

    def per_thread_syscall_trace(self) -> dict[str, list[tuple]]:
        """Traced syscalls grouped by logical thread (comparison keys).

        This is the per-thread view an Orchestra-style monitor compares;
        our strict monitor compares the same keys in lockstep instead.
        """
        grouped: dict[str, list[tuple]] = {}
        for entry in self.trace:
            if entry.kind == "syscall":
                grouped.setdefault(entry.thread, []).append(entry.key())
        return grouped
