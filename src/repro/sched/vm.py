"""Per-variant virtual machine container.

A :class:`VariantVM` bundles everything private to one variant: its kernel
(address space, FDs, futexes), its injected synchronization agent (if any),
and the instrumentation filter that decides which sync-op sites call the
agent.  Per-variant syscall and sync-op traces are kept outside it, by a
hook-table consumer (:class:`repro.perf.timeline.VariantTraces`).

The same class serves native runs (``index=0``, no agent, no interceptor).
"""

from __future__ import annotations

from typing import Callable

from repro.kernel.kernel import VirtualKernel


class VariantVM:
    """One variant: kernel + agent + instrumentation."""

    def __init__(self, index: int, kernel: VirtualKernel,
                 instrument: Callable[[str], bool] | None = None):
        self.index = index
        self.kernel = kernel
        #: The injected synchronization agent (None when not injected —
        #: e.g. native runs, or the un-instrumented nginx demo).
        self.agent = None
        self.instrument = instrument
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
