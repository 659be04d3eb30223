"""Wall-of-clocks (WoC) replication agent — Figure 4(c), the contribution.

Design recap from Section 4.5:

* Every synchronization variable is assigned (by an address hash) to one
  of a *fixed* number of logical clocks — dynamic allocation is forbidden
  in the agents, so the wall is statically sized and collisions are
  tolerated (plausible clocks keep replay correct, just occasionally
  over-serialized).
* There is **one sync buffer per master thread**, so each buffer has a
  single producer; corresponding slave threads are its only consumers.
  No shared cursors, hence none of the TO/PO cache-line fights.
* The master logs ``(clock id, clock time)`` per sync op and ticks the
  clock.  Slaves keep *local* clock walls: a slave thread may execute its
  next op only when its variant's copy of the recorded clock has reached
  the recorded time.  Master clocks never need to be visible to slaves.

Coherence traffic therefore occurs only (a) on the per-thread SPSC
buffers — the unavoidable cost of replication — and (b) on clocks that
several threads genuinely share, i.e. exactly where the *application*
already had lock contention.
"""

from __future__ import annotations

from repro.core.agents.base import AgentSharedState, BaseAgent
from repro.core.agents.clocks import (
    DEFAULT_CLOCK_COUNT,
    ClockWall,
    clock_for_address,
)
from repro.core.buffers import SPSCBuffer, SyncRecord
from repro.sched.interceptor import Proceed, Wait


class WallOfClocksShared(AgentSharedState):
    """Shared segment: per-master-thread buffers; per-variant clock walls."""

    def __init__(self, n_variants: int, costs=None,
                 n_clocks: int = DEFAULT_CLOCK_COUNT, **kwargs):
        super().__init__(n_variants, costs, **kwargs)
        self.n_clocks = n_clocks
        #: master thread logical id -> its single-producer buffer.
        self.buffers: dict[str, SPSCBuffer] = {}
        #: variant index -> that variant's local clock wall.  Index 0 is
        #: the master's wall (never read by slaves, per the paper).
        self.walls = {v: ClockWall(n_clocks) for v in range(n_variants)}
        #: Distinct 64-bit granules observed per clock (collision metric
        #: for the clock-count ablation; master-side bookkeeping only).
        self.clock_granules: dict[int, set[int]] = {}

    def buffer_for(self, thread_logical: str) -> SPSCBuffer:
        buffer = self.buffers.get(thread_logical)
        if buffer is None:
            buffer = SPSCBuffer(producer=thread_logical)
            buffer.hooks = self.hooks
            self.buffers[thread_logical] = buffer
        return buffer

    def bind_hooks(self, hooks) -> None:
        super().bind_hooks(hooks)
        for buffer in self.buffers.values():
            buffer.hooks = hooks

    def retire_variant(self, variant: int) -> None:
        super().retire_variant(variant)
        for producer in self.buffers:
            self.wake(("woc_full", producer))

    def reset_variant(self, variant: int) -> None:
        super().reset_variant(variant)
        self.walls[variant] = ClockWall(self.n_clocks)
        for buffer in self.buffers.values():
            buffer.reset_consumer(variant)


class WallOfClocksAgent(BaseAgent):
    """Replays per-clock happens-before order through per-thread buffers."""

    name = "wall_of_clocks"

    @staticmethod
    def make_shared(n_variants: int, costs=None,
                    **options) -> WallOfClocksShared:
        return WallOfClocksShared(n_variants, costs, **options)

    # -- master: record ------------------------------------------------------

    def before_sync_op(self, vm, thread, op):
        if self.is_master:
            return self._master_check(thread)
        return self._slave_check(thread, op)

    def _master_check(self, thread):
        """SPSC ring backpressure, per master thread."""
        shared: WallOfClocksShared = self.shared
        buffer = shared.buffers.get(thread.logical_id)
        if buffer is not None:
            slowest = min((buffer.consumed(v)
                           for v in self.slave_indices()
                           if v not in shared.retired),
                          default=buffer.produced())
            if buffer.produced() - slowest >= shared.buffer_capacity:
                shared.stats.producer_waits += 1
                for hook in shared.hooks.sync_stall:
                    hook(
                        self.variant_index, thread.logical_id,
                        "producer_wait", f"woc:{thread.logical_id}")
                return Wait(("woc_full", thread.logical_id),
                            cost=self.costs.buffer_log)
        return Proceed()

    def after_sync_op(self, vm, thread, op, value) -> float:
        shared: WallOfClocksShared = self.shared
        if self.is_master:
            clock_id = clock_for_address(op.addr, shared.n_clocks)
            shared.clock_granules.setdefault(clock_id,
                                             set()).add(op.addr >> 3)
            time = shared.walls[0].tick(clock_id)
            buffer = shared.buffer_for(thread.logical_id)
            buffer.produce(SyncRecord(thread=thread.logical_id,
                                      addr=op.addr, site=op.site,
                                      payload=(clock_id, time)))
            shared.stats.recorded += 1
            for hook in shared.hooks.sync_record:
                hook(
                    vm.index, thread.logical_id,
                    f"woc:{thread.logical_id}", buffer.occupancy())
            # SPSC buffer: no cursor sharing.  The clock line is shared
            # only with other master threads using the same clock — i.e.
            # where the application itself contends.
            cost = (self.costs.buffer_log
                    + self.costs.woc_clock_factor * shared.coherence_cost(("woc", "clock", 0, clock_id),
                                            thread.global_id))
            for slave in self.slave_indices():
                shared.wake(("woc_buf", slave, thread.logical_id))
            return cost
        # Slave: commit done; tick our local copy and wake clock waiters.
        variant = self.variant_index
        buffer = shared.buffer_for(thread.logical_id)
        record = buffer.peek(variant)
        clock_id, _ = record.payload
        shared.walls[variant].tick(clock_id)
        buffer.advance(variant)
        shared.stats.replayed += 1
        for hook in shared.hooks.sync_replay:
            hook(variant, thread.logical_id,
                 f"woc:{thread.logical_id}",
                 buffer.occupancy())
        cost = (self.costs.buffer_consume
                + self.costs.woc_clock_factor * shared.coherence_cost(("woc", "clock", variant, clock_id),
                                        thread.global_id))
        shared.wake(("woc_clock", variant, clock_id))
        shared.wake(("woc_full", thread.logical_id))
        return cost

    # -- slave: replay ----------------------------------------------------------

    def _slave_check(self, thread, op):
        shared: WallOfClocksShared = self.shared
        variant = self.variant_index
        buffer = shared.buffers.get(thread.logical_id)
        record = buffer.peek(variant) if buffer is not None else None
        if record is None:
            shared.stats.stalls += 1
            shared.stats.log_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(variant, thread.logical_id,
                     "log_wait",
                     f"woc:{thread.logical_id}")
            return Wait(("woc_buf", variant, thread.logical_id),
                        cost=self.costs.buffer_consume)
        clock_id, time = record.payload
        local = shared.walls[variant].read(clock_id)
        if local < time:
            shared.stats.stalls += 1
            shared.stats.order_waits += 1
            for hook in shared.hooks.clock_lag:
                hook(variant, thread.logical_id, clock_id, time - local)
            if len(shared.clock_granules.get(clock_id, ())) > 1:
                # More than one 64-bit granule hashes to this clock: the
                # stall may be pure collision serialization (Section 4.5's
                # "unnecessary stalls in the slave variants").
                shared.stats.clock_collision_stalls += 1
            return Wait(("woc_clock", variant, clock_id),
                        cost=self.costs.buffer_consume)
        if shared.check_sites and record.site != op.site:
            raise RuntimeError(
                f"WoC replay mismatch in v{variant} {thread.logical_id}: "
                f"recorded site {record.site!r}, replaying {op.site!r}")
        return Proceed(cost=self.costs.buffer_consume)
