"""Total-order (TO) replication agent — Figure 4(a).

The master logs every sync op into one global buffer; each slave variant
replays the log *in exactly the recorded order*.  A slave thread about to
execute a sync op is stalled unless the next unconsumed log entry belongs
to it — even when the entry concerns an unrelated lock.  This is the
paper's "trivial to implement, but not very efficient" strategy: the lack
of consumer lookahead introduces unnecessary stalls (the red bar in
Figure 4a), and the single consumption cursor per slave variant is a
shared cache line all that variant's threads fight over.
"""

from __future__ import annotations

from repro.core.agents.base import AgentSharedState, BaseAgent
from repro.core.buffers import MultiProducerLog, SyncRecord
from repro.sched.interceptor import Proceed, Wait


class TotalOrderShared(AgentSharedState):
    """Shared segment: one global log + one cursor per slave variant."""

    def __init__(self, n_variants: int, costs=None, **kwargs):
        super().__init__(n_variants, costs, **kwargs)
        self.log = MultiProducerLog()
        self.next_index = {v: 0 for v in range(1, n_variants)}

    def bind_hooks(self, hooks) -> None:
        super().bind_hooks(hooks)
        self.log.hooks = hooks

    def retire_variant(self, variant: int) -> None:
        super().retire_variant(variant)
        self.next_index.pop(variant, None)
        self.wake(("to_full",))

    def reset_variant(self, variant: int) -> None:
        super().reset_variant(variant)
        self.next_index[variant] = 0


class TotalOrderAgent(BaseAgent):
    """Replays the global total order of sync ops."""

    name = "total_order"

    @staticmethod
    def make_shared(n_variants: int, costs=None,
                    **options) -> TotalOrderShared:
        return TotalOrderShared(n_variants, costs, **options)

    # -- master: record ----------------------------------------------------

    def before_sync_op(self, vm, thread, op):
        if self.is_master:
            return self._master_check(thread)
        return self._slave_check(thread, op)

    def _master_check(self, thread):
        """Ring-buffer backpressure: the producer stalls when the log is
        a full capacity ahead of the slowest consumer."""
        shared: TotalOrderShared = self.shared
        lag = len(shared.log) - min(shared.next_index.values(),
                                    default=len(shared.log))
        if lag >= shared.buffer_capacity:
            shared.stats.producer_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(self.variant_index, thread.logical_id,
                     "producer_wait", "to")
            return Wait(("to_full",), cost=self.costs.buffer_log)
        return Proceed()

    def after_sync_op(self, vm, thread, op, value) -> float:
        shared: TotalOrderShared = self.shared
        costs = shared.costs
        log = shared.log
        if self.is_master:
            log.append(SyncRecord(thread=thread.logical_id,
                                  addr=op.addr, site=op.site))
            shared.stats.recorded += 1
            for hook in shared.hooks.sync_record:
                hook(vm.index, thread.logical_id, "to",
                     log.occupancy(shared.next_index.values()))
            # Claiming the next free log position is read-write sharing
            # among all master threads (Section 4.5's scalability remark).
            cost = (costs.buffer_log
                    + costs.cursor_contention_factor * shared.coherence_cost(
                        ("to", "producer_cursor"), thread.global_id))
            wake = shared.wake
            for slave in self.slave_indices():
                wake(("to_log", slave))
            return cost
        # Slave: consume the entry we were cleared for.
        variant = self.variant_index
        shared.next_index[variant] += 1
        shared.stats.replayed += 1
        for hook in shared.hooks.sync_replay:
            hook(variant, thread.logical_id, "to",
                 log.occupancy(shared.next_index.values()))
        cost = (costs.buffer_consume
                + costs.cursor_contention_factor * shared.coherence_cost(
                    ("to", "consume_cursor", variant), thread.global_id))
        shared.wake(("to_next", variant))
        shared.wake(("to_full",))
        return cost

    # -- slave: replay ------------------------------------------------------

    def _slave_check(self, thread, op):
        shared: TotalOrderShared = self.shared
        costs = shared.costs
        log = shared.log
        variant = self.variant_index
        index = shared.next_index[variant]
        # Every check reads the shared consumption cursor: coherence
        # traffic is paid whether or not we may proceed.
        check_cost = (costs.buffer_consume
                      + shared.coherence_cost(
                          ("to", "consume_cursor", variant),
                          thread.global_id))
        if index >= len(log):
            shared.stats.stalls += 1
            shared.stats.log_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(variant, thread.logical_id, "log_wait", "to")
            return Wait(("to_log", variant), cost=check_cost)
        entry = log.entry(index)
        if entry.thread != thread.logical_id:
            # Not our turn: stall until another thread consumes (this is
            # the unnecessary serialization on unrelated critical sections).
            shared.stats.stalls += 1
            shared.stats.order_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(variant, thread.logical_id, "order_wait", "to")
            return Wait(("to_next", variant), cost=check_cost)
        if shared.check_sites and entry.site != op.site:
            raise RuntimeError(
                f"TO replay mismatch in v{variant} {thread.logical_id}: "
                f"recorded site {entry.site!r}, replaying {op.site!r} "
                "(diversity changed synchronization behaviour?)")
        return Proceed(cost=costs.buffer_consume)
