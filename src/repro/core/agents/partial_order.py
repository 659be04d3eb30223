"""Partial-order (PO) replication agent — Figure 4(b).

The master records the same global log as the TO agent, but slaves only
enforce a total order on *dependent* sync ops — ops touching the same
memory location.  Independent ops may replay in any order that preserves
each thread's program order, eliminating the TO agent's unnecessary
stalls.

The price (Section 4.5): slaves must look *ahead* in a window of not-yet-
replayed entries to decide whether their op is safe, and they must track
consumption in a structure shared by all the variant's threads.  Both are
read-write shared lines; with many threads logging/consuming
simultaneously, cache pressure and coherency traffic explode.  That is why
the paper finds PO losing to TO on sync-op-storm benchmarks (radiosity,
fluidanimate, swaptions, dedup) despite stalling less.

Implementation note: the dependency test "no earlier unconsumed entry on
the same address" is evaluated with per-address queues for simulator
efficiency, but the *cost charged* is the window scan the real agent
performs (``po_scan_per_entry`` × window span).
"""

from __future__ import annotations


from repro.core.agents.base import AgentSharedState, BaseAgent
from repro.core.buffers import ConsumptionWindow, MultiProducerLog, SyncRecord
from repro.sched.interceptor import Proceed, Wait


class PartialOrderShared(AgentSharedState):
    """Shared segment: global log + per-variant consumption windows."""

    def __init__(self, n_variants: int, costs=None, **kwargs):
        super().__init__(n_variants, costs, **kwargs)
        self.log = MultiProducerLog()
        self.windows = {v: ConsumptionWindow()
                        for v in range(1, n_variants)}
        #: Per-address positions in recorded order (master-address keyed).
        self.addr_positions: dict[int, list[int]] = {}
        #: Per (variant, addr): index into addr_positions[addr] of the next
        #: entry that variant must consume on that address.
        self.addr_cursor: dict[tuple[int, int], int] = {}

    def bind_hooks(self, hooks) -> None:
        super().bind_hooks(hooks)
        self.log.hooks = hooks

    def retire_variant(self, variant: int) -> None:
        super().retire_variant(variant)
        self.windows.pop(variant, None)
        self.wake(("po_full",))

    def reset_variant(self, variant: int) -> None:
        super().reset_variant(variant)
        self.windows[variant] = ConsumptionWindow()
        for key in [k for k in self.addr_cursor if k[0] == variant]:
            del self.addr_cursor[key]


class PartialOrderAgent(BaseAgent):
    """Replays only the per-variable (dependence) order."""

    name = "partial_order"

    @staticmethod
    def make_shared(n_variants: int, costs=None,
                    **options) -> PartialOrderShared:
        return PartialOrderShared(n_variants, costs, **options)

    # -- master: record -------------------------------------------------------

    def before_sync_op(self, vm, thread, op):
        if self.is_master:
            return self._master_check(thread)
        return self._slave_check(thread, op)

    def _master_check(self, thread):
        """Ring-buffer backpressure against the slowest window frontier."""
        shared: PartialOrderShared = self.shared
        slowest = min((w.frontier for w in shared.windows.values()),
                      default=len(shared.log))
        if len(shared.log) - slowest >= shared.buffer_capacity:
            shared.stats.producer_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(self.variant_index, thread.logical_id,
                     "producer_wait", "po")
            return Wait(("po_full",), cost=self.costs.buffer_log)
        return Proceed()

    def after_sync_op(self, vm, thread, op, value) -> float:
        shared: PartialOrderShared = self.shared
        if self.is_master:
            position = shared.log.append(SyncRecord(
                thread=thread.logical_id, addr=op.addr, site=op.site))
            shared.addr_positions.setdefault(op.addr, []).append(position)
            shared.stats.recorded += 1
            for hook in shared.hooks.sync_record:
                hook(
                    vm.index, thread.logical_id, "po",
                    shared.log.occupancy(w.frontier for w in
                                         shared.windows.values()))
            cost = (self.costs.buffer_log
                    + self.costs.cursor_contention_factor * shared.coherence_cost(("po", "producer_cursor"),
                                            thread.global_id))
            for slave in self.slave_indices():
                shared.wake(("po_log", slave))
            return cost
        variant = self.variant_index
        window = shared.windows[variant]
        position = shared.log.thread_entry_position(
            thread.logical_id, window.next_index_for(thread.logical_id))
        entry_addr = shared.log.entry(position).addr
        window.mark_consumed(position, thread.logical_id)
        cursor_key = (variant, entry_addr)
        shared.addr_cursor[cursor_key] = (
            shared.addr_cursor.get(cursor_key, 0) + 1)
        shared.stats.replayed += 1
        for hook in shared.hooks.sync_replay:
            hook(
                variant, thread.logical_id, "po",
                shared.log.occupancy(w.frontier for w in
                                     shared.windows.values()))
        cost = (self.costs.buffer_consume
                + self.costs.cursor_contention_factor * shared.coherence_cost(("po", "window", variant),
                                        thread.global_id))
        shared.wake(("po_consume", variant))
        shared.wake(("po_full",))
        return cost

    # -- slave: replay -----------------------------------------------------------

    def _slave_check(self, thread, op):
        shared: PartialOrderShared = self.shared
        variant = self.variant_index
        window = shared.windows[variant]
        thread_index = window.next_index_for(thread.logical_id)
        position = shared.log.thread_entry_position(thread.logical_id,
                                                    thread_index)
        if position is None:
            shared.stats.stalls += 1
            shared.stats.log_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(variant, thread.logical_id, "log_wait", "po")
            return Wait(("po_log", variant),
                        cost=self.costs.buffer_consume
                        + self.costs.cursor_contention_factor * shared.coherence_cost(("po", "window", variant),
                                                thread.global_id))
        entry = shared.log.entry(position)
        # Charge the lookahead scan over the unreplayed window.
        span = max(0, position - window.frontier)
        shared.stats.scanned_entries += span
        scan_cost = span * self.costs.po_scan_per_entry
        # Dependence test: are we the oldest unconsumed op on this address?
        positions_on_addr = shared.addr_positions.get(entry.addr, ())
        cursor = shared.addr_cursor.get((variant, entry.addr), 0)
        ready = (cursor < len(positions_on_addr)
                 and positions_on_addr[cursor] == position)
        if not ready:
            shared.stats.stalls += 1
            shared.stats.order_waits += 1
            for hook in shared.hooks.sync_stall:
                hook(variant, thread.logical_id, "order_wait", "po")
            return Wait(("po_consume", variant),
                        cost=scan_cost
                        + self.costs.cursor_contention_factor * shared.coherence_cost(("po", "window", variant),
                                                thread.global_id))
        if shared.check_sites and entry.site != op.site:
            raise RuntimeError(
                f"PO replay mismatch in v{variant} {thread.logical_id}: "
                f"recorded site {entry.site!r}, replaying {op.site!r}")
        cost = scan_cost + self.costs.cursor_contention_factor * shared.coherence_cost(("po", "window", variant),
                                                 thread.global_id)
        return Proceed(cost=cost)
