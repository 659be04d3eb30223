"""Figure 4: replay behaviour of the three replication strategies.

The figure's point: on *unrelated* critical sections (lock A in one
thread, lock B in another), the TO agent stalls slave threads on entries
that do not concern them (the red bar of Figure 4a), while the PO and
WoC agents replay independent sections without those stalls.

The bench runs a two-thread/two-lock workload under all three agents
with identical seeds and compares the *unnecessary-stall* counts: TO's
order-stalls dominate; PO and WoC stall only for genuine reasons
(producer lag), and WoC additionally reports any hash-collision
serialization (zero here — two locks rarely collide in a 512-clock wall).
"""

from __future__ import annotations

from repro.core.mvee import MVEE
from repro.guest.program import GuestProgram
from repro.guest.sync import SpinLock
from repro.perf.report import format_table
from repro.perf.timeline import VariantTraces


class IndependentLocksProgram(GuestProgram):
    """Two threads, two unrelated locks, many rounds."""

    name = "fig4"
    static_vars = ("lockA", "lockB")

    def __init__(self, rounds: int = 120):
        self.rounds = rounds

    def main(self, ctx):
        lock_a = SpinLock(ctx.static_addr("lockA"))
        lock_b = SpinLock(ctx.static_addr("lockB"))
        t1 = yield from ctx.spawn(self.worker, lock_a)
        t2 = yield from ctx.spawn(self.worker, lock_b)
        yield from ctx.join_all([t1, t2])
        return 0

    def worker(self, ctx, lock):
        for _ in range(self.rounds):
            yield from ctx.compute(900)
            yield from lock.acquire(ctx)
            yield from ctx.compute(250)
            yield from lock.release(ctx)
        return 0


def run_agent(agent: str):
    traces = VariantTraces()
    mvee = MVEE(IndependentLocksProgram(), variants=2, agent=agent,
                seed=6, consumers=(traces,))
    outcome = mvee.run()
    assert outcome.verdict == "clean"
    stats = outcome.agent_shared.stats
    return {
        "agent": agent,
        "order_stalls": stats.order_waits,
        "log_stalls": stats.log_waits,
        "scanned": stats.scanned_entries,
        "collision_stalls": stats.clock_collision_stalls,
        "cycles": outcome.cycles,
        "slave_trace": traces.sync_ops(outcome.vms[1]),
    }


class Figure4Scenario(GuestProgram):
    """The figure's exact event pattern, with the slave's schedule
    reversed on purpose.

    Master: m1 enters/leaves section A, then (later) section B;
            m2 enters/leaves section B first.
    Slave:  s2 reaches its section-B op *before* s1 runs at all (we
            delay the variant's thread 1 via a role-dependent warmup,
            as the paper's own self-aware PoCs do).

    Under TO, s2 must stall on m1's unrelated section-A entries
    (Figure 4a's red bar); under PO/WoC it proceeds immediately
    (Figures 4b/4c).
    """

    name = "fig4_exact"
    static_vars = ("lockA", "lockB")

    def main(self, ctx):
        role = yield from ctx.mvee_get_role()
        lock_a = SpinLock(ctx.static_addr("lockA"))
        lock_b = SpinLock(ctx.static_addr("lockB"))
        t1 = yield from ctx.spawn(self.thread1, lock_a, lock_b, role)
        t2 = yield from ctx.spawn(self.thread2, lock_b, role)
        yield from ctx.join_all([t1, t2])
        return 0

    def thread1(self, ctx, lock_a, lock_b, role):
        if role != 0:
            yield from ctx.compute(60_000)  # slave: s1 is late
        yield from lock_a.acquire(ctx)      # enter_sec(&A)   (t0)
        yield from ctx.compute(500)
        yield from lock_a.release(ctx)      # leave_sec(&A)   (t1)
        yield from ctx.compute(20_000)
        yield from lock_b.acquire(ctx)      # enter_sec(&B)   (t4)
        yield from lock_b.release(ctx)
        return 0

    def thread2(self, ctx, lock_b, role):
        if role == 0:
            yield from ctx.compute(600)     # master: after m1's A entry
        yield from lock_b.acquire(ctx)      # enter_sec(&B)   (t2)
        yield from ctx.compute(500)
        yield from lock_b.release(ctx)      # leave_sec(&B)   (t3)
        return 0


def first_op_delay(agent: str) -> tuple:
    """When does the slave's thread-2 commit its first sync op?"""
    traces = VariantTraces()
    mvee = MVEE(Figure4Scenario(), variants=2, agent=agent, seed=3,
                consumers=(traces,))
    outcome = mvee.run()
    assert outcome.verdict == "clean"
    trace = traces.sync_ops(outcome.vms[1])
    s2_first = min(entry.time for entry in trace
                   if entry.thread == "main/2")
    return s2_first, trace


def test_fig4_exact_scenario(benchmark, record_output):
    def sweep():
        return {agent: first_op_delay(agent)
                for agent in ("total_order", "partial_order",
                              "wall_of_clocks")}

    delays = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.perf.timeline import render_timeline
    lines = ["Figure 4 (exact scenario): absolute time of slave thread "
             "s2's first sync-op commit", ""]
    for agent, (delay, trace) in delays.items():
        lines.append(f"{agent:16s} {delay:10.0f} cycles")
    for agent, (delay, trace) in delays.items():
        lines.append("")
        lines.append(f"slave timeline — {agent}:")
        lines.append(render_timeline(trace))
    record_output("fig4_exact_scenario", "\n".join(lines))

    to_delay = delays["total_order"][0]
    po_delay = delays["partial_order"][0]
    woc_delay = delays["wall_of_clocks"][0]
    # Figure 4a's red bar: TO stalls s2 behind s1's unrelated section
    # (~55k extra cycles here); PO and WoC release it immediately.
    assert to_delay > 2 * po_delay
    assert to_delay > 2 * woc_delay
    assert abs(po_delay - woc_delay) < 0.5 * woc_delay


def test_fig4_replay_sequences(benchmark, record_output):
    def sweep():
        return [run_agent(agent) for agent in
                ("total_order", "partial_order", "wall_of_clocks")]

    rows_data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[d["agent"], str(d["order_stalls"]), str(d["log_stalls"]),
             str(d["scanned"]), str(d["collision_stalls"]),
             f"{d['cycles']:.0f}"]
            for d in rows_data]
    text = format_table(
        ["agent", "order stalls", "producer-lag stalls",
         "PO entries scanned", "WoC collision stalls", "run cycles"],
        rows,
        title="Figure 4: stall behaviour on two unrelated critical "
              "sections (TO's red bar vs PO/WoC)")
    from repro.perf.timeline import render_timeline
    for data in rows_data:
        text += ("\n\nslave replay timeline — " + data["agent"] + ":\n"
                 + render_timeline(data["slave_trace"]))
    record_output("fig4_replay_sequences", text)

    to, po, woc = rows_data
    # TO stalls on unrelated entries far more than PO/WoC (Figure 4a).
    assert to["order_stalls"] > 3 * max(po["order_stalls"], 1)
    assert to["order_stalls"] > 3 * max(woc["order_stalls"], 1)
    # PO does lookahead work that TO/WoC do not (the window scan).
    assert po["scanned"] >= 0
    # Two distinct locks in a 512-clock wall: no collision serialization.
    assert woc["collision_stalls"] == 0
