"""Per-variant traces and ASCII timelines of sync-op replay — the
Figure 1 and Figure 4 visualizations.

:class:`VariantTraces` is a consumer on the machine's hook table
(:mod:`repro.sched.hooks`): it keeps each variant's monitored syscalls
(what Figure 1's lockstep monitor cross-checks) and committed sync ops
(what Figure 4's replay lanes show) as :class:`TraceEntry` lists,
stamped with simulated time.  Like every consumer it charges no cycles,
so attaching it leaves the timeline byte-identical.

The paper's Figure 4 shows per-thread lanes with critical-section
enter/leave events and a red stall bar where the TO agent suspends a
slave thread.  :func:`render_timeline` reproduces that view from a
variant's sync-op trace: one lane per thread, one column per time
bucket, ``#`` where the thread committed sync ops and ``.`` where it was
idle/stalled between its first and last op::

    traces = VariantTraces()
    outcome = MVEE(program, consumers=(traces,), ...).run()
    print(render_timeline(traces.sync_ops(outcome.vms[1])))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.syscalls import spec_for


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


class VariantTraces:
    """Hook-table consumer recording each variant's syscall and sync-op
    trace.

    Attach it with ``MVEE(consumers=(traces,))`` or
    ``run_native(consumers=(traces,))``.  Entries are keyed by the
    :class:`~repro.sched.vm.VariantVM` object itself, so a variant the
    restart policy replaces keeps its trace and its replacement starts
    a fresh one.  Syscall arguments and results that are addresses
    (per the syscall table) are masked as ``"<addr>"``: they differ
    legitimately between diversified variants.
    """

    def __init__(self):
        self._clock = lambda: 0.0
        self._syscalls: dict = {}
        self._sync_ops: dict = {}

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def syscall(self, vm, thread, event, result) -> None:
        spec = spec_for(event.name)
        detail = tuple("<addr>" if index in spec.address_args else arg
                       for index, arg in enumerate(event.args))
        self._syscalls.setdefault(vm, []).append(TraceEntry(
            thread=thread.logical_id, kind="syscall", name=event.name,
            detail=detail,
            result="<addr>" if spec.address_result else result,
            time=self._clock()))

    def sync_op(self, vm, thread, event, value) -> None:
        self._sync_ops.setdefault(vm, []).append(TraceEntry(
            thread=thread.logical_id, kind="syncop",
            name=f"{event.op}@{event.site}", detail=(event.addr,),
            result=value, time=self._clock()))

    def syscalls(self, vm) -> list[TraceEntry]:
        """``vm``'s monitored syscalls, in commit order."""
        return self._syscalls.get(vm, [])

    def sync_ops(self, vm) -> list[TraceEntry]:
        """``vm``'s committed sync ops, in commit order."""
        return self._sync_ops.get(vm, [])

    def per_thread_syscalls(self, vm) -> dict[str, list[tuple]]:
        """``vm``'s syscall comparison keys grouped by logical thread.

        This is the per-thread view an Orchestra-style monitor compares;
        the strict monitor compares the same keys in lockstep instead.
        """
        grouped: dict[str, list[tuple]] = {}
        for entry in self.syscalls(vm):
            grouped.setdefault(entry.thread, []).append(entry.key())
        return grouped


def render_timeline(trace: list[TraceEntry], width: int = 72,
                    label: str = "") -> str:
    """Render one variant's sync trace as per-thread activity lanes."""
    if not trace:
        return "(no sync ops recorded)"
    start = min(entry.time for entry in trace)
    end = max(entry.time for entry in trace)
    span = max(end - start, 1.0)
    bucket = span / width

    lanes: dict[str, list[str]] = {}
    first_seen: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    for entry in trace:
        column = min(int((entry.time - start) / bucket), width - 1)
        lane = lanes.setdefault(entry.thread, [" "] * width)
        lane[column] = "#"
        first_seen.setdefault(entry.thread, column)
        first_seen[entry.thread] = min(first_seen[entry.thread], column)
        last_seen[entry.thread] = max(
            last_seen.get(entry.thread, column), column)

    # Inside a thread's active span, blank columns are waiting time
    # (stalls or compute) — the figure's horizontal extent.
    for thread, lane in lanes.items():
        for column in range(first_seen[thread], last_seen[thread]):
            if lane[column] == " ":
                lane[column] = "."

    label_width = max(len(t) for t in lanes)
    lines = []
    if label:
        lines.append(label)
    lines.append(f"{'':{label_width}}  t={start:.0f} "
                 f"... {end:.0f} cycles "
                 f"({bucket:.0f} cycles/col)")
    for thread in sorted(lanes):
        lines.append(f"{thread.ljust(label_width)} |"
                     + "".join(lanes[thread]) + "|")
    lines.append(f"{'':{label_width}}  # = sync op committed, "
                 ". = waiting/computing")
    return "\n".join(lines)


def summarize_trace(trace: list[TraceEntry]) -> dict[str, dict]:
    """Per-thread summary: op count, active span, mean inter-op gap."""
    stats: dict[str, dict] = {}
    by_thread: dict[str, list[float]] = {}
    for entry in trace:
        by_thread.setdefault(entry.thread, []).append(entry.time)
    for thread, times in by_thread.items():
        times.sort()
        gaps = [b - a for a, b in zip(times, times[1:], strict=False)]
        stats[thread] = {
            "ops": len(times),
            "span_cycles": (times[-1] - times[0]) if len(times) > 1
            else 0.0,
            "mean_gap": (sum(gaps) / len(gaps)) if gaps else 0.0,
        }
    return stats
