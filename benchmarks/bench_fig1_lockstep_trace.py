"""Figure 1: monitoring and replication between two variants.

The paper's architecture figure shows two variants making ``brk`` and
``write`` calls through the monitor.  This bench runs exactly that
program under the strict monitor and renders the observable trace:
both variants execute every call in lockstep (identical per-thread
sequences), ``brk`` results come from each variant's own kernel
(legitimately different addresses under ASLR), and the ``write`` output
is performed exactly once.
"""

from __future__ import annotations

from repro.core.mvee import MVEE
from repro.diversity.spec import DiversitySpec
from repro.guest.program import GuestProgram
from repro.perf.report import format_table
from repro.perf.timeline import VariantTraces


class BrkWriteProgram(GuestProgram):
    """The Figure 1 workload: brk, then write, twice."""

    name = "fig1"

    def main(self, ctx):
        base = yield from ctx.syscall("brk", None)
        yield from ctx.syscall("brk", base + 4096)
        yield from ctx.printf("hello from the variant set\n")
        yield from ctx.syscall("brk", base + 8192)
        yield from ctx.printf("second write\n")
        return base


def test_fig1_lockstep_trace(benchmark, record_output):
    traces = VariantTraces()

    def run():
        mvee = MVEE(BrkWriteProgram(), variants=2, agent=None, seed=1,
                    consumers=(traces,),
                    diversity=DiversitySpec(aslr=True, seed=3))
        return mvee, mvee.run()

    mvee, outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.verdict == "clean"
    trace0, trace1 = (traces.syscalls(vm) for vm in outcome.vms)

    rows = []
    for entry0, entry1 in zip(trace0, trace1):
        rows.append([entry0.name,
                     f"{entry0.detail!r} -> {entry0.result!r}",
                     f"{entry1.detail!r} -> {entry1.result!r}"])
    text = format_table(
        ["syscall", "variant 0 (master)", "variant 1 (slave)"], rows,
        title="Figure 1: lockstep trace of brk/write between 2 variants")
    text += ("\n\nstdout (deduplicated, performed once):\n"
             + outcome.stdout)
    record_output("fig1_lockstep_trace", text)

    # Both variants made identical sequences of calls...
    names0 = [entry.name for entry in trace0]
    names1 = [entry.name for entry in trace1]
    assert names0 == names1
    # ... brk addresses differ under ASLR (masked as <addr> in traces),
    # while each write happened once.
    assert outcome.stdout.count("hello from the variant set") == 1
    assert outcome.stdout.count("second write") == 1
