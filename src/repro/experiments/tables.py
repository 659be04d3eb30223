"""Paper-style table and figure generators.

Each function returns the text the corresponding bench prints, matching
the rows/series of the paper's Tables 1-3 and Figure 5.  The numeric
targets from the paper are embedded so every output shows
paper-vs-measured side by side (the EXPERIMENTS.md record is generated
from the same data).
"""

from __future__ import annotations

from repro.experiments.runner import (
    AGENTS,
    VARIANT_COUNTS,
    ExperimentResult,
    run_benchmark_grid,
)
from repro.perf.report import aggregate_slowdowns, format_table, render_bars
from repro.run import native_report
from repro.workloads.spec import ALL_SPECS

#: Table 1 of the paper: aggregated average slowdowns.
TABLE1_PAPER = {
    ("total_order", 2): 2.76, ("total_order", 3): 2.83,
    ("total_order", 4): 2.87,
    ("partial_order", 2): 2.83, ("partial_order", 3): 2.83,
    ("partial_order", 4): 3.00,
    ("wall_of_clocks", 2): 1.14, ("wall_of_clocks", 3): 1.27,
    ("wall_of_clocks", 4): 1.38,
}


def table1(results: list[ExperimentResult] | None = None,
           scale: float = 1.0, jobs: int = 1,
           env: str | None = None) -> str:
    """Regenerate Table 1: aggregated average slowdowns per agent."""
    if results is None:
        results = run_benchmark_grid(scale=scale, jobs=jobs, env=env)
    slowdowns = aggregate_slowdowns([r.to_slowdown() for r in results])
    geo = aggregate_slowdowns([r.to_slowdown() for r in results],
                              mean="geometric")
    rows = []
    for agent in AGENTS:
        row = [agent]
        for variants in VARIANT_COUNTS:
            measured = slowdowns.get((agent, variants), float("nan"))
            paper = TABLE1_PAPER[(agent, variants)]
            row.append(f"{measured:.2f}x (paper {paper:.2f}x)")
        rows.append(row)
        geo_row = [f"  {agent} [geomean]"]
        for variants in VARIANT_COUNTS:
            geo_row.append(f"{geo.get((agent, variants), float('nan')):.2f}x")
        rows.append(geo_row)
    return format_table(
        ["agent", "2 variants", "3 variants", "4 variants"], rows,
        title="Table 1: aggregated average slowdowns (measured vs paper)")


def _table2_row(name: str, scale: float, seed: int) -> list[str]:
    """One Table 2 row; module-level for the parallel engine."""
    spec = ALL_SPECS[name]
    report = native_report(name, scale=scale, seed=seed)
    seconds = report.seconds
    syscall_rate = report.total_syscalls / seconds / 1000.0
    sync_rate = report.total_sync_ops / seconds / 1000.0
    return [
        name,
        f"{spec.native_runtime_s:8.2f}",
        f"{seconds * 1000:8.3f}",
        f"{syscall_rate:8.2f} ({spec.syscall_rate_k:8.2f})",
        f"{sync_rate:9.2f} ({spec.sync_rate_k:9.2f})",
    ]


def table2(scale: float = 1.0, seed: int = 1, jobs: int = 1,
           env: str | None = None) -> str:
    """Regenerate Table 2: native run time, syscall and sync-op rates.

    The run-time column shows the paper's full-benchmark time next to our
    simulated slice length (we simulate a rate-faithful slice, not the
    whole run; see DESIGN.md).  ``jobs`` shards the per-benchmark native
    runs across workers in the ``env`` execution environment; row order
    stays the spec-table order.
    """
    from repro.par.engine import CellTask, raise_failures, run_cells

    tasks = [CellTask(sweep_id="table2", index=index, fn=_table2_row,
                      kwargs=dict(name=name, scale=scale, seed=seed))
             for index, name in enumerate(ALL_SPECS)]
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    rows = [result.value for result in results]
    return format_table(
        ["benchmark", "paper runtime (s)", "slice (ms)",
         "syscalls K/s (paper)", "sync ops K/s (paper)"],
        rows,
        title="Table 2: native run times and event rates "
              "(measured (paper))")


def table3(analysis: str = "andersen",
           treat_volatile_as_sync: bool = False) -> str:
    """Regenerate Table 3: sync ops identified per module and class."""
    from repro.analysis.corpus import TABLE3_PAPER, paper_corpus
    from repro.analysis.identify import table3_rows

    rows = []
    for name, type1, type2, type3 in table3_rows(
            paper_corpus(), analysis=analysis,
            treat_volatile_as_sync=treat_volatile_as_sync):
        paper1, paper2, paper3 = TABLE3_PAPER[name]
        rows.append([name,
                     f"{type1} ({paper1})",
                     f"{type2} ({paper2})",
                     f"{type3} ({paper3})"])
    return format_table(
        ["module", "type (i) (paper)", "type (ii) (paper)",
         "type (iii) (paper)"],
        rows,
        title="Table 3: identified sync ops (measured (paper))")


def figure5_series(results: list[ExperimentResult] | None = None,
                   scale: float = 1.0, jobs: int = 1,
                   env: str | None = None) -> str:
    """Regenerate Figure 5: per-benchmark overhead, 3 agents x 2-4
    variants (the three stacks per benchmark of the paper's figure)."""
    if results is None:
        results = run_benchmark_grid(scale=scale, jobs=jobs, env=env)
    indexed = {(r.benchmark, r.agent, r.variants): r for r in results}
    rows = []
    for name in ALL_SPECS:
        row = [name]
        for agent in AGENTS:
            cells = []
            for variants in VARIANT_COUNTS:
                result = indexed.get((name, agent, variants))
                if result is None:
                    cells.append("-")
                elif result.verdict != "clean":
                    cells.append(result.verdict[:4])
                else:
                    cells.append(f"{result.slowdown:.2f}")
            row.append("/".join(cells))
        rows.append(row)
    table = format_table(
        ["benchmark", "TO 2/3/4", "PO 2/3/4", "WoC 2/3/4"],
        rows,
        title="Figure 5: run-time overhead relative to native "
              "(slowdown factor, 2/3/4 variants)")
    # The figure itself: per-benchmark bars for the 2-variant column.
    series: dict[str, float] = {}
    for name in ALL_SPECS:
        for agent, tag in (("total_order", "TO"),
                           ("partial_order", "PO"),
                           ("wall_of_clocks", "WoC")):
            result = indexed.get((name, agent, 2))
            if result is not None and result.verdict == "clean":
                series[f"{name} {tag}"] = result.slowdown
    if series:
        table += ("\n\nFigure 5 (rendered, 2 variants):\n"
                  + render_bars(series, ceiling=8.0))
    return table
