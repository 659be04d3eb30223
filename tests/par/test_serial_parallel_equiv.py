"""Differential conformance: ``jobs=N`` output equals ``jobs=1``.

This suite is the license for the parallel engine to exist: the record/
replay-style discipline (PAPERS.md: deterministic multithreading) says a
sweep may only be parallelized if its sharded output is *structurally
identical* to the serial output — same rows, same verdicts, same
counters, same order.  Every sweep the engine carries is differenced
here against its serial twin, across multiple seeds.

Host wall-clock fields (``RaceSweepRow.overhead_pct``,
``CellResult.duration_s``) are the only legitimate differences between
the two paths and are excluded from the structural forms.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.runner import (
    fault_matrix_table,
    race_sweep_table,
    reset_caches,
    run_fault_matrix,
    run_race_sweep,
)
from repro.experiments.tables import table2
from repro.par.bench import (
    bench_tasks,
    build_matrix,
    canonical_cells,
    write_merged_trace,
)
from repro.par.engine import run_cells

SEEDS = (1, 2, 7)

#: Small-but-representative fault matrix: one slave-side and one
#: master-side fault kind under divergent policies.
FM_ARGS = dict(benchmark="fft", kinds=("crash", "drop_wake"),
               policies=("kill-all", "quarantine"), scale=0.05)


def fault_cells_structural(cells) -> list[dict]:
    return [dataclasses.asdict(cell) for cell in cells]


def race_rows_structural(rows) -> list[dict]:
    return [{key: value
             for key, value in dataclasses.asdict(row).items()
             if key != "overhead_pct"}
            for row in rows]


class TestFaultMatrixEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_jobs4_equals_jobs1(self, seed):
        serial = run_fault_matrix(seed=seed, jobs=1, **FM_ARGS)
        parallel = run_fault_matrix(seed=seed, jobs=4, **FM_ARGS)
        assert (fault_cells_structural(parallel)
                == fault_cells_structural(serial))
        # The rendered table (the user-visible artifact) matches too.
        assert fault_matrix_table(parallel) == fault_matrix_table(serial)

    def test_jobs_exceeding_cells_is_fine(self):
        serial = run_fault_matrix(seed=3, jobs=1, **FM_ARGS)
        oversubscribed = run_fault_matrix(seed=3, jobs=32, **FM_ARGS)
        assert (fault_cells_structural(oversubscribed)
                == fault_cells_structural(serial))


class TestRaceSweepEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_jobs4_equals_jobs1(self, seed):
        kwargs = dict(benchmarks=("fft", "dedup"), scale=0.05,
                      seed=seed, include_nginx=False)
        serial = run_race_sweep(jobs=1, **kwargs)
        parallel = run_race_sweep(jobs=4, **kwargs)
        assert (race_rows_structural(parallel)
                == race_rows_structural(serial))

    def test_nginx_conditions_equal_across_workers(self):
        kwargs = dict(benchmarks=("fft",), scale=0.05, seed=1,
                      include_nginx=True)
        serial = run_race_sweep(jobs=1, **kwargs)
        parallel = run_race_sweep(jobs=4, **kwargs)
        assert [row.workload for row in parallel] == \
            ["fft", "nginx/bare", "nginx/full"]
        assert (race_rows_structural(parallel)
                == race_rows_structural(serial))
        # The rendered sweep table differs only in the overhead column.
        serial_rows = race_sweep_table(serial).splitlines()
        parallel_rows = race_sweep_table(parallel).splitlines()
        assert len(serial_rows) == len(parallel_rows)


class TestTableEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_table2_jobs4_equals_jobs1(self, seed):
        serial = table2(scale=0.05, seed=seed, jobs=1)
        parallel = table2(scale=0.05, seed=seed, jobs=4)
        assert parallel == serial


class TestBenchMatrixEquivalence:
    """The `repro bench` task list itself: sharded == inline, and the
    aggregate is independent of worker count."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quick_matrix_jobs_invariant(self, seed):
        matrix = build_matrix(quick=True, seed=seed)
        reset_caches()
        serial = canonical_cells(run_cells(bench_tasks(matrix), jobs=1))
        reset_caches()
        two = canonical_cells(run_cells(bench_tasks(matrix), jobs=2))
        reset_caches()
        four = canonical_cells(run_cells(bench_tasks(matrix), jobs=4))
        assert serial == two == four
        assert all(cell["verdict"] == "clean" for cell in serial)


class TestObsTraceMerging:
    def test_parallel_traces_match_serial(self, tmp_path):
        """Per-worker obs traces, merged in cell order, are identical to
        the traces an inline run writes."""
        matrix = build_matrix(quick=True, seed=1)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_cells(bench_tasks(matrix, with_obs=True), jobs=1,
                           trace_dir=str(serial_dir))
        parallel = run_cells(bench_tasks(matrix, with_obs=True), jobs=2,
                             trace_dir=str(parallel_dir))
        with open(write_merged_trace(serial, str(serial_dir))) as handle:
            merged_serial = handle.read()
        with open(write_merged_trace(parallel, str(parallel_dir))) as handle:
            merged_parallel = handle.read()
        assert json.loads(merged_serial)["traceEvents"]
        assert merged_serial == merged_parallel
