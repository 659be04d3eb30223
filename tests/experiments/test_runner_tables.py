"""Tests for the experiment runner and table generators."""

import pytest

from repro import run
from repro.experiments.runner import (
    ExperimentResult,
    native_cycles,
    reset_caches,
    run_benchmark_grid,
)
from repro.experiments.tables import figure5_series, table1, table3
from repro.run import RunSpec, run_spec_cell


class TestRunner:
    def test_run_one_produces_clean_cell(self):
        result = ExperimentResult.of(run_spec_cell(
            RunSpec("bodytrack", agent="wall_of_clocks", variants=2,
                    scale=0.1)))
        assert result.verdict == "clean"
        assert result.slowdown > 1.0
        assert result.sync_ops > 0

    def test_cells_are_memoized(self):
        # The memo lives in the one cell function; equal specs (by
        # value, not identity) hit the same record.
        first = run_spec_cell(RunSpec("bodytrack", variants=2, scale=0.1))
        second = run_spec_cell(RunSpec("bodytrack", variants=2, scale=0.1))
        assert first is second

    def test_spec_lists_are_run_fresh(self):
        # A list of specs runs back to back, unmemoized: the race
        # sweep's twins compare host walls taken in one call.
        spec = RunSpec("fft", variants=2, scale=0.05)
        first, = run_spec_cell([spec])
        again, = run_spec_cell([spec])
        assert first is not again and first == again

    def test_native_cycles_memoized(self):
        assert native_cycles("fft", scale=0.1) == \
            native_cycles("fft", scale=0.1)

    def test_cost_model_mutated_in_place_is_resimulated(self,
                                                        monkeypatch):
        # The memo caches key on the model's field values, not its id:
        # the same object with a changed field is a different model.
        from repro.perf.costs import CostModel

        calls = []
        real_build_mvee = run.build_mvee

        def counting_build_mvee(spec, **kwargs):
            calls.append(kwargs["costs"].syscall_base)
            return real_build_mvee(spec, **kwargs)

        monkeypatch.setattr(run, "build_mvee", counting_build_mvee)
        reset_caches()
        costs = CostModel()
        spec = RunSpec("fft", variants=2, scale=0.05)
        first = run_spec_cell(spec, costs=costs)
        costs.syscall_base *= 4
        second = run_spec_cell(spec, costs=costs)
        assert calls == [400.0, 1600.0]
        assert second.native_cycles != first.native_cycles
        assert second.cycles != first.cycles
        # The first record kept its own copy of the model, so its
        # keywords still rebuild its run after the caller's mutation.
        mvee, _ = real_build_mvee(first.spec, **first.build_keywords)
        assert mvee.run().cycles == first.cycles

    def test_grid_covers_requested_cells(self):
        results = run_benchmark_grid(benchmarks=["fft", "x264"],
                                     agents=("wall_of_clocks",),
                                     variant_counts=(2,), scale=0.1)
        assert {(r.benchmark, r.agent, r.variants) for r in results} == {
            ("fft", "wall_of_clocks", 2), ("x264", "wall_of_clocks", 2)}

    def test_to_slowdown_round_trip(self):
        result = ExperimentResult(
            benchmark="b", agent="a", variants=2, native_cycles=10.0,
            mvee_cycles=15.0, verdict="clean", sync_ops=0, syscalls=0,
            stall_cycles=0.0)
        assert result.to_slowdown().slowdown == pytest.approx(1.5)


class TestTables:
    def test_table1_renders_measured_and_paper(self):
        results = run_benchmark_grid(benchmarks=["fft"],
                                     variant_counts=(2,), scale=0.1)
        text = table1(results)
        assert "Table 1" in text
        assert "paper 1.14x" in text
        assert "wall_of_clocks" in text

    def test_figure5_renders_all_benchmarks(self):
        results = run_benchmark_grid(benchmarks=["fft"],
                                     variant_counts=(2,), scale=0.1)
        text = figure5_series(results)
        assert "fft" in text
        assert "radiosity" in text  # listed even when not run ('-')

    def test_table3_matches_paper_inline(self):
        text = table3()
        assert "libc-2.19.so" in text
        assert "319 (319)" in text
