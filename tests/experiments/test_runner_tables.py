"""Tests for the experiment runner and table generators."""

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentResult,
    native_cycles,
    reset_caches,
    run_benchmark_grid,
    run_one,
)
from repro.experiments.tables import figure5_series, table1, table3


class TestRunner:
    def test_run_one_produces_clean_cell(self):
        result = run_one("bodytrack", "wall_of_clocks", 2, scale=0.1)
        assert result.verdict == "clean"
        assert result.slowdown > 1.0
        assert result.sync_ops > 0

    def test_cells_are_memoized(self):
        first = run_one("bodytrack", "wall_of_clocks", 2, scale=0.1)
        second = run_one("bodytrack", "wall_of_clocks", 2, scale=0.1)
        assert first is second

    def test_native_cycles_memoized(self):
        assert native_cycles("fft", scale=0.1) == \
            native_cycles("fft", scale=0.1)

    def test_cost_model_mutated_in_place_is_resimulated(self,
                                                        monkeypatch):
        # The memo caches key on the model's field values, not its id:
        # the same object with a changed field is a different model.
        from repro.perf.costs import CostModel

        calls = []
        real_build_mvee = runner.build_mvee

        def counting_build_mvee(spec, **kwargs):
            calls.append(kwargs["costs"].syscall_base)
            return real_build_mvee(spec, **kwargs)

        monkeypatch.setattr(runner, "build_mvee", counting_build_mvee)
        reset_caches()
        costs = CostModel()
        first = run_one("fft", "wall_of_clocks", 2, scale=0.05,
                        costs=costs)
        costs.syscall_base *= 4
        second = run_one("fft", "wall_of_clocks", 2, scale=0.05,
                         costs=costs)
        assert calls == [400.0, 1600.0]
        assert second.native_cycles != first.native_cycles
        assert second.mvee_cycles != first.mvee_cycles

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
