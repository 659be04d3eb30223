"""Tests for the experiment runner and table generators."""

import pytest

from repro import run
from repro.experiments.runner import (
    ExperimentResult,
    native_cycles,
    reset_caches,
    run_benchmark_grid,
)
from repro.experiments.tables import (
    figure5_series,
    table1,
    table2,
    table3,
)
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


#: ``table2(scale=0.05)``: Table 2's rows read the memoized native
#: baseline of ``repro.run``; the text is pinned byte for byte.
PINNED_TABLE2 = (
    'Table 2: native run times and event rates (measured (paper))\n'
    'benchmark        paper runtime (s)  slice (ms)  syscalls K/s (paper)  sync ops K/s (paper) \n'
    '-------------------------------------------------------------------------------------------\n'
    'blackscholes        80.83             13.201        3.79 (    2.55)        0.00 (     0.00)\n'
    'bodytrack           60.06              1.444       21.47 (    8.59)      160.70 (   202.36)\n'
    'dedup               18.29              0.567      321.21 (  134.27)      660.08 (  1052.45)\n'
    'facesim            142.52              1.011       24.74 (    4.14)      229.56 (   288.75)\n'
    'ferret             103.79              4.064       51.42 (    2.29)      141.72 (   225.10)\n'
    'fluidanimate        93.19              0.082      315.26 (    0.45)     7275.30 ( 12746.59)\n'
    'freqmine           168.66             54.204        0.15 (    0.35)        0.59 (     0.24)\n'
    'raytrace           147.54              3.078        8.12 (    0.78)       75.36 (    88.33)\n'
    'streamcluster      136.05              4.986       12.43 (    5.63)       16.04 (    18.78)\n'
    'swaptions           86.68              0.082      305.22 (    0.01)     2832.44 (  4585.65)\n'
    'vips                37.09              0.897      139.30 (   15.76)      358.84 (   428.69)\n'
    'x264                34.73             16.638        1.50 (    0.50)       13.94 (    15.98)\n'
    'barnes              61.15              0.079      318.44 (   19.61)     3057.03 (  5115.99)\n'
    'fft                 40.26             38.318        1.38 (    0.01)        1.67 (     1.64)\n'
    'fmm                 42.68              0.071      352.49 (    0.91)     3383.86 (  5215.01)\n'
    'lu_cb               51.16             19.664        1.53 (    0.08)        0.81 (     0.23)\n'
    'lu_ncb              73.55             19.057        1.52 (    0.05)        0.84 (     0.16)\n'
    'ocean_cp            39.39             23.807        2.90 (    1.21)        4.03 (     5.05)\n'
    'ocean_ncp           41.68             25.455        2.75 (    1.08)        3.77 (     4.55)\n'
    'radiosity           45.56              0.120      207.85 (   33.42)     7316.17 ( 18252.68)\n'
    'radix               18.22             19.057        1.52 (    0.02)        0.84 (     0.04)\n'
    'raytrace.splash     52.52              0.543       46.01 (    6.63)      427.01 (   536.79)\n'
    'volrend             52.02              0.272       95.64 (   15.86)      853.43 (  1071.25)\n'
    'water_nsquared     182.80             30.949        1.58 (    0.88)        7.50 (     8.61)\n'
    'water_spatial       59.84              0.261      191.69 (  148.27)        0.00 (     9.63)'
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_table2_text_is_pinned(jobs):
    reset_caches()
    assert table2(scale=0.05, jobs=jobs) == PINNED_TABLE2
