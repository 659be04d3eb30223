"""The overhead gate: telemetry measures its own host cost."""

import pytest

from repro import run
from repro.par.bench import bench_tasks, build_matrix
from repro.telemetry.overhead import measure_cell_overhead


class TestMeasureCellOverhead:
    def test_block_shape_and_zero_perturbation(self):
        task = bench_tasks(build_matrix(quick=True, scale=0.02))[0]
        block = measure_cell_overhead(task, repeats=1)
        assert block["repeats"] == 1
        assert block["cell"]["sweep_id"] == task.sweep_id
        assert block["bare_wall_s"] > 0
        assert block["traced_wall_s"] > 0
        assert isinstance(block["overhead_frac"], float)
        # The traced arm actually recorded host spans...
        assert block["spans_recorded"] >= 1
        # ...and the simulated outputs did not move: the contract.
        assert block["digest_identical"] is True

    def test_every_timed_run_simulates(self, monkeypatch):
        """Neither arm may time a memo-cache hit: the warmup and each
        timed run of both arms call into the simulator, and the arms
        alternate bare, traced, bare, traced so host drift hits both."""
        from repro.telemetry import spans

        traced = []
        real_build_mvee = run.build_mvee

        def counting_build_mvee(*args, **kwargs):
            traced.append(spans.enabled())
            return real_build_mvee(*args, **kwargs)

        monkeypatch.delenv(spans.ENV_DIR, raising=False)
        monkeypatch.setattr(run, "build_mvee", counting_build_mvee)
        task = bench_tasks(build_matrix(quick=True, scale=0.02))[0]
        repeats = 2
        block = measure_cell_overhead(task, repeats=repeats)
        assert traced == [False] + [False, True] * repeats
        assert block["repeats"] == repeats
        assert block["digest_identical"] is True

    def test_overhead_is_median_of_pair_deltas(self, monkeypatch):
        """The reported fraction is the median of the per-pair deltas,
        so one fast outlier run in either arm cannot set it."""
        from repro.telemetry import overhead

        # Walls of the timed runs: bare, traced, bare, traced, ...
        walls = [2.0, 2.2, 1.0, 1.6, 2.0, 2.2]
        stamps = iter(stamp for wall in walls for stamp in (0.0, wall))

        class FakeTime:
            @staticmethod
            def perf_counter():
                return next(stamps)

        monkeypatch.setattr(overhead, "time", FakeTime)
        task = bench_tasks(build_matrix(quick=True, scale=0.02))[0]
        block = measure_cell_overhead(task, repeats=3)
        assert block["bare_wall_s"] == 2.0
        assert block["traced_wall_s"] == 2.2
        assert block["overhead_frac"] == pytest.approx(0.1)
