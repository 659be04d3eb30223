"""The overhead gate: telemetry measures its own host cost."""

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
        timed run of both arms call into the simulator."""
        calls = []
        real_build_mvee = run.build_mvee

        def counting_build_mvee(*args, **kwargs):
            calls.append(1)
            return real_build_mvee(*args, **kwargs)

        monkeypatch.setattr(run, "build_mvee", counting_build_mvee)
        task = bench_tasks(build_matrix(quick=True, scale=0.02))[0]
        repeats = 2
        block = measure_cell_overhead(task, repeats=repeats)
        assert len(calls) == 1 + 2 * repeats
        assert block["digest_identical"] is True
