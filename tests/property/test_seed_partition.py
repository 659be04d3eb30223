"""Property-based tests for the parallel engine's seed partitioning.

The engine's determinism contract rests on ``derive_cell_seed``: every
sweep cell gets a seed that is a pure function of ``(sweep_id,
cell_index, base_seed)``, so the same sweep yields bit-identical cells
whether it runs inline, across 2 workers, or across 32 — and no two
cells of one sweep ever share a seed.  Hypothesis drives the algebraic
claims; the final class checks the crash-isolation property end to end
with real forked workers.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.par.engine import CellTask, run_cells
from repro.par.seeds import derive_cell_seed

sweep_ids = st.text(min_size=1, max_size=24)
indices = st.integers(min_value=0, max_value=10_000)
base_seeds = st.integers(min_value=0, max_value=2**32)


class TestDerivationLaws:
    @given(sweep_ids, indices, base_seeds)
    def test_range(self, sweep_id, index, base_seed):
        seed = derive_cell_seed(sweep_id, index, base_seed)
        assert 0 <= seed < 2**63

    @given(sweep_ids, indices, base_seeds)
    def test_pure_function(self, sweep_id, index, base_seed):
        assert (derive_cell_seed(sweep_id, index, base_seed)
                == derive_cell_seed(sweep_id, index, base_seed))

    @given(sweep_ids, base_seeds,
           st.lists(indices, min_size=2, max_size=50, unique=True))
    def test_injective_over_cell_index(self, sweep_id, base_seed, cells):
        """Distinct cells of one sweep never collide."""
        seeds = [derive_cell_seed(sweep_id, index, base_seed)
                 for index in cells]
        assert len(set(seeds)) == len(seeds)

    @given(indices, base_seeds,
           st.lists(sweep_ids, min_size=2, max_size=20, unique=True))
    def test_sweeps_are_independent_streams(self, index, base_seed,
                                            sweeps):
        seeds = [derive_cell_seed(sweep_id, index, base_seed)
                 for sweep_id in sweeps]
        assert len(set(seeds)) == len(seeds)

    @given(sweep_ids, indices,
           st.lists(base_seeds, min_size=2, max_size=20, unique=True))
    def test_base_seed_separates(self, sweep_id, index, seeds):
        derived = [derive_cell_seed(sweep_id, index, base_seed)
                   for base_seed in seeds]
        assert len(set(derived)) == len(derived)

    @given(sweep_ids, base_seeds,
           st.lists(indices, min_size=1, max_size=30, unique=True))
    def test_stable_under_reordering(self, sweep_id, base_seed, cells):
        """A cell's seed does not depend on which other cells exist or
        in what order they are derived — the load balancer may hand
        cells to workers in any order."""
        forward = {index: derive_cell_seed(sweep_id, index, base_seed)
                   for index in cells}
        backward = {index: derive_cell_seed(sweep_id, index, base_seed)
                    for index in reversed(cells)}
        assert forward == backward

    @given(sweep_ids, indices, base_seeds)
    def test_no_separator_confusion(self, sweep_id, index, base_seed):
        """Sweep ids containing digits can't alias a neighbouring
        (index, base_seed) split."""
        a = derive_cell_seed(sweep_id + "1", index, base_seed)
        b = derive_cell_seed(sweep_id, int(f"1{index}"), base_seed)
        assert a != b


def _echo_cell(tag, seed=0):
    return {"tag": tag, "seed": seed, "pid": os.getpid()}


def _crash_cell(tag, seed=0):
    os._exit(17)


def _seeded_task(sweep_id, index, fn):
    """A cell whose derived seed rides in its kwargs."""
    seed = derive_cell_seed(sweep_id, index, 0)
    return CellTask(sweep_id=sweep_id, index=index, fn=fn, seed=seed,
                    kwargs={"tag": f"cell{index}", "seed": seed})


class TestCrashIsolation:
    """A dying worker fails its own cell only; sibling cells still
    return exactly what a serial run returns."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=3))
    def test_single_crash_isolated(self, crash_at):
        def tasks():
            return [_seeded_task(
                        "crashy", index,
                        _crash_cell if index == crash_at else _echo_cell)
                    for index in range(4)]

        serial = run_cells(
            [task for task in tasks() if task.index != crash_at],
            jobs=1)
        parallel = run_cells(tasks(), jobs=4)

        assert not parallel[crash_at].ok
        assert "worker died" in parallel[crash_at].error
        survivors = [result for result in parallel if result.ok]
        assert len(survivors) == 3
        # Survivors carry the same payloads (minus worker pids) the
        # serial run produced — indices and derived seeds included.
        def canon(results):
            return [(result.index,
                     result.value["tag"], result.value["seed"])
                    for result in results]
        assert canon(survivors) == canon(serial)

    def test_all_results_positionally_ordered(self):
        tasks = [_seeded_task("order", index, _echo_cell)
                 for index in range(6)]
        for jobs in (1, 3):
            results = run_cells(tasks, jobs=jobs)
            assert [result.index for result in results] == list(range(6))
            assert [result.value["tag"] for result in results] \
                == [f"cell{index}" for index in range(6)]
