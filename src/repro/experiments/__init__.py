"""Experiment harness: grids, caching, and paper-style tables/figures."""

from repro.experiments.runner import (
    ExperimentResult,
    run_benchmark_grid,
)
from repro.experiments.tables import (
    figure5_series,
    table1,
    table2,
    table3,
)

__all__ = [
    "ExperimentResult",
    "run_benchmark_grid",
    "table1",
    "table2",
    "table3",
    "figure5_series",
]
