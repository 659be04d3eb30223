"""Inline runner: the calling thread, one cell at a time."""

from __future__ import annotations

from repro.par.cells import CellResult, CellTask, execute_cell
from repro.par.runners.base import Runner


class InlineRunner(Runner):
    """The serial oracle: no pool, no scheduler.

    The process environment is tested for digest-equality against this
    one; it is also what ``jobs<=1`` resolves to everywhere, preserving
    the historical serial behaviour (including memo-cache hits, which
    live in the calling process).
    """

    env_name = "inline"

    def run(self, tasks: list[CellTask],
            trace_dir: str | None = None) -> list[CellResult]:
        return [execute_cell(task, trace_dir) for task in tasks]
