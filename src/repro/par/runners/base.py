"""The runner protocol shared by every execution environment."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.par.cells import CellResult, CellTask


class Runner(ABC):
    """Execute a batch of cells; results come back in task-list order.

    The contract every environment's runner honours:

    * **order** — ``run`` returns one :class:`CellResult` per task, in
      task-list position order, regardless of completion order;
    * **failure shape** — a cell that raises, crashes its worker, or
      stalls yields a failed result in its slot; sibling cells are
      untouched and ``run`` itself raises only for infrastructure bugs;
    * **purity** — runners never mutate tasks; a cell's output depends
      on its task alone, which is what makes environments digest-
      interchangeable.

    ``close`` releases only resources the runner *owns* (a private
    pool); shared pools outlive their runners.
    """

    #: Environment name this runner was built for (diagnostics).
    env_name: str = "?"

    @abstractmethod
    def run(self, tasks: list[CellTask],
            trace_dir: str | None = None) -> list[CellResult]:
        """Execute every task; return results in task-list order."""

    def close(self) -> None:
        """Release owned resources (idempotent; default: nothing)."""

    def stats(self) -> dict:
        """Plain-data diagnostics from the most recent ``run``."""
        return {"environment": self.env_name}
