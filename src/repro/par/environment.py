"""Execution environments: where a batch of cells runs.

One object decides *how* cells execute and builds the matching runner;
every driver in the repo — ``run_cells``, the serve daemon's
:class:`~repro.par.engine.CellExecutor`, the fault matrix, the race and
deadlock sweeps, ``table2``, the Figure 5 grid, ``repro bench`` and
``repro profile`` — picks it with a single ``--env`` flag:

========================  ==============================================
``inline``                calling thread, serial; the determinism oracle
``process``               persistent forked worker pool + work stealing;
                          crash isolation, shared-memory results
                          (the default for ``jobs>1``)
========================  ==============================================

The cycle-identity contract: **both environments produce the same
canonical digest.**  An environment chooses where and when a cell runs;
the cell's output is a pure function of its task (seeds derive from the
cell index, aggregation is slotted by task position), so the choice can
never leak into results.  ``tests/par/test_env_equivalence.py`` pins
this for every sweep family in the repo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.par.pool import WorkerPool, shared_pool
from repro.par.runners.base import Runner
from repro.par.runners.inline import InlineRunner
from repro.par.runners.process import ProcessRunner

__all__ = [
    "ExecutionEnvironment",
    "InlineEnvironment",
    "ProcessEnvironment",
    "ENVIRONMENT_NAMES",
    "environment_for",
    "resolve_environment",
]


class ExecutionEnvironment(ABC):
    """How a batch of cells executes: a factory for its runner."""

    #: Registry name (what ``--env`` selects).
    name: str = "?"

    @abstractmethod
    def make_runner(self, jobs: int,
                    stall_timeout_s: float | None = None) -> Runner:
        """Build a runner for ``jobs``-wide execution."""


class InlineEnvironment(ExecutionEnvironment):
    """Serial execution in the calling thread (the oracle)."""

    name = "inline"

    def make_runner(self, jobs: int = 1,
                    stall_timeout_s: float | None = None) -> Runner:
        return InlineRunner()


class ProcessEnvironment(ExecutionEnvironment):
    """Persistent forked worker pool with work stealing.

    By default runners borrow the process-wide :func:`shared_pool` for
    their worker count — that is what makes consecutive sweeps reuse
    warm workers.  Pass ``pool=`` for a private pool (the benchmark
    does, to measure cold vs warm honestly).
    """

    name = "process"

    def __init__(self, pool: WorkerPool | None = None):
        self._pool = pool

    def make_runner(self, jobs: int,
                    stall_timeout_s: float | None = None) -> Runner:
        pool = self._pool if self._pool is not None \
            else shared_pool(max(1, jobs))
        return ProcessRunner(pool, stall_timeout_s=stall_timeout_s)


_REGISTRY = {
    "inline": InlineEnvironment,
    "process": ProcessEnvironment,
}

#: Valid ``--env`` values, in documentation order.
ENVIRONMENT_NAMES = tuple(_REGISTRY)


def environment_for(name: str) -> ExecutionEnvironment:
    """The environment registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution environment {name!r}; choose from "
            f"{', '.join(ENVIRONMENT_NAMES)}") from None
    return factory()


def resolve_environment(env, jobs: int) -> ExecutionEnvironment:
    """Normalise an ``env`` argument (name, instance, or ``None``).

    ``None`` keeps the historical behaviour: serial for ``jobs<=1``,
    the process pool otherwise.
    """
    if env is None:
        return environment_for("inline" if jobs <= 1 else "process")
    if isinstance(env, ExecutionEnvironment):
        return env
    return environment_for(env)
