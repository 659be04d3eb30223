"""sweep-syscall: one closed ``run_cells`` batch per rep on a process pool.

The path ``repro bench`` and ``fig5 --jobs N`` take: syscall-heavy
pipeline twins at mixed scales, so per-cell cost spans about 100x and
the steal scheduler has work to move.  Monitor, kernel, pool dispatch,
stealing and result transport all matter; no obs hub is attached.
Cells call ``run_mvee`` through :func:`perfbench.common.mvee_cell`,
never through the memoized ``run_one``, so persistent workers
re-simulate every rep.
"""

from __future__ import annotations

import time

from perfbench import common

NAME = "sweep-syscall"
BENCHMARKS = ("dedup", "ferret", "vips", "streamcluster", "blackscholes")
#: (scale, variants) per benchmark: two small slices and a large one.
#: Cells cost 0.01-0.6 s, so a rep takes under two seconds and a run
#: has enough reps for a steady median; 15 cells, an odd count, so the
#: median cell time is one cell's, not the seam between two.
SHAPES = ((0.1, 2), (0.1, 3), (0.4, 3))
AGENT = "wall_of_clocks"
JOBS = 2
ENV = "process"
#: See mvee_sync.NOMINAL_REP_S.
NOMINAL_REP_S = 1.4
#: Cheap cells re-executed in the parent after timing, as an inline
#: oracle for the pool path.
ORACLE_CELLS = (0, 1, 13)


def cells(seed: int) -> list[dict]:
    specs = []
    for bench in BENCHMARKS:
        for scale, variants in SHAPES:
            specs.append({"benchmark": bench, "scale": scale,
                          "agent": AGENT, "variants": variants,
                          "seed": common.derive_seed(NAME, seed,
                                                     len(specs))})
    return specs


def _tasks(fn, kwargs_list: list[dict], sweep_id: str) -> list:
    from repro.par.cells import CellTask

    return [CellTask(sweep_id=sweep_id, index=index, fn=fn, kwargs=kwargs)
            for index, kwargs in enumerate(kwargs_list)]


def setup() -> None:
    """Import, then fork the shared pool's workers and warm them: cell
    ``i`` starts on worker ``i % JOBS``, so each worker runs a tiny cell
    of every benchmark before the first timed rep."""
    from repro.par import engine

    warm = [{"spec": {"benchmark": bench, "scale": common.WARM_SCALE,
                      "agent": AGENT, "variants": SHAPES[0][1], "seed": 0}}
            for bench in BENCHMARKS for _ in range(JOBS)]
    results = engine.run_cells(
        _tasks(common.mvee_cell, warm, common.WARM_UP), jobs=JOBS, env=ENV)
    if not all(result.ok for result in results):
        raise RuntimeError("pool warm-up failed")


def teardown(context=None) -> None:
    from repro.par.pool import shutdown_shared_pools

    shutdown_shared_pools()


def run_rep(specs: list[dict], label: str) -> dict:
    from repro.par import engine

    tasks = _tasks(common.mvee_cell, [{"spec": spec} for spec in specs], label)
    start = time.perf_counter()
    results = engine.run_cells(tasks, jobs=JOBS, env=ENV)
    wall = time.perf_counter() - start
    return {"wall_s": wall,
            "latencies": [result.duration_s for result in results],
            "records": [result.value if result.ok
                        else ["failed", result.error, 0, 0]
                        for result in results]}


def oracle(specs: list[dict], records: list) -> list[str]:
    """Re-run sampled cells inline; name every one that differs."""
    return [f"cell {index}: pool {records[index]} != inline {expected}"
            for index in ORACLE_CELLS
            if (expected := common.mvee_cell(specs[index])) != records[index]]


def reps_for(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_REP_S))
