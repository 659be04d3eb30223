"""mvee-sync: serial in-process ``run_mvee`` calls on sync-bound twins.

A closed loop with one caller, the path ``repro run`` and ``repro
table``/``fig5 --jobs 1`` take.  One rep runs every (benchmark, agent,
variants) cell once; reps repeat the same inputs, so every rep must
re-simulate to the same digest.  The sched step loop, agents, buffers
and contention tracking do almost all the work; monitor and kernel are
nearly idle and par, serve and obs are bypassed.
"""

from __future__ import annotations

import time

from perfbench import common

NAME = "mvee-sync"
BENCHMARKS = ("radiosity", "fluidanimate", "barnes")
AGENTS = ("total_order", "partial_order", "wall_of_clocks")
#: Three variant counts, so the median call is not the seam between two
#: groups of calls whose costs differ by half.
VARIANTS = (2, 3, 4)
#: Slice scale: large enough that syscalls stay under 2% of sync ops.
SCALE = 0.4
#: Typical host seconds of one rep on the 2-core x86-64 host the
#: benchmark was defined on (it drifted between 4.9 and 8.3 s).  It only
#: fixes the rep count per ``--seconds``, so both sides of a comparison
#: do the same work.
NOMINAL_REP_S = 6.0


def cells(seed: int) -> list[dict]:
    specs = []
    for bench in BENCHMARKS:
        for agent in AGENTS:
            for variants in VARIANTS:
                specs.append({"benchmark": bench, "scale": SCALE,
                              "agent": agent, "variants": variants,
                              "seed": common.derive_seed(NAME, seed,
                                                         len(specs))})
    return specs


def warm_cells() -> list[dict]:
    """One tiny cell per benchmark, each with another agent."""
    return [{"benchmark": bench, "scale": common.WARM_SCALE, "agent": agent,
             "variants": VARIANTS[0], "seed": 0}
            for bench, agent in zip(BENCHMARKS, AGENTS, strict=True)]


def setup() -> None:
    """Import, then run the warm-up cells, so lazy imports and first-call
    costs land in set-up rather than in the first timed rep."""
    for spec in warm_cells():
        common.mvee_cell(spec)


def teardown(context=None) -> None:
    pass


def run_rep(specs: list[dict], label: str) -> dict:
    latencies, records = [], []
    start = time.perf_counter()
    for spec in specs:
        began = time.perf_counter()
        records.append(common.mvee_cell(spec))
        latencies.append(time.perf_counter() - began)
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "records": records}


def reps_for(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_REP_S))
