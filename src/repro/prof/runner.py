"""Profile runs: one MVEE execution per agent, through the parallel engine.

A *profile cell* is a pure function of ``(benchmark, agent, variants,
scale, seed)`` returning a plain dict — every field is a simulated
quantity (no host wall-clock), so cells are picklable, cacheable, and
byte-identical whether they ran inline or in a forked worker.  The
``repro profile`` CLI fans the requested agents out via
:func:`repro.par.engine.run_cells` and renders flamegraph/lag/report
artifacts from the results *in cell order*, which makes the artifacts
deterministic in ``--jobs``.

Every cell builds through :func:`repro.run.build_mvee`.  ``nginx`` is
the §5.5 server workload (network + traffic driver), not a synthetic
twin: it runs at the §5.5 sizing, fully instrumented, and has no native
baseline.
"""

from __future__ import annotations

from repro.obs import ObsHub
from repro.par.engine import CellTask, raise_failures, run_cells
from repro.run import NGINX_PAPER_SIZING, RunSpec, build_mvee

#: Agents `repro profile` compares (the paper's three main mechanisms).
PROFILE_AGENTS = ("total_order", "partial_order", "wall_of_clocks")


def profile_cell(benchmark: str, agent: str, variants: int,
                 scale: float, seed: int,
                 lag_sample_every: int = 1) -> dict:
    """Run one profiled MVEE execution (module-level: pickled by
    reference into engine workers) and return a plain-data result."""
    hub = ObsHub(trace=False, profile=True,
                 lag_sample_every=lag_sample_every)
    spec = RunSpec(benchmark, agent=agent, variants=variants, seed=seed,
                   scale=scale,
                   params=NGINX_PAPER_SIZING if benchmark == "nginx" else {})
    mvee, native = build_mvee(spec, obs=hub)
    outcome = mvee.run()
    hub.prof.finalize(outcome.machine.now)
    profile = hub.prof.snapshot()
    return {
        "benchmark": benchmark,
        "agent": agent,
        "variants": variants,
        "scale": scale,
        "seed": seed,
        "verdict": outcome.verdict,
        "machine_cycles": outcome.cycles,
        "native_cycles": native,
        "slowdown": (outcome.cycles / native) if native else None,
        "profile": profile.to_dict(),
        "lag": profile.lag,
    }


def run_profiles(benchmark: str, agents, variants: int = 2,
                 scale: float = 0.25, seed: int = 1, jobs: int = 1,
                 env: str | None = None,
                 lag_sample_every: int = 1) -> list[dict]:
    """Profile ``benchmark`` under each agent; results in agent order.

    Each cell gets the user's seed unchanged (cells differ by agent, so
    derivation is unnecessary and identical seeds keep runs comparable);
    ``jobs`` shards cells across workers in the ``env`` execution
    environment without changing the output.
    """
    tasks = [CellTask(sweep_id="profile", index=index, fn=profile_cell,
                      kwargs=dict(benchmark=benchmark, agent=agent,
                                  variants=variants, scale=scale,
                                  seed=seed,
                                  lag_sample_every=lag_sample_every))
             for index, agent in enumerate(agents)]
    results = raise_failures(run_cells(tasks, jobs=jobs, env=env))
    return [result.value for result in results]
