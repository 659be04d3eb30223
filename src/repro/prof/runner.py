"""Profile runs: one MVEE execution per agent, through the parallel engine.

A profile is the ``profile`` extra of :func:`repro.run.run_spec_cell`,
all simulated quantities, so results are byte-identical whether cells
ran inline or in a forked worker, and the artifacts ``repro profile``
renders from them *in cell order* are deterministic in ``--jobs``.
``nginx`` is the §5.5 server (network + traffic driver) at the §5.5
sizing, fully instrumented, with no native baseline.
"""

from __future__ import annotations

from repro.par.engine import run_specs
from repro.run import NGINX_PAPER_SIZING, RunSpec

#: Agents `repro profile` compares (the paper's three main mechanisms).
PROFILE_AGENTS = ("total_order", "partial_order", "wall_of_clocks")


def profile_result(record) -> dict:
    """The profile dict of a record run with the ``profile`` extra."""
    spec = record.spec
    profile = record.extras["profile"]
    native = record.native_cycles
    return {
        "benchmark": spec.workload,
        "agent": spec.agent,
        "variants": spec.variants,
        "scale": spec.scale,
        "seed": spec.seed,
        "verdict": record.verdict,
        "machine_cycles": record.cycles,
        "native_cycles": native,
        "slowdown": (record.cycles / native) if native else None,
        "profile": profile,
        "lag": profile["lag"],
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
    params = NGINX_PAPER_SIZING if benchmark == "nginx" else {}
    records = run_specs("profile", [
        {"spec": RunSpec(benchmark, agent=agent, variants=variants,
                         seed=seed, scale=scale, params=params),
         "outputs": {"profile": lag_sample_every}}
        for agent in agents], jobs=jobs, env=env)
    return [profile_result(record) for record in records]
