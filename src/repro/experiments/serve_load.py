"""The serve load-test scenario: thousands of short nginx sessions.

This module owns the *shape* of the load — which session specs, with
which derived seeds — while :mod:`repro.serve.bench` owns driving them
through a live daemon and measuring throughput/latency.  Splitting it
this way keeps the scenario a pure function: the same
``(sessions, workload, base_seed)`` always produces the same spec list,
so the bench artifact's digest (over per-session verdicts and obs
digests) is reproducible across hosts, worker counts, and daemon
restarts — the same discipline ``repro bench`` applies to the benchmark
matrix (``docs/PERFORMANCE.md``).

Per-session seeds come from :func:`repro.par.seeds.derive_cell_seed`
with sweep id ``"serve-load"``: client threads race to *pick up* specs,
but a session's seed is a function of its position in the scenario, so
scheduling cannot leak into any simulated quantity.
"""

from __future__ import annotations

import hashlib
import json

from repro.par.seeds import derive_cell_seed

#: Sweep id under which load-session seeds are derived.
SWEEP_ID = "serve-load"

#: Default load mix: 2-variant wall-of-clocks nginx — the paper's
#: deployment story (§5.5) at the service's short-session sizing.
DEFAULT_WORKLOAD = "nginx"
DEFAULT_AGENT = "wall_of_clocks"
DEFAULT_VARIANTS = 2


def build_load(sessions: int, workload: str = DEFAULT_WORKLOAD,
               agent: str = DEFAULT_AGENT,
               variants: int = DEFAULT_VARIANTS,
               base_seed: int = 1, scale: float = 0.05,
               params: dict | None = None) -> list[dict]:
    """The scenario: one JSON-safe session spec per load slot."""
    specs = []
    for index in range(sessions):
        spec = {
            "workload": workload,
            "agent": agent,
            "variants": variants,
            "seed": derive_cell_seed(SWEEP_ID, index, base_seed),
        }
        if workload == "nginx":
            if params:
                spec["params"] = dict(params)
        else:
            spec["scale"] = scale
        specs.append(spec)
    return specs


def single_shot(spec: dict) -> dict:
    """Byte-identity oracle: the same spec executed without the daemon.

    Runs the session cell inline (exactly what a batch worker runs,
    exactly what ``repro run`` computes for the same knobs) and returns
    the result dict; tests and the bench's verification mode compare
    its ``verdict`` and ``obs_digest`` against the served result.
    """
    from repro.run import run_spec_cell
    from repro.serve.session import session_result

    return session_result(run_spec_cell(spec, outputs={"obs": None}))


def canonical_outcomes(outcomes: list[dict]) -> list[dict]:
    """Deterministic view of per-session results, in scenario order.

    Keeps only simulated quantities (seed, verdict, cycles, digest) —
    latencies and retry counts are host noise and never enter the
    digest.
    """
    cells = []
    for outcome in outcomes:
        cells.append({
            "index": outcome["index"],
            "seed": outcome["seed"],
            "verdict": outcome.get("verdict"),
            "cycles": outcome.get("cycles"),
            "obs_digest": outcome.get("obs_digest"),
        })
    return sorted(cells, key=lambda cell: cell["index"])


def load_digest(outcomes: list[dict]) -> str:
    """``sha256:`` digest of the canonical per-session outcomes."""
    payload = json.dumps(canonical_outcomes(outcomes), sort_keys=True)
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
