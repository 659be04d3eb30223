"""``repro.prof`` — cycle-accounting profiler, lag analytics, perf gate.

Three layers (see ``docs/PROFILING.md``):

* :mod:`repro.prof.accounting` — :class:`CycleProfiler` attributes every
  simulated cycle a variant thread spends to a category (guest compute,
  syscall service, agent waits, monitor ordering, futex sleeps, core
  queueing, fault recovery) via the ObsHub hook stream; snapshots are
  deterministic :class:`CycleProfile` objects.
* :mod:`repro.prof.analytics` — cross-variant lag series (the quantity
  wall-of-clocks exists to shrink), collapsed-stack flamegraph output,
  and markdown comparison reports.
* :mod:`repro.prof.regress` — the one report contract of ``repro
  bench`` and ``repro serve bench``: hard checks, digest identity,
  profile category shifts, warn-only host metrics, and trajectory
  accumulation.

Attach a profiler with ``ObsHub(profile=True)``; it obeys the same
zero-cost contract as the rest of ``repro.obs`` — no simulated cycles
charged, no randomness consumed, timeline byte-identical when detached.
"""

from repro.prof.accounting import (
    CATEGORIES,
    CycleProfile,
    CycleProfiler,
    classify_wait_key,
)
from repro.prof.analytics import (
    LagTracker,
    collapsed_lines,
    render_report,
    write_flamegraph,
    write_lag_series,
)
from repro.prof.regress import (
    Finding,
    check,
    exit_code,
    load_report,
    render_findings,
    trajectory_entry,
)
from repro.prof.runner import PROFILE_AGENTS, profile_result, run_profiles

__all__ = [
    "CATEGORIES",
    "CycleProfile",
    "CycleProfiler",
    "classify_wait_key",
    "LagTracker",
    "collapsed_lines",
    "render_report",
    "write_flamegraph",
    "write_lag_series",
    "Finding",
    "check",
    "exit_code",
    "load_report",
    "render_findings",
    "trajectory_entry",
    "PROFILE_AGENTS",
    "profile_result",
    "run_profiles",
]
