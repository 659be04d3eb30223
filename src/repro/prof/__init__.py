"""``repro.prof`` — cycle-accounting profiler, lag analytics, perf gate.

Three layers (see ``docs/PROFILING.md``):

* :mod:`repro.prof.accounting` —
  :class:`~repro.prof.accounting.CycleProfiler` attributes every
  simulated cycle a variant thread spends to a category (guest compute,
  syscall service, agent waits, monitor ordering, futex sleeps, core
  queueing, fault recovery) via the ObsHub hook stream; snapshots are
  deterministic :class:`~repro.prof.accounting.CycleProfile` objects.
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
