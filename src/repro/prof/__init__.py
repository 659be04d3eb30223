"""``repro.prof`` — cycle-accounting profiler, lag analytics, perf gate.

Three layers (see ``docs/PROFILING.md``):

* :mod:`repro.prof.accounting` —
  :class:`~repro.prof.accounting.CycleProfiler` attributes every
  simulated cycle a variant thread spends to a category (guest compute,
  syscall service, agent waits, monitor ordering, futex sleeps, core
  queueing, fault recovery) from the machine's hook table; snapshots are
  deterministic :class:`~repro.prof.accounting.CycleProfile` objects.
* :mod:`repro.prof.analytics` — cross-variant lag series (the quantity
  wall-of-clocks exists to shrink), collapsed-stack flamegraph output,
  and markdown comparison reports.
* :mod:`repro.prof.regress` — the one report contract of ``repro
  bench`` and ``repro serve bench``: hard checks, digest identity,
  profile category shifts, warn-only host metrics, and trajectory
  accumulation.

Attach a profiler like any other hook-table consumer, with
``MVEE(consumers=(CycleProfiler(),))`` (``run_spec_cell`` does so for
its ``profile`` extra); it obeys the zero-cost contract of every
consumer — no simulated cycles charged, no randomness consumed,
timeline byte-identical when detached.
"""
