"""repro — reproduction of "Taming Parallelism in a Multi-Variant
Execution Environment" (Volckaert et al., EuroSys 2017).

The package simulates a multi-core machine running diversified program
variants under a security-oriented MVEE, and implements the paper's
contribution — MVEE-aware synchronization-agent replication (total-order,
partial-order, and wall-of-clocks agents) — together with every substrate
it depends on: a virtual kernel, a nondeterministic thread scheduler, the
guest runtime libraries, the sync-op identification analyses, diversity
transforms, and the DMT / record-replay baselines.

Quick start::

    from repro.core.mvee import run_mvee
    from repro.workloads.synthetic import make_benchmark

    program = make_benchmark("dedup")
    outcome = run_mvee(program, variants=2, agent="wall_of_clocks")
    print(outcome.verdict)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

__version__ = "1.0.0"
