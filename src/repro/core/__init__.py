"""The paper's contribution: the MVEE monitor and synchronization agents.

* :mod:`repro.core.mvee` — top-level orchestration (the ReMon analogue):
  bootstraps N diversified variants, injects agents, runs them in lockstep
  and returns a verdict.
* :mod:`repro.core.monitor` — the strict, security-oriented monitor:
  per-thread rendezvous, argument comparison, I/O replication, and the
  Lamport syscall-ordering clock of Section 4.1.
* :mod:`repro.core.agents` — the three synchronization agents of
  Section 4.5: total-order, partial-order, and wall-of-clocks.
* :mod:`repro.core.relaxed` — a VARAN-style loosely-synchronized monitor
  used as a baseline (works for loosely-coupled threads, fails for
  explicitly communicating ones).
"""
