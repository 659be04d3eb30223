"""Guest programming model and runtime libraries.

Guest programs are written against :class:`repro.guest.program.GuestContext`
— a thin, generator-based API over the simulator's events.  On top of it
this package provides the runtime libraries whose internals matter to the
paper:

* :mod:`repro.guest.sync` — the "libpthread": spinlocks, futex-backed
  mutexes, condition variables, barriers, semaphores, ticket locks and
  rwlocks, all built from tagged atomic instructions;
* :mod:`repro.guest.libc` — the "libc": a malloc arena protected by an
  internal spinlock whose growth issues ``brk`` syscalls (the hidden
  low-level sync ops of Section 3.3), plus printf-style output;
* :mod:`repro.guest.gomp` — a miniature OpenMP runtime (dynamic
  work-sharing loop + barrier) for the freqmine-like workload.
"""
