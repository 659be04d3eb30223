"""Simulated operating-system substrate.

The paper's MVEE (ReMon) interposes on the system calls of real Linux
processes via ptrace.  This package provides the equivalent surface for the
reproduction: a small, deterministic virtual kernel per variant, backed by a
shared virtual "disk" so that all variants observe identical program inputs.

Public entry points:

* :class:`repro.kernel.kernel.VirtualKernel` — per-variant kernel state and
  syscall dispatch.
* :class:`repro.kernel.fs.VirtualDisk` — host-side file store shared between
  variants (the common input source / output sink).
* :data:`repro.kernel.syscalls.SYSCALL_TABLE` — the syscall catalogue with
  per-call monitoring classification (ordered / replicated / blocking ...).
"""
