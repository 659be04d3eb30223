"""``repro.faults`` — seeded, deterministic fault injection.

The paper's monitor treats every anomaly the same way: kill all variants
(Section 2).  That makes the reproduction fragile as a *system* — one
stalled variant parks the whole lockstep rendezvous forever.  This
package provides the other half of the robustness story:

* :class:`~repro.faults.plan.FaultPlan` /
  :class:`~repro.faults.plan.FaultSpec` — a declarative schedule of
  faults pinned to *logical* trigger points (the n-th monitored syscall
  of a variant, the n-th sync-buffer record, ...), either written out
  explicitly or drawn from a seeded RNG.  Same plan + same seed ⇒ the
  same faults at the same simulated cycles, every run.
* :class:`~repro.faults.injector.FaultInjector` — the runtime that the
  simulator's hot paths consult through the ``faults`` slot of the
  machine's hook table (:mod:`repro.sched.hooks`): with no injector
  attached the slot is None, one falsy test per site, and the timeline
  is byte-identical to the seed simulator.

The monitor-side resilience machinery that *survives* these faults
(watchdog, quarantine, restart) lives in :mod:`repro.core.monitor`; the
policy knobs live on :class:`repro.core.divergence.MonitorPolicy`.
"""

#: The monitor's graceful-degradation policies, in documentation order.
#: Single source of truth for everything that enumerates them (CLI
#: choices, the fault matrix, serve session specs, registry recovery).
DEGRADATION_POLICIES = ("kill-all", "quarantine", "restart")
