"""Divergence reports and monitoring policies.

A security-oriented MVEE's entire value is its verdict; this module
defines the structured report the monitor produces when it kills the
variants, and the policy object deciding which syscalls are cross-checked
(the paper evaluates "a variety of monitoring policies ranging from strict
lockstepping on all system calls to lockstepping only on security-
sensitive system calls", Section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.kernel.syscalls import SyscallSpec


class DivergenceKind(enum.Enum):
    """What kind of disagreement the monitor observed."""

    #: Equivalent threads issued different syscalls or different arguments.
    SYSCALL_MISMATCH = "syscall_mismatch"
    #: An execute-all call returned comparable results that differ.
    RESULT_MISMATCH = "result_mismatch"
    #: A thread exited in one variant while its twin kept making calls.
    THREAD_EXIT_MISMATCH = "thread_exit_mismatch"
    #: A variant faulted (crash / protection violation) — e.g. a diversified
    #: variant hit by an attack payload tailored to another variant.
    VARIANT_FAULT = "variant_fault"
    #: The relaxed (VARAN-style) monitor saw a follower deviate from the
    #: leader's recorded per-thread sequence.
    SEQUENCE_MISMATCH = "sequence_mismatch"
    #: A variant failed to reach a lockstep rendezvous (or the master
    #: failed to publish a blocking-call result) within the configured
    #: watchdog deadline — a hang diagnosed instead of waited out.
    WATCHDOG_TIMEOUT = "watchdog_timeout"
    #: A variant was demoted under a graceful-degradation policy while
    #: the remaining set continued (not a whole-run kill).
    VARIANT_QUARANTINED = "variant_quarantined"
    #: A replayed run left its recorded decision stream (time-travel
    #: forensics; see ``docs/REPLAY.md``).
    REPLAY_MISMATCH = "replay_mismatch"


@dataclass
class DivergenceReport:
    """Structured description of a detected divergence."""

    kind: DivergenceKind
    thread: str
    syscall_seq: int
    detail: str = ""
    #: Per-variant observations: variant index -> (name, args) or message.
    observations: dict[int, object] = field(default_factory=dict)

    def __str__(self) -> str:
        obs = "; ".join(f"v{idx}: {obs!r}"
                        for idx, obs in sorted(self.observations.items()))
        text = (f"divergence [{self.kind.value}] thread={self.thread} "
                f"seq={self.syscall_seq}")
        if self.detail:
            text += f" — {self.detail}"
        if obs:
            text += f" ({obs})"
        return text

    def explain(self) -> str:
        """Multi-line, human-oriented rendering (used by the CLI)."""
        headlines = {
            DivergenceKind.SYSCALL_MISMATCH:
                "The variants issued different system calls (or the "
                "same call with different arguments).",
            DivergenceKind.RESULT_MISMATCH:
                "A call every variant executes locally returned "
                "different results across variants.",
            DivergenceKind.THREAD_EXIT_MISMATCH:
                "A thread finished in one variant while its twin kept "
                "making system calls.",
            DivergenceKind.VARIANT_FAULT:
                "One variant crashed (memory fault) where the others "
                "did not — the classic signature of an attack payload "
                "tailored to a single diversified layout.",
            DivergenceKind.SEQUENCE_MISMATCH:
                "A follower deviated from the leader's recorded "
                "per-thread system-call sequence.",
            DivergenceKind.WATCHDOG_TIMEOUT:
                "A variant failed to reach the lockstep rendezvous "
                "within the watchdog deadline — a stall diagnosed "
                "instead of hanging the monitor forever.",
        }
        # New kinds must never crash the CLI's error path: fall back to
        # a generic headline instead of a KeyError lookup.
        lines = [headlines.get(self.kind,
                               f"Divergence of kind "
                               f"'{self.kind.value}' detected."),
                 f"  logical thread : {self.thread}",
                 f"  call sequence #: {self.syscall_seq}"]
        if self.detail:
            lines.append(f"  detail         : {self.detail}")
        for index, observation in sorted(self.observations.items()):
            lines.append(f"  variant {index}      : {observation!r}")
        return "\n".join(lines)


@dataclass
class MonitorPolicy:
    """Which calls are rendezvous-compared, and how strictly.

    ``lockstep``:
      * ``"all"`` — every monitored syscall is executed in lockstep.
      * ``"sensitive"`` — only security-sensitive calls rendezvous; other
        calls are still replicated/ordered but not cross-compared.
      * ``"none"`` — no lockstep at all (replication only).  Used by tests
        to show that benign divergence then goes undetected and variants
        silently receive inconsistent inputs (Section 2.1).
    ``compare_results``:
      cross-check results of execute-all calls (FD numbers etc.).
    ``order_syscalls``:
      run shared-resource calls through the Lamport ordering clock of
      Section 4.1.  Disabling this is the ablation that resurrects the
      FD-assignment divergence of Section 3.1.
    ``extra_sensitive`` / ``never_lockstep``:
      per-deployment overrides of the static classification, like
      ReMon's configurable relaxation policies: names in
      ``extra_sensitive`` are cross-checked even under the sensitive-only
      policy; names in ``never_lockstep`` are never rendezvous-compared
      (they are still replicated/ordered as their spec dictates).
    ``degradation``:
      what happens to a variant the monitor condemns:
      * ``"kill"`` (alias ``"kill-all"``) — the paper's behaviour:
        terminate every variant (the default).
      * ``"quarantine"`` — demote only the condemned variant(s) and
        continue the remaining set; with ≥3 variants a majority vote on
        the rendezvous arguments picks the minority to demote.  Falls
        back to kill when there is no quorum, when the master (variant
        0, the one wired to real I/O) is condemned, or when fewer than
        ``min_active`` variants would remain.
      * ``"restart"`` — quarantine, then rebuild the variant with a
        fresh diversified layout and resync it from the retained master
        syscall history (at most ``max_restarts`` times per variant).
    ``watchdog_cycles``:
      lockstep rendezvous deadline in simulated cycles; ``None``
      disables the watchdog (a stalled variant then parks the run until
      the cycle budget trips).  See ``docs/RESILIENCE.md`` for tuning.
    ``resync_mode``:
      how a restarted variant catches up with the survivors:
      * ``"history"`` — re-execute the master's full retained call
        history at normal monitor cost (the pre-checkpoint behaviour).
      * ``"checkpoint"`` — calls at sequence numbers the latest machine
        checkpoint already covers are *fast-forwarded* (served from
        history with zero monitor cost charges); only the suffix past
        the checkpoint frontier is resynced at full cost.  Requires a
        :class:`repro.replay.checkpoint.Checkpointer` attached to the MVEE
        (``checkpoints=...``); without one it behaves like
        ``"history"``.  See ``docs/REPLAY.md``.
    """

    lockstep: str = "all"
    compare_results: bool = True
    order_syscalls: bool = True
    extra_sensitive: frozenset[str] = frozenset()
    never_lockstep: frozenset[str] = frozenset()
    degradation: str = "kill"
    watchdog_cycles: float | None = None
    min_active: int = 2
    max_restarts: int = 1
    resync_mode: str = "history"

    def is_locksteped(self, spec: SyscallSpec) -> bool:
        if spec.name in self.never_lockstep:
            return False
        if self.lockstep == "all":
            return True
        if self.lockstep == "sensitive":
            return spec.sensitive or spec.name in self.extra_sensitive
        return spec.name in self.extra_sensitive


@dataclass
class QuarantineEvent:
    """One graceful-degradation action taken by the monitor."""

    variant: int
    report: DivergenceReport
    at_cycles: float
    #: Set once the MVEE rebuilt and re-admitted the variant.
    restarted: bool = False

    def summary(self) -> str:
        text = (f"variant {self.variant} quarantined at "
                f"{self.at_cycles:.0f} cycles "
                f"[{self.report.kind.value}]")
        if self.restarted:
            text += " and restarted"
        return text


#: Policies exercised in the correctness matrix (Section 5.1).
POLICY_STRICT = MonitorPolicy(lockstep="all")
POLICY_SENSITIVE_ONLY = MonitorPolicy(lockstep="sensitive")
POLICY_NO_LOCKSTEP = MonitorPolicy(lockstep="none", compare_results=False)
