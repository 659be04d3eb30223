"""The dynamic side: a FastTrack-style happens-before race detector.

Attached as a consumer on the machine's hook table
(:mod:`repro.sched.hooks`, zero cost when absent), the detector observes
the simulation's communication events and partitions every committed
:class:`~repro.sched.events.SyncOp` into one of two roles:

* **synchronization** — the site is one the static pipeline identified
  (by default: the variant's instrumentation predicate says so).  These
  build the happens-before order: acquires join the accessing thread's
  vector clock with the sync variable's, releases publish the thread's
  clock back (and tick it).
* **plain shared access** — the site was *not* identified.  These are
  exactly the accesses the paper's monitor cannot see, and the detector
  race-checks them: an access not ordered (by the happens-before
  relation built from the identified sites) after every conflicting
  prior access to the same address granule is a race.

Spawn/join edges and futex wake edges (``kernel.futex``) complete the
happens-before relation.  Per-address state is keyed by the §4.5 64-bit
granule (``addr >> 3``), matching the wall-of-clocks hash, and kept per
variant — diversified layouts make addresses variant-local.

The detector only *observes*: it never charges simulated cycles, never
consumes scheduler randomness, and never parks threads, so an attached
detector leaves the simulated timeline byte-identical to a run without
one (pinned in ``tests/test_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.races.vc import Epoch, VectorClock

#: §4.5: adjacent 32-bit words share one 64-bit granule (``addr >> 3``).
GRANULE_SHIFT = 3

#: Default cap on *distinct* recorded races (duplicates are counted, not
#: stored); a spinning loop on one un-identified lock word would
#: otherwise flood the report.
DEFAULT_MAX_RACES = 1024


def granule_of(addr: int) -> int:
    """The 64-bit granule an address falls in (the §4.5 key)."""
    return addr >> GRANULE_SHIFT


@dataclass(frozen=True)
class AccessRecord:
    """One shared-memory access, as the race report names it."""

    variant: int
    thread: str          # logical id, stable across variants
    site: str            # static site label of the instruction
    op: str              # "load" | "store" | "cas" | "xchg" | "fetch_add"
    granule: int
    at_cycles: float
    is_write: bool

    def to_dict(self) -> dict:
        return {"variant": self.variant, "thread": self.thread,
                "site": self.site, "op": self.op,
                "granule": self.granule, "at_cycles": self.at_cycles,
                "is_write": self.is_write}

    def __str__(self) -> str:
        kind = "W" if self.is_write else "R"
        return (f"{kind} v{self.variant}:{self.thread} {self.op}@"
                f"{self.site}")


@dataclass(frozen=True)
class RaceRecord:
    """Two unordered conflicting accesses to one granule."""

    kind: str            # "write-write" | "write-read" | "read-write"
    prior: AccessRecord
    current: AccessRecord

    @property
    def variant(self) -> int:
        return self.current.variant

    def sites(self) -> frozenset[str]:
        return frozenset((self.prior.site, self.current.site))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "prior": self.prior.to_dict(),
                "current": self.current.to_dict()}

    def __str__(self) -> str:
        return (f"{self.kind} race on granule "
                f"{self.current.granule:#x} (v{self.variant}): "
                f"{self.prior} || {self.current}")


@dataclass
class RaceReport:
    """Everything one detector session found."""

    races: list[RaceRecord] = field(default_factory=list)
    #: (variant, kind, prior site, current site) -> occurrence count;
    #: ``races`` stores the first occurrence of each key only.
    occurrences: dict[tuple, int] = field(default_factory=dict)
    #: Distinct races dropped once ``max_races`` was hit.
    suppressed: int = 0
    sync_ops_seen: int = 0
    plain_accesses_checked: int = 0
    hb_edges: int = 0

    def race_sites(self) -> frozenset[str]:
        """Every site label involved in at least one recorded race."""
        sites: set[str] = set()
        for race in self.races:
            sites |= race.sites()
        return frozenset(sites)

    @property
    def total_occurrences(self) -> int:
        return sum(self.occurrences.values())

    def summary(self) -> str:
        if not self.races and not self.suppressed:
            return (f"no races ({self.sync_ops_seen} sync ops, "
                    f"{self.plain_accesses_checked} plain accesses "
                    f"checked)")
        return (f"{len(self.races)} distinct race(s), "
                f"{self.total_occurrences} occurrence(s) across "
                f"{len(self.race_sites())} site(s)")


@dataclass
class _VarState:
    """FastTrack per-granule access history (adaptive read side)."""

    write: Epoch | None = None
    write_access: AccessRecord | None = None
    #: tid -> (epoch clock, access) for reads not yet ordered before a
    #: write.  FastTrack's "read epoch" is the common single-entry case.
    reads: dict[str, tuple[int, AccessRecord]] = field(
        default_factory=dict)


class RaceDetector:
    """Happens-before detector + race report for one machine run.

    ``sync_sites`` overrides the site classification: a predicate from
    site label to "is this identified synchronization?".  When ``None``
    (default), the accessed variant's instrumentation predicate is used
    — i.e. the detector trusts exactly the sites the static pipeline
    fed to :func:`repro.core.injection.instrument_sites`, which is what
    makes the coverage cross-check meaningful.
    """

    def __init__(self, sync_sites: Callable[[str], bool] | None = None,
                 max_races: int = DEFAULT_MAX_RACES):
        self.sync_sites = sync_sites
        self.max_races = max_races
        self.report = RaceReport()
        self._hooks = None
        self._clock = lambda: 0.0
        #: thread global id -> vector clock (survives thread exit so
        #: join edges can read the final clock).
        self._threads: dict[str, VectorClock] = {}
        #: (variant, granule) -> vector clock of the sync variable.
        self._sync_vc: dict[tuple[int, int], VectorClock] = {}
        #: (variant, granule) -> plain-access history.
        self._vars: dict[tuple[int, int], _VarState] = {}

    # -- wiring ----------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Attach the machine's simulated clock (``lambda: machine.now``)."""
        self._clock = clock

    def bind_machine(self, machine) -> None:
        """Report each detected race on the machine's hook table."""
        self._hooks = machine.hooks

    def variant_restarted(self, variant: int) -> None:
        """Forget one variant's state (quarantine-restart support).

        A restarted variant re-runs ``main`` from scratch with fresh
        memory, so its old vector clocks and access history would
        manufacture false races against the new incarnation's threads.
        Recorded races are kept — they happened.
        """
        prefix = f"v{variant}:"
        for tid in [t for t in self._threads if t.startswith(prefix)]:
            del self._threads[tid]
        for key in [k for k in self._sync_vc if k[0] == variant]:
            del self._sync_vc[key]
        for key in [k for k in self._vars if k[0] == variant]:
            del self._vars[key]

    # -- helpers ---------------------------------------------------------

    def _vc(self, tid: str) -> VectorClock:
        vc = self._threads.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._threads[tid] = vc
        return vc

    def _is_sync_site(self, vm, site: str) -> bool:
        if self.sync_sites is not None:
            return self.sync_sites(site)
        return vm.is_instrumented(site)

    @staticmethod
    def _is_write(op: str, event, value) -> bool:
        """Whether the op wrote memory (a failed CAS is a pure read)."""
        if op == "load":
            return False
        if op == "cas":
            return value == event.args[0]
        return True

    # -- hook-table events ------------------------------------------------

    def sync_op(self, vm, thread, event, value) -> None:
        """One committed SyncOp: build HB order or race-check it."""
        if self._is_sync_site(vm, event.site):
            self._sync_edge(vm, thread, event, value)
        else:
            self._plain_access(vm, thread, event, value)

    def spawn(self, parent, child) -> None:
        """``Spawn``: the child starts after the parent's clock."""
        parent_vc = self._vc(parent.global_id)
        child_vc = self._vc(child.global_id)
        child_vc.join(parent_vc)
        parent_vc.tick(parent.global_id)
        self.report.hb_edges += 1

    def join(self, joiner, target) -> None:
        """``Join`` delivered: the target's whole history is ordered
        before the joiner's continuation."""
        self._vc(joiner.global_id).join(self._vc(target.global_id))
        self.report.hb_edges += 1

    def futex_wake(self, variant: int, addr: int, waker: str | None,
                   woken: list[str]) -> None:
        """A futex wake: the waker's history precedes each wakee's
        continuation (the paper's one ordering-exempt blocking call)."""
        if waker is None or not woken:
            return
        waker_vc = self._vc(waker)
        for wakee in woken:
            self._vc(wakee).join(waker_vc)
        waker_vc.tick(waker)
        self.report.hb_edges += 1

    # -- the two SyncOp roles --------------------------------------------

    def _sync_edge(self, vm, thread, event, value) -> None:
        self.report.sync_ops_seen += 1
        tid = thread.global_id
        key = (vm.index, granule_of(event.addr))
        thread_vc = self._vc(tid)
        sync_vc = self._sync_vc.get(key)
        if sync_vc is not None:
            thread_vc.join(sync_vc)          # acquire
        if self._is_write(event.op, event, value):
            # release: publish the (just-joined) clock and advance.
            self._sync_vc[key] = thread_vc.copy()
            thread_vc.tick(tid)
        self.report.hb_edges += 1

    def _plain_access(self, vm, thread, event, value) -> None:
        self.report.plain_accesses_checked += 1
        tid = thread.global_id
        key = (vm.index, granule_of(event.addr))
        thread_vc = self._vc(tid)
        state = self._vars.get(key)
        if state is None:
            state = self._vars[key] = _VarState()
        is_write = self._is_write(event.op, event, value)
        current = AccessRecord(
            variant=vm.index, thread=thread.logical_id, site=event.site,
            op=event.op, granule=key[1], at_cycles=self._clock(),
            is_write=is_write)
        if is_write:
            if (state.write is not None
                    and not state.write.happens_before(thread_vc)):
                self._record("write-write", state.write_access, current)
            for read_tid, (clock, access) in state.reads.items():
                if read_tid != tid and clock > thread_vc.get(read_tid):
                    self._record("read-write", access, current)
            state.write = thread_vc.epoch(tid)
            state.write_access = current
            state.reads.clear()
        else:
            if (state.write is not None
                    and not state.write.happens_before(thread_vc)):
                self._record("write-read", state.write_access, current)
            state.reads[tid] = (thread_vc.get(tid), current)

    # -- recording -------------------------------------------------------

    def _record(self, kind: str, prior: AccessRecord,
                current: AccessRecord) -> None:
        key = (current.variant, kind, prior.site, current.site)
        count = self.report.occurrences.get(key)
        if count is not None:
            self.report.occurrences[key] = count + 1
            return
        if len(self.report.races) >= self.max_races:
            self.report.suppressed += 1
            return
        self.report.occurrences[key] = 1
        race = RaceRecord(kind=kind, prior=prior, current=current)
        self.report.races.append(race)
        for hook in self._hooks.race_detected if self._hooks else ():
            hook(race)
