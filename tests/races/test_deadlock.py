"""Dynamic deadlock detection: held-set/wait-for-graph unit tests plus
full MVEE integration on the dining-philosophers guest."""

from dataclasses import dataclass

import pytest

from repro.core.mvee import run_mvee
from repro.obs import ObsHub
from repro.perf.costs import CostModel
from repro.races.deadlock import DeadlockDetector
from repro.races.deadlock import DeadlockRecord, DeadlockThread
from repro.workloads.philosophers import DiningPhilosophers

FAST = CostModel(monitor_syscall_overhead=2_000.0,
                 preempt_quantum=20_000.0)


# -- unit-test doubles -------------------------------------------------------


@dataclass
class FakeVM:
    index: int = 0


@dataclass
class FakeThread:
    global_id: str = "v0:main"


@dataclass
class FakeSyncOp:
    op: str
    addr: int
    args: tuple = ()
    site: str | None = None


def cas(detector, tid, addr, expected, new, result, site=None, variant=0):
    detector.sync_op(FakeVM(variant), FakeThread(tid),
                     FakeSyncOp("cas", addr, (expected, new), site),
                        result)


def xchg(detector, tid, addr, new, result, site=None, variant=0):
    detector.sync_op(FakeVM(variant), FakeThread(tid),
                     FakeSyncOp("xchg", addr, (new,), site), result)


def store(detector, tid, addr, value, site=None, variant=0):
    detector.sync_op(FakeVM(variant), FakeThread(tid),
                     FakeSyncOp("store", addr, (value,), site), variant)


class TestStructuralClassification:
    def test_cas_acquire_and_release(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0x100, 0, 1, 0, site="m.lock")
        assert d.report.acquires_seen == 1
        assert d._holders[(0, 0x100)] == "v0:t1"
        cas(d, "v0:t1", 0x100, 1, 0, 1)
        assert d.report.releases_seen == 1
        assert (0, 0x100) not in d._holders

    def test_failed_cas_records_attempt_not_ownership(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0x100, 0, 1, 7)  # word was 7, CAS failed
        assert d.report.acquires_seen == 0
        assert d._last_attempt["v0:t1"] == (0x100, None)

    def test_trylock_refusal_counted(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0x100, 0, 1, 7, site="m.trylock.cmpxchg")
        assert d.report.guard_refusals == 1
        assert "m.trylock.cmpxchg" in d.report.guard_sites

    def test_xchg_protocol(self):
        d = DeadlockDetector()
        xchg(d, "v0:t1", 0x200, 2, 0, site="m.lock.xchg")  # got 0: acquired
        assert d.report.acquires_seen == 1
        xchg(d, "v0:t2", 0x200, 2, 2)  # got 2: contended attempt
        assert d.report.acquires_seen == 1
        assert d._last_attempt["v0:t2"] == (0x200, None)
        xchg(d, "v0:t1", 0x200, 0, 2)  # unlock
        assert d.report.releases_seen == 1

    def test_store_zero_releases_only_for_holder(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0x300, 0, 1, 0)
        store(d, "v0:t2", 0x300, 0)  # not the owner: ignored
        assert d.report.releases_seen == 0
        store(d, "v0:t1", 0x300, 0)
        assert d.report.releases_seen == 1

    def test_loads_are_inert(self):
        d = DeadlockDetector()
        d.sync_op(FakeVM(), FakeThread("v0:t1"),
                  FakeSyncOp("load", 0x100, (), "m.poll"), 1)
        d.sync_op(FakeVM(), FakeThread("v0:t1"),
                  FakeSyncOp("fetch_add", 0x100, (1,), "m.xadd"), 1)
        assert d.report.acquires_seen == 0
        assert d.report.releases_seen == 0
        assert "m.poll" in d.report.observed_sites


class TestWaitForGraph:
    def wedge_two(self, d):
        """t1 holds A wants B; t2 holds B wants A."""
        cas(d, "v0:t1", 0xA, 0, 1, 0, site="s.a")
        cas(d, "v0:t2", 0xB, 0, 1, 0, site="s.b")
        cas(d, "v0:t1", 0xB, 0, 1, 1, site="s.b")  # fails
        cas(d, "v0:t2", 0xA, 0, 1, 1, site="s.a")  # fails
        d.futex_park(0, 0xB, "v0:t1")
        d.futex_park(0, 0xA, "v0:t2")

    def test_abba_cycle_detected_at_formation(self):
        d = DeadlockDetector()
        self.wedge_two(d)
        assert d.report.deadlocked
        (record,) = d.report.records
        assert {t.thread for t in record.threads} == {"t1", "t2"}
        assert set(record.locks()) == {0xA, 0xB}
        assert record.sites() == frozenset({"s.a", "s.b"})

    def test_wants_site_comes_from_failed_attempt(self):
        d = DeadlockDetector()
        self.wedge_two(d)
        (record,) = d.report.records
        t1 = next(t for t in record.threads if t.thread == "t1")
        assert t1.wants == 0xB
        assert t1.wants_site == "s.b"
        assert t1.holds == (0xA,)
        assert t1.hold_sites == ("s.a",)

    def test_wait_on_unowned_word_is_no_cycle(self):
        d = DeadlockDetector()
        d.futex_park(0, 0xDEAD, "v0:t1")
        assert not d.report.deadlocked
        assert d.report.waits_seen == 1

    def test_unwait_breaks_the_edge(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0xA, 0, 1, 0)
        cas(d, "v0:t2", 0xB, 0, 1, 0)
        d.futex_park(0, 0xB, "v0:t1")
        d.futex_unpark(0, 0xB, "v0:t1")
        d.futex_park(0, 0xA, "v0:t2")
        assert not d.report.deadlocked

    def test_wake_clears_edges(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0xA, 0, 1, 0)
        d.futex_park(0, 0xA, "v0:t2")
        d.futex_wake(0, 0xA, None, ["v0:t2"])
        assert "v0:t2" not in d._waiting

    def test_duplicate_cycle_deduped(self):
        d = DeadlockDetector()
        self.wedge_two(d)
        d.futex_unpark(0, 0xB, "v0:t1")
        d.futex_park(0, 0xB, "v0:t1")  # re-park on the same cycle
        assert len(d.report.records) == 1

    def test_three_thread_chain(self):
        d = DeadlockDetector()
        for i, (hold, _want) in enumerate([(0xA, 0xB), (0xB, 0xC),
                                           (0xC, 0xA)]):
            cas(d, f"v0:t{i}", hold, 0, 1, 0, site=f"s.{hold:#x}")
        for i, (_hold, want) in enumerate([(0xA, 0xB), (0xB, 0xC),
                                           (0xC, 0xA)]):
            d.futex_park(0, want, f"v0:t{i}")
        (record,) = d.report.records
        assert len(record.threads) == 3

    def test_reset_variant_forgets_state(self):
        d = DeadlockDetector()
        cas(d, "v0:t1", 0xA, 0, 1, 0, variant=0)
        cas(d, "v1:t1", 0xA, 0, 1, 0, variant=1)
        d.futex_park(1, 0xA, "v1:t2")
        d.variant_restarted(1)
        assert (1, 0xA) not in d._holders
        assert "v1:t2" not in d._waiting
        assert (0, 0xA) in d._holders  # other variants untouched

    def test_clock_stamped_on_record(self):
        d = DeadlockDetector()
        d.bind_clock(lambda: 12345.0)
        self.wedge_two(d)
        assert d.report.records[0].at_cycles == 12345.0


class TestRecordShape:
    def test_cycle_name_and_dict(self):
        record = DeadlockRecord(
            variant=0, at_cycles=10.0,
            threads=(DeadlockThread("a", (1,), ("s1",), 2, "s2"),
                     DeadlockThread("b", (2,), ("s2",), 1, "s1")))
        assert record.cycle_name() == "a -> b -> a"
        payload = record.to_dict()
        assert payload["cycle"] == "a -> b -> a"
        assert payload["threads"][0]["wants"] == 2

    def test_summary_forms(self):
        d = DeadlockDetector()
        assert "no deadlock" in d.report.summary()
        self_wedge = TestWaitForGraph()
        self_wedge.wedge_two(d)
        assert "1 deadlock cycle(s)" in d.report.summary()


# -- MVEE integration --------------------------------------------------------


class TestPhilosophersIntegration:
    def run_wedged(self, obs=None):
        detector = DeadlockDetector()
        outcome = run_mvee(DiningPhilosophers(3), variants=2, seed=11,
                           costs=FAST, max_cycles=50_000_000.0,
                           deadlocks=detector, obs=obs)
        return detector, outcome

    def test_deadlock_verdict_with_named_cycle(self):
        detector, outcome = self.run_wedged()
        assert outcome.verdict == "deadlock"
        assert outcome.deadlocks is detector.report
        (record,) = [detector.report.records[0]]
        assert set(record.cycle_name().split(" -> ")) == {
            "phil0", "phil1", "phil2"}
        assert "libpthread.mutex.lock.cmpxchg" in record.sites()

    def test_detected_in_bounded_time(self):
        # Cycle formation, not watchdog expiry: the wedge of three
        # philosophers must be diagnosed within the first slice of the
        # budget, not after burning it.
        detector, outcome = self.run_wedged()
        assert outcome.cycles < 1_000_000.0
        assert detector.report.records[0].at_cycles <= outcome.cycles

    def test_obs_mirror_and_bundle(self):
        hub = ObsHub()
        detector, outcome = self.run_wedged(obs=hub)
        assert len(hub.deadlock_log) == len(detector.report.records)
        assert hub.metrics.counter("deadlocks.detected").value >= 1
        assert outcome.obs_bundle is not None
        assert outcome.obs_bundle.deadlocks
        assert outcome.obs_bundle.deadlocks[0]["cycle"] == \
            detector.report.records[0].cycle_name()

    def test_trylock_variant_stays_clean_with_refusals(self):
        detector = DeadlockDetector()
        outcome = run_mvee(DiningPhilosophers(3, trylock=True), variants=2,
                           seed=11, costs=FAST, max_cycles=50_000_000.0,
                           deadlocks=detector)
        assert outcome.verdict == "clean"
        assert not detector.report.deadlocked
        assert detector.report.guard_refusals >= 1
        assert "libpthread.mutex.trylock.cmpxchg" in \
            detector.report.guard_sites
        assert detector.report.acquires_seen == detector.report.releases_seen

    def test_deadlocks_true_builds_default_detector(self):
        outcome = run_mvee(DiningPhilosophers(3), variants=2, seed=11,
                           costs=FAST, max_cycles=50_000_000.0,
                           deadlocks=True)
        assert outcome.verdict == "deadlock"
        assert outcome.deadlocks is not None
        assert outcome.deadlocks.deadlocked

    def test_detached_run_has_no_deadlock_report(self):
        outcome = run_mvee(DiningPhilosophers(3, trylock=True), variants=2,
                           seed=11, costs=FAST, max_cycles=50_000_000.0)
        assert outcome.verdict == "clean"
        assert outcome.deadlocks is None


class TestPhilosophersProgram:
    def test_rejects_degenerate_table(self):
        with pytest.raises(ValueError):
            DiningPhilosophers(1)

    def test_names_distinguish_variants(self):
        assert DiningPhilosophers(3).name == "dining_philosophers"
        assert DiningPhilosophers(3, trylock=True).name == \
            "dining_philosophers_trylock"
