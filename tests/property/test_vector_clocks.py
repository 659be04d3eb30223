"""Property-based tests for the race detector's vector clocks.

The happens-before detector is only as sound as its clock algebra:
join must be the least upper bound, ticks must be monotone, and epoch
ordering must agree with component-wise comparison.  Hypothesis drives
the laws; a final class pins that the race *report* is a deterministic
function of the run.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.races.vc import Epoch, VectorClock, join

tids = st.sampled_from(["v0:t0", "v0:w1", "v1:t0", "v1:w2", "v2:w3"])
clock_maps = st.dictionaries(tids, st.integers(min_value=0, max_value=50),
                             max_size=5)
clocks = clock_maps.map(VectorClock)


class TestJoinLaws:
    @given(clocks, clocks)
    def test_commutative(self, a, b):
        assert join(a, b) == join(b, a)

    @given(clocks, clocks, clocks)
    def test_associative(self, a, b, c):
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(clocks)
    def test_idempotent(self, a):
        assert join(a, a) == a

    @given(clocks, clocks)
    def test_upper_bound(self, a, b):
        joined = join(a, b)
        assert joined.dominates(a) and joined.dominates(b)

    @given(clocks, clocks)
    def test_least_upper_bound(self, a, b):
        """No component of the join exceeds the max of the inputs."""
        joined = join(a, b)
        for tid, value in joined.items():
            assert value == max(a.get(tid), b.get(tid))

    @given(clocks, clocks)
    def test_inputs_unchanged(self, a, b):
        before_a, before_b = dict(a.items()), dict(b.items())
        join(a, b)
        assert dict(a.items()) == before_a
        assert dict(b.items()) == before_b


class TestMonotonicity:
    @given(clocks, tids)
    def test_tick_strictly_increases_own_component(self, vc, tid):
        before = vc.get(tid)
        vc.tick(tid)
        assert vc.get(tid) == before + 1

    @given(clocks, tids)
    def test_tick_preserves_dominance(self, vc, tid):
        snapshot = vc.copy()
        vc.tick(tid)
        assert vc.dominates(snapshot) and not snapshot.dominates(vc)

    @given(clocks, clocks)
    def test_join_in_place_absorbs(self, a, b):
        a.join(b)
        assert a.dominates(b)

    @given(clocks)
    def test_copy_is_independent(self, vc):
        dup = vc.copy()
        dup.tick("v0:t0")
        assert dup.get("v0:t0") == vc.get("v0:t0") + 1


class TestEpochOrdering:
    @given(clocks, tids)
    def test_own_epoch_happens_before_own_clock(self, vc, tid):
        vc.tick(tid)
        assert vc.epoch(tid).happens_before(vc)

    @given(clocks, tids, st.integers(min_value=1, max_value=10))
    def test_future_epoch_not_ordered(self, vc, tid, ahead):
        epoch = Epoch(clock=vc.get(tid) + ahead, tid=tid)
        assert not epoch.happens_before(vc)

    @given(clocks, clocks, tids)
    def test_happens_before_respects_join(self, a, b, tid):
        """An epoch ordered before ``a`` stays ordered after joining."""
        epoch = a.epoch(tid)
        if epoch.happens_before(a):
            assert epoch.happens_before(join(a, b))


class TestEquality:
    @given(clock_maps)
    def test_zero_components_do_not_distinguish(self, mapping):
        padded = dict(mapping)
        padded["v2:w3"] = padded.get("v2:w3", 0)
        assert VectorClock(mapping) == VectorClock(padded)

    @given(clocks)
    def test_unhashable(self, vc):
        import pytest

        with pytest.raises(TypeError):
            hash(vc)


class TestReportDeterminism:
    """The same seed must yield the identical race report, twice."""

    def _report(self, seed):
        from repro.core.mvee import run_mvee
        from repro.perf.costs import CostModel
        from repro.races.detector import RaceDetector
        from tests.guestlib import MutexCounterProgram

        detector = RaceDetector(sync_sites=lambda site: False)
        run_mvee(MutexCounterProgram(workers=3, iters=10), variants=2,
                 agent="wall_of_clocks", seed=seed,
                 costs=CostModel(monitor_syscall_overhead=2_000.0,
                                 preempt_quantum=20_000.0),
                 races=detector)
        return detector.report

    def test_identical_reports_same_seed(self):
        first = self._report(seed=3)
        second = self._report(seed=3)
        assert [r.to_dict() for r in first.races] \
            == [r.to_dict() for r in second.races]
        assert first.occurrences == second.occurrences
        assert first.sync_ops_seen == second.sync_ops_seen
        assert first.plain_accesses_checked == second.plain_accesses_checked
