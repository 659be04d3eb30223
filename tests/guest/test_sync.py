"""Tests for the guest synchronization library (the "libpthread")."""

import pytest

from repro.guest.program import GuestProgram
from repro.guest.sync import (
    LIBPTHREAD_SITES,
    Barrier,
    CondVar,
    Mutex,
    RWLock,
    Semaphore,
    SpinLock,
    TicketLock,
)
from repro.run import run_native


def run_counter(lock_factory, workers=4, iters=60, seed=3):
    """Run a counter program with an arbitrary lock; returns final total."""

    class P(GuestProgram):
        static_vars = ("w0", "w1", "counter")

        def main(self, ctx):
            lock = lock_factory(ctx)
            tids = yield from ctx.spawn_all(
                self.worker, [(lock,) for _ in range(workers)])
            yield from ctx.join_all(tids)
            return ctx.mem_load(ctx.static_addr("counter"))

        def worker(self, ctx, lock):
            addr = ctx.static_addr("counter")
            for _ in range(iters):
                yield from ctx.compute(300)
                yield from lock.acquire(ctx)
                ctx.mem_store(addr, ctx.mem_load(addr) + 1)
                yield from lock.release(ctx)
            return 0

    result = run_native(P(), seed=seed)
    return result.vm.threads["main"].result


class TestMutualExclusion:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_spinlock_counter_exact(self, seed):
        total = run_counter(
            lambda ctx: SpinLock(ctx.static_addr("w0")), seed=seed)
        assert total == 240

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutex_counter_exact(self, seed):
        total = run_counter(
            lambda ctx: Mutex(ctx.static_addr("w0")), seed=seed)
        assert total == 240

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ticket_lock_counter_exact(self, seed):
        total = run_counter(
            lambda ctx: TicketLock(ctx.static_addr("w0"),
                                   ctx.static_addr("w1")), seed=seed)
        assert total == 240


class TestMutexProtocol:
    def test_trylock_fails_when_held(self):
        class P(GuestProgram):
            static_vars = ("mutex",)

            def main(self, ctx):
                mutex = Mutex(ctx.static_addr("mutex"))
                yield from mutex.acquire(ctx)
                got = yield from mutex.try_acquire(ctx)
                yield from mutex.release(ctx)
                got_after = yield from mutex.try_acquire(ctx)
                return (got, got_after)

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == (False, True)

    def test_contended_mutex_uses_futex(self):
        from repro.perf.timeline import VariantTraces
        from tests.guestlib import MutexCounterProgram
        traces = VariantTraces()
        result = run_native(MutexCounterProgram(workers=4, iters=40),
                            seed=1, consumers=(traces,))
        names = {entry.name for entry in traces.syscalls(result.vm)}
        assert "futex_wait" in names or "futex_wake" in names


class TestCondVar:
    def test_signal_wakes_waiter(self):
        class P(GuestProgram):
            static_vars = ("mutex", "cond", "flag")

            def main(self, ctx):
                mutex = Mutex(ctx.static_addr("mutex"))
                cond = CondVar(ctx.static_addr("cond"))
                tid = yield from ctx.spawn(self.waiter, mutex, cond)
                yield from ctx.compute(20_000)
                yield from mutex.acquire(ctx)
                ctx.mem_store(ctx.static_addr("flag"), 1)
                yield from mutex.release(ctx)
                yield from cond.signal(ctx)
                value = yield from ctx.join(tid)
                return value

            def waiter(self, ctx, mutex, cond):
                yield from mutex.acquire(ctx)
                while ctx.mem_load(ctx.static_addr("flag")) == 0:
                    yield from cond.wait(ctx, mutex)
                yield from mutex.release(ctx)
                return "woken"

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == "woken"

    def test_broadcast_wakes_all(self):
        class P(GuestProgram):
            static_vars = ("mutex", "cond", "flag", "woken")

            def main(self, ctx):
                mutex = Mutex(ctx.static_addr("mutex"))
                cond = CondVar(ctx.static_addr("cond"))
                tids = yield from ctx.spawn_all(
                    self.waiter, [(mutex, cond) for _ in range(3)])
                yield from ctx.compute(30_000)
                yield from mutex.acquire(ctx)
                ctx.mem_store(ctx.static_addr("flag"), 1)
                yield from mutex.release(ctx)
                yield from cond.broadcast(ctx)
                yield from ctx.join_all(tids)
                return ctx.mem_load(ctx.static_addr("woken"))

            def waiter(self, ctx, mutex, cond):
                yield from mutex.acquire(ctx)
                while ctx.mem_load(ctx.static_addr("flag")) == 0:
                    yield from cond.wait(ctx, mutex)
                addr = ctx.static_addr("woken")
                ctx.mem_store(addr, ctx.mem_load(addr) + 1)
                yield from mutex.release(ctx)

        result = run_native(P(), seed=2)
        assert result.vm.threads["main"].result == 3


class TestBarrier:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_no_thread_enters_next_phase_early(self, workers):
        class P(GuestProgram):
            static_vars = ("count", "gen", "arrived")

            def main(self, ctx):
                barrier = Barrier(ctx.static_addr("count"),
                                  ctx.static_addr("gen"), workers)
                tids = yield from ctx.spawn_all(
                    self.worker,
                    [(barrier, i) for i in range(workers)])
                snapshots = yield from ctx.join_all(tids)
                return snapshots

            def worker(self, ctx, barrier, index):
                addr = ctx.static_addr("arrived")
                snapshots = []
                for _phase in range(4):
                    yield from ctx.compute(500 + index * 333)
                    yield from ctx.fetch_add(addr, 1, site="t.arrive")
                    yield from barrier.wait(ctx)
                    # after the barrier, all workers of this phase arrived
                    snapshots.append(ctx.mem_load(addr))
                    yield from barrier.wait(ctx)
                return snapshots

        result = run_native(P(), seed=1)
        for snapshots in result.vm.threads["main"].result:
            assert snapshots == [workers * (phase + 1)
                                 for phase in range(4)]

    def test_exactly_one_serial_thread(self):
        class P(GuestProgram):
            static_vars = ("count", "gen")

            def main(self, ctx):
                barrier = Barrier(ctx.static_addr("count"),
                                  ctx.static_addr("gen"), 3)
                tids = yield from ctx.spawn_all(
                    self.worker, [(barrier,) for _ in range(3)])
                flags = yield from ctx.join_all(tids)
                return flags

            def worker(self, ctx, barrier):
                yield from ctx.compute(200)
                serial = yield from barrier.wait(ctx)
                return serial

        result = run_native(P(), seed=4)
        assert sum(result.vm.threads["main"].result) == 1


class TestSemaphore:
    def test_limits_concurrency(self):
        class P(GuestProgram):
            static_vars = ("sem", "inside", "max_inside")

            def main(self, ctx):
                ctx.mem_store(ctx.static_addr("sem"), 2)  # two permits
                sem = Semaphore(ctx.static_addr("sem"))
                tids = yield from ctx.spawn_all(
                    self.worker, [(sem,) for _ in range(5)])
                yield from ctx.join_all(tids)
                return ctx.mem_load(ctx.static_addr("max_inside"))

            def worker(self, ctx, sem):
                yield from sem.acquire(ctx)
                inside = ctx.static_addr("inside")
                peak = ctx.static_addr("max_inside")
                ctx.mem_store(inside, ctx.mem_load(inside) + 1)
                if ctx.mem_load(inside) > ctx.mem_load(peak):
                    ctx.mem_store(peak, ctx.mem_load(inside))
                yield from ctx.compute(3_000)
                ctx.mem_store(inside, ctx.mem_load(inside) - 1)
                yield from sem.release(ctx)

        result = run_native(P(), seed=3)
        assert 1 <= result.vm.threads["main"].result <= 2


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        class P(GuestProgram):
            static_vars = ("state", "writers", "value", "bad")

            def main(self, ctx):
                rwlock = RWLock(ctx.static_addr("state"),
                                ctx.static_addr("writers"))
                tids = []
                for _ in range(3):
                    tid = yield from ctx.spawn(self.reader, rwlock)
                    tids.append(tid)
                for _ in range(2):
                    tid = yield from ctx.spawn(self.writer, rwlock)
                    tids.append(tid)
                yield from ctx.join_all(tids)
                return (ctx.mem_load(ctx.static_addr("bad")),
                        ctx.mem_load(ctx.static_addr("value")))

            def reader(self, ctx, rwlock):
                for _ in range(10):
                    yield from rwlock.acquire_read(ctx)
                    before = ctx.mem_load(ctx.static_addr("value"))
                    yield from ctx.compute(500)
                    after = ctx.mem_load(ctx.static_addr("value"))
                    if before != after:  # a writer intruded
                        ctx.mem_store(ctx.static_addr("bad"), 1)
                    yield from rwlock.release_read(ctx)
                    yield from ctx.compute(200)

            def writer(self, ctx, rwlock):
                for _ in range(5):
                    yield from rwlock.acquire_write(ctx)
                    addr = ctx.static_addr("value")
                    ctx.mem_store(addr, ctx.mem_load(addr) + 1)
                    yield from ctx.compute(300)
                    yield from rwlock.release_write(ctx)
                    yield from ctx.compute(400)

        result = run_native(P(), seed=5)
        bad, value = result.vm.threads["main"].result
        assert bad == 0
        assert value == 10


class TestSiteCatalogue:
    def test_all_sites_have_library_prefix(self):
        assert all(site.startswith("libpthread.")
                   for site in LIBPTHREAD_SITES)

    def test_catalogue_is_complete_for_spinlock(self):
        assert SpinLock.SITE_LOCK in LIBPTHREAD_SITES
        assert SpinLock.SITE_UNLOCK in LIBPTHREAD_SITES


class TestOnce:
    def _once_program(self, workers):
        from repro.guest.sync import Once

        class P(GuestProgram):
            static_vars = ("once", "init_count", "ready")

            def main(self, ctx):
                once = Once(ctx.static_addr("once"))
                tids = yield from ctx.spawn_all(
                    self.worker, [(once,) for _ in range(workers)])
                winners = yield from ctx.join_all(tids)
                return (ctx.mem_load(ctx.static_addr("init_count")),
                        sum(winners))

            def worker(self, ctx, once):
                def initializer(ictx):
                    yield from ictx.compute(2_000)
                    addr = ictx.static_addr("init_count")
                    ictx.mem_store(addr, ictx.mem_load(addr) + 1)

                won = yield from once.call(ctx, initializer)
                # After call() returns, initialization must be visible.
                assert ctx.mem_load(ctx.static_addr("init_count")) == 1
                return 1 if won else 0

        return P()

    @pytest.mark.parametrize("workers", [2, 4, 6])
    def test_initializer_runs_exactly_once(self, workers):
        result = run_native(self._once_program(workers), seed=3)
        init_count, winners = result.vm.threads["main"].result
        assert init_count == 1
        assert winners == 1

    def test_once_replays_cleanly_under_mvee(self):
        from repro.core.mvee import run_mvee
        for agent in ("total_order", "partial_order", "wall_of_clocks"):
            outcome = run_mvee(self._once_program(4), variants=2,
                               agent=agent, seed=5)
            assert outcome.verdict == "clean"

    def test_once_site_in_catalogue(self):
        from repro.guest.sync import Once
        assert Once.SITE_CLAIM in LIBPTHREAD_SITES
