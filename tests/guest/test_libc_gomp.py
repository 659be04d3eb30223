"""Tests for the guest libc allocator and the mini-OpenMP runtime."""

from repro.guest.gomp import parallel_for
from repro.guest.libc import ARENA_CHUNK, GuestLibc
from repro.guest.program import GuestProgram
from repro.perf.timeline import VariantTraces
from repro.run import run_native
from tests.guestlib import MallocStormProgram


class TestGuestLibc:
    def test_malloc_returns_distinct_blocks(self):
        class P(GuestProgram):
            def main(self, ctx):
                libc = yield from GuestLibc.setup(ctx)
                first = yield from libc.malloc(ctx, 32)
                second = yield from libc.malloc(ctx, 32)
                return (first, second)

        result = run_native(P(), seed=0)
        first, second = result.vm.threads["main"].result
        assert second == first + 32

    def test_malloc_rounds_to_8(self):
        class P(GuestProgram):
            def main(self, ctx):
                libc = yield from GuestLibc.setup(ctx)
                first = yield from libc.malloc(ctx, 5)
                second = yield from libc.malloc(ctx, 5)
                return second - first

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == 8

    def test_arena_growth_issues_brk(self):
        class P(GuestProgram):
            def main(self, ctx):
                libc = yield from GuestLibc.setup(ctx)
                for _ in range(6):
                    yield from libc.malloc(ctx, ARENA_CHUNK // 2)

        traces = VariantTraces()
        result = run_native(P(), seed=0, consumers=(traces,))
        brks = [e for e in traces.syscalls(result.vm) if e.name == "brk"]
        assert len(brks) >= 3  # setup (2) plus at least one growth

    def test_concurrent_malloc_blocks_disjoint(self):
        result = run_native(MallocStormProgram(workers=4, allocs=20),
                            seed=2)
        blocks = result.vm.threads["main"].result
        flat = sorted(addr for worker in blocks for addr in worker)
        assert len(flat) == len(set(flat)), "allocator handed out overlaps"

    def test_allocator_padding_changes_behaviour(self):
        """The diversified-allocator knob (Section 4.5.1's unsupported
        diversity): padding changes block spacing."""

        class P(GuestProgram):
            def __init__(self, padding):
                self.padding = padding

            def main(self, ctx):
                ctx.vm.malloc_padding = self.padding
                libc = yield from GuestLibc.setup(ctx)
                first = yield from libc.malloc(ctx, 16)
                second = yield from libc.malloc(ctx, 16)
                return second - first

        plain = run_native(P(0), seed=0)
        padded = run_native(P(24), seed=0)
        assert plain.vm.threads["main"].result == 16
        assert padded.vm.threads["main"].result == 40


class TestGomp:
    def test_parallel_for_covers_all_iterations(self):
        class P(GuestProgram):
            static_vars = ("hits",)

            def main(self, ctx):
                def body(wctx, index):
                    addr = wctx.static_addr("hits")
                    yield from wctx.fetch_add(addr, 1, site="t.body")

                yield from parallel_for(ctx, workers=4, iterations=37,
                                        body=body, chunk=3)
                return ctx.mem_load(ctx.static_addr("hits"))

        result = run_native(P(), seed=1)
        assert result.vm.threads["main"].result == 37

    def test_parallel_for_pure_compute(self):
        class P(GuestProgram):
            def main(self, ctx):
                yield from parallel_for(ctx, workers=3, iterations=12,
                                        body=None, work_cycles=2_000)

        result = run_native(P(), seed=1)
        assert result.cycles >= 12 * 2_000 / 3

    def test_single_worker_degenerates_to_serial(self):
        class P(GuestProgram):
            static_vars = ("hits",)

            def main(self, ctx):
                def body(wctx, index):
                    addr = wctx.static_addr("hits")
                    yield from wctx.fetch_add(addr, 1, site="t.body")

                yield from parallel_for(ctx, workers=1, iterations=5,
                                        body=body)
                return ctx.mem_load(ctx.static_addr("hits"))

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == 5
