"""Atomic-op semantics as executed by the machine (commit-time effects)."""

import pytest

from repro.guest.program import GuestProgram
from repro.run import run_native
from repro.sched.events import InstructionClass, SyncOp
from repro.sched.machine import Machine
from repro.sched.vm import VariantVM
from repro.kernel.kernel import VirtualKernel
from repro.kernel.fs import VirtualDisk


def apply_op(op, addr_value=0, args=()):
    disk = VirtualDisk()
    vm = VariantVM(index=0, kernel=VirtualKernel(disk))
    addr = vm.kernel.addr_space.alloc_static()
    vm.kernel.addr_space.store(addr, addr_value)
    event = SyncOp(op, addr, args)
    result = Machine._apply_syncop(vm, event)
    return result, vm.kernel.addr_space.load(addr)


class TestAtomicSemantics:
    def test_cas_success(self):
        result, value = apply_op("cas", 5, (5, 9))
        assert (result, value) == (5, 9)

    def test_cas_failure_leaves_memory(self):
        result, value = apply_op("cas", 5, (4, 9))
        assert (result, value) == (5, 5)

    def test_xchg(self):
        result, value = apply_op("xchg", 3, (8,))
        assert (result, value) == (3, 8)

    def test_fetch_add_returns_old(self):
        result, value = apply_op("fetch_add", 10, (-3,))
        assert (result, value) == (10, 7)

    def test_load(self):
        result, value = apply_op("load", 42)
        assert (result, value) == (42, 42)

    def test_store_returns_none(self):
        result, value = apply_op("store", 1, (77,))
        assert result is None and value == 77

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError):
            apply_op("swizzle", 0, ())


class TestGuestLevelAtomics:
    def test_ops_through_context(self):
        class P(GuestProgram):
            static_vars = ("word",)

            def main(self, ctx):
                addr = ctx.static_addr("word")
                results = []
                results.append((yield from ctx.fetch_add(addr, 5)))
                results.append((yield from ctx.xchg(addr, 100)))
                results.append((yield from ctx.cas(addr, 100, 7)))
                results.append((yield from ctx.atomic_load(addr)))
                yield from ctx.atomic_store(addr, 0)
                results.append(ctx.mem_load(addr))
                return results

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == [0, 5, 100, 7, 0]

    def test_instruction_classes_tagged(self):
        class P(GuestProgram):
            static_vars = ("word",)

            def main(self, ctx):
                addr = ctx.static_addr("word")
                yield from ctx.cas(addr, 0, 1, site="s1")
                yield from ctx.xchg(addr, 2, site="s2")
                yield from ctx.atomic_load(addr, site="s3")

        from repro.sched.vm import VariantVM
        result = run_native(P(), seed=0)
        # classes are enforced by the helper constructors:
        from repro.sched.events import SyncOp
        cas_event = SyncOp("cas", 0, (0, 1))
        assert cas_event.iclass is InstructionClass.LOCK_PREFIXED

    def test_atomicity_under_contention(self):
        """The canonical torn-update test: N threads x M fetch_adds must
        sum exactly (no lock, pure atomics)."""

        class P(GuestProgram):
            static_vars = ("word",)

            def main(self, ctx):
                tids = yield from ctx.spawn_all(
                    self.worker, [() for _ in range(6)])
                yield from ctx.join_all(tids)
                return ctx.mem_load(ctx.static_addr("word"))

            def worker(self, ctx):
                addr = ctx.static_addr("word")
                for _ in range(50):
                    yield from ctx.compute(80)
                    yield from ctx.fetch_add(addr, 1, site="t.xadd")

        for seed in range(3):
            result = run_native(P(), seed=seed)
            assert result.vm.threads["main"].result == 300
