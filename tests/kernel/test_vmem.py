"""Tests for the virtual address space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault, SyscallError
from repro.kernel.vmem import (
    PAGE_SIZE,
    AddressSpace,
    LayoutBases,
    Protection,
    page_align_up,
)


class TestPageAlign:
    def test_aligns_up(self):
        assert page_align_up(1) == PAGE_SIZE
        assert page_align_up(PAGE_SIZE) == PAGE_SIZE
        assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE

    def test_zero(self):
        assert page_align_up(0) == 0


class TestBrk:
    def test_query_returns_current(self):
        space = AddressSpace()
        assert space.brk(None) == space.brk_start

    def test_grow_and_store(self):
        space = AddressSpace()
        base = space.brk(None)
        new_end = space.brk(base + 100)
        assert new_end == base + 100
        space.store(base + 8, 42)
        assert space.load(base + 8) == 42

    def test_shrink_below_start_is_enomem(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.brk(space.brk_start - 1)

    def test_heap_access_beyond_brk_faults(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault):
            space.load(space.brk_start + PAGE_SIZE * 2)


class TestMmap:
    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        first = space.mmap(PAGE_SIZE)
        second = space.mmap(PAGE_SIZE)
        assert second >= first + PAGE_SIZE

    def test_allocation_order_affects_addresses(self):
        """Two spaces mapping in different orders get different addresses
        for the 'same' mapping — why mmap must be cross-variant ordered."""
        space1, space2 = AddressSpace(), AddressSpace()
        a1 = space1.mmap(PAGE_SIZE)           # small first
        b1 = space1.mmap(4 * PAGE_SIZE)
        b2 = space2.mmap(4 * PAGE_SIZE)       # big first
        a2 = space2.mmap(PAGE_SIZE)
        assert a1 != a2 and b1 != b2

    def test_munmap_then_access_faults(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 7)
        space.munmap(start)
        with pytest.raises(MemoryFault):
            space.load(start)

    def test_munmap_unknown_region_raises(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.munmap(0xDEAD0000)

    def test_mmap_rejects_nonpositive_size(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.mmap(0)


class TestProtection:
    def test_mprotect_blocks_writes(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.mprotect(start, Protection.READ)
        assert space.load(start) == 0
        with pytest.raises(MemoryFault):
            space.store(start, 1)

    def test_mprotect_unmapped_raises(self):
        space = AddressSpace()
        with pytest.raises(SyscallError):
            space.mprotect(0x1, Protection.RW)

    def test_code_region_not_writable(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault):
            space.store(space.bases.code_base, 0x90)


class TestStatics:
    def test_statics_are_sequential_and_aligned(self):
        space = AddressSpace()
        first = space.alloc_static(8)
        second = space.alloc_static(8)
        assert second == first + 8
        assert first % 8 == 0

    def test_diversified_bases_move_statics(self):
        plain = AddressSpace()
        shifted = AddressSpace(LayoutBases(static_base=0x0100_0000))
        assert plain.alloc_static() != shifted.alloc_static()

    def test_same_declaration_order_same_offsets(self):
        """The k-th static has the same offset in every variant — the
        logical-variable correspondence diversity must preserve."""
        space_a = AddressSpace(LayoutBases(static_base=0x0100_0000))
        space_b = AddressSpace(LayoutBases(static_base=0x0200_0000))
        offsets_a = [space_a.alloc_static() - 0x0100_0000
                     for _ in range(5)]
        offsets_b = [space_b.alloc_static() - 0x0200_0000
                     for _ in range(5)]
        assert offsets_a == offsets_b


class TestSnapshotPeek:
    def test_snapshot_contains_writes(self):
        space = AddressSpace()
        addr = space.alloc_static()
        space.store(addr, 99)
        assert space.snapshot()[addr] == 99

    def test_peek_skips_protection(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 5)
        space.mprotect(start, Protection.NONE)
        assert space.peek(start) == 5


# -- region lookup: the page index against a linear first-match scan --------

def reference_region(space, addr):
    """First region in mapping order containing ``addr`` (linear scan)."""
    for region in space.regions:
        if region.start <= addr < region.start + region.size:
            return region
    return None


def reference_fault(space, addr, need):
    """The ``MemoryFault`` text an access must raise, or None."""
    region = reference_region(space, addr)
    if region is None:
        return f"access to unmapped address {addr:#x}"
    if not region.prot & need:
        return (f"protection violation at {addr:#x}: "
                f"page is {region.prot}, need {need}")
    return None


def fault_text(access, *args):
    try:
        access(*args)
    except MemoryFault as fault:
        return str(fault)
    return None


class TestRegionIndex:
    def test_heap_growing_over_a_mapping_wins_first_match(self):
        """The heap is mapped before any mmap region, so once brk grows
        it over one, the heap's protection applies there; the index must
        drop what it cached for that page."""
        space = AddressSpace(LayoutBases(heap_base=0x0100_0010,
                                         mmap_base=0x0100_2000))
        start = space.mmap(PAGE_SIZE)
        space.mprotect(start, Protection.READ)
        with pytest.raises(MemoryFault, match="protection violation"):
            space.store(start + 8, 1)
        assert space.region_at(start + 8).tag == "mmap"
        space.brk(start + PAGE_SIZE)
        assert space.region_at(start + 8) is space.heap_region
        space.store(start + 8, 1)
        assert space.load(start + 8) == 1

    def test_mmap_maps_a_page_already_looked_up(self):
        space = AddressSpace()
        first = space.mmap(PAGE_SIZE)
        # The next mapping lands after a one-page guard gap.
        after_gap = first + 2 * PAGE_SIZE
        assert fault_text(space.load, after_gap) == (
            f"access to unmapped address {after_gap:#x}")
        assert space.mmap(PAGE_SIZE) == after_gap
        assert space.load(after_gap) == 0
        assert space.region_at(after_gap).start == after_gap

    def test_mprotect_and_munmap_drop_cached_pages(self):
        space = AddressSpace()
        start = space.mmap(PAGE_SIZE)
        space.store(start, 3)
        space.mprotect(start, Protection.NONE)
        assert (fault_text(space.load, start)
                == f"protection violation at {start:#x}: "
                   f"page is {Protection.NONE}, need {Protection.READ}")
        space.munmap(start)
        with pytest.raises(MemoryFault, match="unmapped"):
            space.load(start)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lookup_and_faults_match_linear_scan(self, data):
        # Bases packed into a few dozen pages and not page-aligned, so
        # regions straddle pages and overlap each other.
        base = 0x0010_0000
        offset = st.integers(min_value=0, max_value=96 * PAGE_SIZE)
        bases = LayoutBases(code_base=base + data.draw(offset),
                            static_base=base + data.draw(offset),
                            heap_base=base + data.draw(offset),
                            mmap_base=base + data.draw(offset),
                            stack_base=base + data.draw(offset))
        space = AddressSpace(bases)
        protections = st.sampled_from(
            (Protection.NONE, Protection.READ, Protection.WRITE,
             Protection.EXEC, Protection.RW, Protection.RX,
             Protection.RW | Protection.EXEC))

        def interesting_addr():
            region = data.draw(st.sampled_from(space.regions))
            edge = data.draw(st.sampled_from(
                (region.start, region.start + region.size)))
            return edge + data.draw(st.integers(-2 * PAGE_SIZE,
                                                2 * PAGE_SIZE))

        # Every address ever looked up stays a probe, re-checked after
        # each later operation: a page the index cached before a region
        # change must answer as a fresh scan does after it.
        probes: list[int] = []
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(
                ("mmap", "munmap", "brk", "mprotect", "load", "store")))
            if op == "mmap":
                space.mmap(data.draw(st.integers(1, 3 * PAGE_SIZE)),
                           data.draw(protections))
            elif op == "munmap":
                mapped = [r.start for r in space.regions
                          if r.tag == "mmap"]
                if mapped:
                    space.munmap(data.draw(st.sampled_from(mapped)))
            elif op == "brk":
                space.brk(space.brk_start + data.draw(
                    st.integers(0, 64 * PAGE_SIZE)))
            elif op == "mprotect":
                addr = interesting_addr()
                if reference_region(space, addr) is not None:
                    space.mprotect(addr, data.draw(protections))
            elif op == "load":
                probes.append(interesting_addr())
            else:
                addr = interesting_addr()
                probes.append(addr)
                assert (fault_text(space.store, addr, 1)
                        == reference_fault(space, addr, Protection.WRITE))
            for addr in probes:
                assert space.region_at(addr) is reference_region(space,
                                                                 addr)
                assert (fault_text(space.load, addr)
                        == reference_fault(space, addr, Protection.READ))
