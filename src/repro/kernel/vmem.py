"""Per-variant virtual address space.

Two properties of real address spaces matter for the paper and are modelled
here:

* **Addresses are variant-specific.**  Under ASLR / diversified layouts the
  same logical variable lives at a different address in every variant
  (Section 3.3).  The synchronization agents must therefore work without an
  explicit master-to-slave address map — they rely on the *n-th sync op of a
  thread* correspondence instead (Section 4.5.1).  The address space hands
  out addresses from diversified region bases so this is exercised for real.
* **Memory syscalls have ordering-sensitive results.**  ``brk`` grows a
  linear heap; ``mmap`` assigns the lowest free region slot.  If two threads
  race on these calls and the MVEE does not order them, variants end up with
  different address-space layouts — the memory-allocator hazard of
  Section 3.1 / 4.3 (glibc malloc's internal locks protect exactly this).

Data memory is word-granular: a ``dict`` from address to Python integer.
Guest programs only access memory through the simulator's atomic ops or
through plain loads/stores between scheduling points, which is sufficient
for the data-race-free programs the paper targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MemoryFault, SyscallError

#: log2 of the page size: ``addr >> PAGE_SHIFT`` is the page number.
PAGE_SHIFT = 12

#: Size of one simulated page.
PAGE_SIZE = 1 << PAGE_SHIFT

#: Word size; sync variables are 4 or 8 bytes in the paper's x86 target.
WORD_SIZE = 8


class Protection(enum.Flag):
    """Page protection bits (subset of PROT_*)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()
    RW = READ | WRITE
    RX = READ | EXEC


#: Integer masks for the access checks (``enum.Flag`` arithmetic is slow).
_READ = Protection.READ.value
_WRITE = Protection.WRITE.value


@dataclass
class MemoryRegion:
    """A contiguous mapped region."""

    start: int
    size: int
    prot: Protection
    tag: str = "anon"

    @property
    def end(self) -> int:
        return self.start + self.size


def page_align_up(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


@dataclass
class LayoutBases:
    """Diversified base addresses for the canonical regions.

    The defaults correspond to a non-ASLR layout; ``repro.diversity.aslr``
    produces randomized instances per variant.
    """

    code_base: int = 0x0040_0000
    static_base: int = 0x0060_0000
    heap_base: int = 0x0080_0000
    mmap_base: int = 0x7F00_0000_0000
    stack_base: int = 0x7FFF_F000_0000


class AddressSpace:
    """Mapped regions, the brk heap, and word-granular data memory.

    ``regions`` is searched first-match in mapping order: regions may
    overlap (the heap can grow over a later mapping, and diversified
    bases need not be page-aligned), and the earliest mapping wins.
    Lookups go through a page index built lazily from that list: for
    each page touched, the ``(start, end, protection mask, region)`` of
    every region intersecting it, in list order.  Every change to the
    regions (``_map``, ``munmap``, ``brk``, ``mprotect``) drops the
    index, so it always answers exactly what a scan of ``regions``
    would.
    """

    def __init__(self, bases: LayoutBases | None = None):
        self.bases = bases or LayoutBases()
        self.regions: list[MemoryRegion] = []
        self._pages: dict[int, tuple] = {}
        self._memory: dict[int, int] = {}
        # Code and static-data regions exist from "process start".
        self._map(self.bases.code_base, 16 * PAGE_SIZE, Protection.RX, "code")
        self.static_region = self._map(self.bases.static_base,
                                       64 * PAGE_SIZE, Protection.RW, "data")
        self._static_cursor = self.bases.static_base
        # brk heap: starts empty, grows linearly.
        self.brk_start = self.bases.heap_base
        self.brk_current = self.bases.heap_base
        self.heap_region = self._map(self.brk_start, 0, Protection.RW, "heap")
        # mmap allocation cursor (grows upward from mmap_base).
        self._mmap_cursor = self.bases.mmap_base

    # -- region management -------------------------------------------------

    def _map(self, start: int, size: int, prot: Protection,
             tag: str) -> MemoryRegion:
        region = MemoryRegion(start=start, size=size, prot=prot, tag=tag)
        self.regions.append(region)
        self._pages.clear()
        return region

    def _lookup(self, addr: int) -> tuple | None:
        """Page-index entry ``(start, end, mask, region)`` of the first
        region (in mapping order) containing ``addr``, if any."""
        page = addr >> PAGE_SHIFT
        hits = self._pages.get(page)
        if hits is None:
            low = page << PAGE_SHIFT
            high = low + PAGE_SIZE
            hits = self._pages[page] = tuple(
                (region.start, region.end, region.prot.value, region)
                for region in self.regions
                if region.start < high and low < region.end)
        for hit in hits:
            if hit[0] <= addr < hit[1]:
                return hit
        return None

    def region_at(self, addr: int) -> MemoryRegion | None:
        """Find the first region (in mapping order) containing ``addr``."""
        hit = self._lookup(addr)
        return hit[3] if hit is not None else None

    # -- syscall backends ---------------------------------------------------

    def brk(self, new_end: int | None) -> int:
        """Move the program break; ``None`` or 0 queries the current break."""
        if not new_end:
            return self.brk_current
        if new_end < self.brk_start:
            raise SyscallError("brk below heap start", errno_name="ENOMEM")
        self.brk_current = new_end
        self.heap_region.size = page_align_up(new_end - self.brk_start)
        self._pages.clear()
        return self.brk_current

    def mmap(self, size: int, prot: Protection = Protection.RW,
             tag: str = "mmap") -> int:
        """Map an anonymous region at the lowest free mmap slot."""
        if size <= 0:
            raise SyscallError("mmap with non-positive size",
                               errno_name="EINVAL")
        size = page_align_up(size)
        start = self._mmap_cursor
        self._mmap_cursor += size + PAGE_SIZE  # guard page gap
        self._map(start, size, prot, tag)
        return start

    def munmap(self, start: int) -> None:
        """Unmap the region starting exactly at ``start``."""
        for index, region in enumerate(self.regions):
            if region.start == start and region.tag not in ("code", "data",
                                                            "heap"):
                del self.regions[index]
                self._pages.clear()
                return
        raise SyscallError(f"munmap: no region at {start:#x}",
                           errno_name="EINVAL")

    def mprotect(self, start: int, prot: Protection) -> None:
        """Change protection of the region starting at ``start``."""
        region = self.region_at(start)
        if region is None:
            raise SyscallError(f"mprotect: unmapped address {start:#x}",
                               errno_name="ENOMEM")
        region.prot = prot
        self._pages.clear()

    # -- static and heap allocation -----------------------------------------

    def alloc_static(self, size: int = WORD_SIZE,
                     align: int = WORD_SIZE) -> int:
        """Allocate static (global) storage; used for program globals.

        Statics are allocated in program-declaration order, so the k-th
        static of every variant is the same logical variable even though
        its address differs under diversified bases.
        """
        cursor = (self._static_cursor + align - 1) // align * align
        if cursor + size > self.static_region.end:
            raise MemoryFault("static region exhausted")
        self._static_cursor = cursor + size
        return cursor

    # -- data access ----------------------------------------------------------

    def _check(self, addr: int, need: int) -> None:
        """Raise :class:`MemoryFault` unless the region containing
        ``addr`` grants the integer protection mask ``need``."""
        hit = self._lookup(addr)
        if hit is None:
            raise MemoryFault(f"access to unmapped address {addr:#x}")
        if not hit[2] & need:
            raise MemoryFault(
                f"protection violation at {addr:#x}: "
                f"page is {hit[3].prot}, need {Protection(need)}")

    def load(self, addr: int) -> int:
        """Read the word at ``addr`` (0 if never written)."""
        self._check(addr, _READ)
        return self._memory.get(addr, 0)

    def store(self, addr: int, value: int) -> None:
        """Write the word at ``addr``."""
        self._check(addr, _WRITE)
        self._memory[addr] = value

    def peek(self, addr: int) -> int:
        """Debug read without protection checks (monitor-side use only)."""
        return self._memory.get(addr, 0)

    def snapshot(self) -> dict[int, int]:
        """Copy of all written words (for test assertions)."""
        return dict(self._memory)
