"""The analysis IR: an x86-flavoured instruction set with pointer facts.

The paper's stage-1 analysis runs over *disassembled binaries with debug
symbols*; stage 2 runs (conceptually) at the source/LLVM-IR level.  Our IR
captures both views in one structure:

* instruction level — opcodes, LOCK prefixes, memory operands;
* pointer level — each function carries the pointer-assignment statements
  (``p = &x``, ``p = q``, ``p = *q``, ``*p = q``, ``p = malloc()``) that a
  compiler front end would hand to a points-to analysis.

Memory operands reference *pointer variables*; the points-to analysis
resolves which abstract objects those can address.  Debug info maps each
instruction back to a source line, as the paper's Ruby script relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

# -- operands ----------------------------------------------------------------


@dataclass(frozen=True)
class Mem:
    """A memory operand: dereference of pointer variable ``ptr``."""

    ptr: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"[{self.ptr}+{self.offset:#x}]"
        return f"[{self.ptr}]"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int

    def __str__(self) -> str:
        return f"${self.value}"


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


def mem(ptr: str, offset: int = 0) -> Mem:
    return Mem(ptr, offset)


def imm(value: int) -> Imm:
    return Imm(value)


#: Opcodes that imply atomic access when LOCK-prefixed (type i).
LOCKABLE_OPCODES = frozenset({
    "cmpxchg", "cmpxchg8b", "xadd", "add", "sub", "and", "or", "xor",
    "inc", "dec", "bts", "btr",
})

#: Opcode that is implicitly locked on x86 (type ii).
XCHG_OPCODE = "xchg"

#: Plain aligned data-movement opcodes (candidate type iii).
MOVE_OPCODES = frozenset({"mov", "movl", "movq"})

# -- control flow (by convention; interpreted by repro.analysis.cfg) ---------
#
# The corpus builders originally emitted straight-line functions only, so
# the IR had no control transfer.  The interprocedural layer adds these
# conventional opcodes.  Operand conventions:
#
# * ``call`` — one operand: a ``str`` naming the callee (direct call), or
#   a :class:`Reg` whose name is a *pointer variable* (indirect call; the
#   points-to analysis resolves it against address-taken function names).
# * ``jmp`` / ``jcc`` — one ``str`` operand naming a ``label``; ``jcc``
#   additionally falls through.
# * ``label`` — one ``str`` operand; a pseudo-instruction marking a
#   branch target (no machine effect).
# * ``ret`` — no operands; ends the function's control flow.

CALL_OPCODE = "call"
RET_OPCODE = "ret"
JUMP_OPCODE = "jmp"
BRANCH_OPCODE = "jcc"
LABEL_OPCODE = "label"

#: Opcodes that end a basic block (a label *starts* one instead).
BLOCK_TERMINATORS = frozenset({RET_OPCODE, JUMP_OPCODE, BRANCH_OPCODE})


@dataclass
class Instruction:
    """One machine instruction."""

    opcode: str
    operands: tuple = ()
    lock_prefix: bool = False
    #: Run-time site label; links analysis results to the simulator's
    #: instrumentation predicate (None for pure-corpus instructions).
    site: str | None = None
    #: Debug info: (source file, line number).
    source: tuple[str, int] | None = None
    #: Whether memory operands are naturally aligned (unaligned plain
    #: accesses are never atomic on x86 and are excluded from type iii).
    aligned: bool = True

    def memory_operands(self) -> list[Mem]:
        return [op for op in self.operands if isinstance(op, Mem)]

    @property
    def is_call(self) -> bool:
        return self.opcode == CALL_OPCODE

    @property
    def is_label(self) -> bool:
        return self.opcode == LABEL_OPCODE

    @property
    def is_terminator(self) -> bool:
        return self.opcode in BLOCK_TERMINATORS

    def branch_target(self) -> str | None:
        """The label a ``jmp``/``jcc`` transfers to (None otherwise)."""
        if self.opcode in (JUMP_OPCODE, BRANCH_OPCODE) and self.operands:
            return self.operands[0]
        return None

    def call_target(self):
        """The callee of a ``call``: a ``str`` (direct) or ``Reg``
        (indirect, resolved through points-to); None for non-calls."""
        if self.opcode == CALL_OPCODE and self.operands:
            return self.operands[0]
        return None

    @property
    def is_store(self) -> bool:
        return (self.opcode in MOVE_OPCODES and self.operands
                and isinstance(self.operands[0], Mem))

    @property
    def is_load(self) -> bool:
        return (self.opcode in MOVE_OPCODES
                and any(isinstance(op, Mem) for op in self.operands[1:]))

    def __str__(self) -> str:
        prefix = "lock " if self.lock_prefix else ""
        ops = ", ".join(str(op) for op in self.operands)
        return f"{prefix}{self.opcode} {ops}".strip()


# -- pointer facts ----------------------------------------------------------------


@dataclass(frozen=True)
class AddrOf:
    """``dst = &obj`` — dst may point to the named abstract object."""

    dst: str
    obj: str


@dataclass(frozen=True)
class Copy:
    """``dst = src`` — pointer copy."""

    dst: str
    src: str


@dataclass(frozen=True)
class LoadPtr:
    """``dst = *src`` — load a pointer through a pointer."""

    dst: str
    src: str


@dataclass(frozen=True)
class StorePtr:
    """``*dst = src`` — store a pointer through a pointer."""

    dst: str
    src: str


@dataclass(frozen=True)
class HeapAlloc:
    """``dst = malloc()`` — fresh heap object at this allocation site.

    ``type_name`` matters to the field-sensitivity discussion: Steensgaard
    unifies heap objects of incompatible types, Andersen keeps them apart
    (Section 4.3.1).
    """

    dst: str
    site_id: str
    type_name: str = "void"


PointerStatement = AddrOf | Copy | LoadPtr | StorePtr | HeapAlloc


# -- program containers -------------------------------------------------------------


@dataclass
class GlobalVar:
    """A global variable as the front end sees it."""

    name: str
    size: int = 4
    volatile: bool = False
    atomic_qualified: bool = False


@dataclass
class Function:
    """A function: instructions + the pointer facts of its body."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    pointer_facts: list[PointerStatement] = field(default_factory=list)


@dataclass
class Module:
    """A compilation unit / shared library (libc, libpthread, a binary)."""

    name: str
    functions: list[Function] = field(default_factory=list)
    globals: list[GlobalVar] = field(default_factory=list)

    def all_instructions(self) -> Iterable[tuple[Function, Instruction]]:
        for function in self.functions:
            for instruction in function.instructions:
                yield function, instruction

    def all_pointer_facts(self) -> Iterable[PointerStatement]:
        for function in self.functions:
            yield from function.pointer_facts

    def instruction_count(self) -> int:
        return sum(len(fn.instructions) for fn in self.functions)
