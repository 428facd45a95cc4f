"""Decoded instruction representation.

Instructions are mutable Python objects (``__slots__`` for speed): the
compiler creates them with symbolic branch targets, the linker patches in
absolute addresses, and the CPU dispatches on :class:`Op`.

Every instruction occupies 4 bytes of the text segment so that PC
arithmetic (offsets like ``refresh_potential + 0x000000D0`` in the paper's
Figure 5) works exactly as on real hardware.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import IsaError
from .registers import REG_G0, REG_RA

INSTR_BYTES = 4


class Op(enum.IntEnum):
    """Opcodes.  Grouped so that classification tests are range checks."""

    # memory — loads
    LDX = 1   # rd <- mem64[rs1 + (rs2|imm)]
    LDUB = 2  # rd <- zero-extended mem8[rs1 + (rs2|imm)]
    # memory — stores
    STX = 3   # mem64[rs1 + (rs2|imm)] <- rd
    STB = 4   # mem8[rs1 + (rs2|imm)] <- rd & 0xff
    # software prefetch: starts a non-blocking line fetch; never faults,
    # never raises counter events, dropped on a DTLB miss (like US-III)
    PREFETCH = 5

    # ALU (rd <- rs1 OP (rs2|imm))
    ADD = 10
    SUB = 11
    MULX = 12
    SDIVX = 13
    SMODX = 14  # signed remainder (no SPARC equivalent; one instr for '%')
    AND = 15
    OR = 16
    XOR = 17
    SLLX = 18
    SRLX = 19
    SRAX = 20
    # register/constant moves
    MOV = 21  # rd <- rs1          (printed as 'mov')
    SET = 22  # rd <- imm64       (sethi/or pair folded into one slot)
    # compare: sets condition codes from rs1 - (rs2|imm)
    CMP = 23

    # control transfer (all have one branch delay slot)
    BA = 30
    BE = 31
    BNE = 32
    BG = 33
    BGE = 34
    BL = 35
    BLE = 36
    CALL = 37  # %o7 <- pc; jump to target
    JMPL = 38  # rd <- pc; jump to rs1 + imm   (retl == jmpl %o7+8, rd=%g0)

    # misc
    NOP = 50
    TA = 51    # trap always: kernel service, code in imm
    HALT = 52  # end of simulation (used by _start)


_LOADS = frozenset((Op.LDX, Op.LDUB))
_STORES = frozenset((Op.STX, Op.STB))
_BRANCHES = frozenset((Op.BA, Op.BE, Op.BNE, Op.BG, Op.BGE, Op.BL, Op.BLE))
_CONTROL = _BRANCHES | frozenset((Op.CALL, Op.JMPL))
_ALU = frozenset(
    (
        Op.ADD,
        Op.SUB,
        Op.MULX,
        Op.SDIVX,
        Op.SMODX,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.SLLX,
        Op.SRLX,
        Op.SRAX,
        Op.MOV,
        Op.SET,
    )
)


class MemopKind(enum.IntEnum):
    """Classification used by the apropos backtracking search."""

    LOAD8 = 0
    LOAD1 = 1
    STORE8 = 2
    STORE1 = 3


_MEMOP_KIND = {
    Op.LDX: MemopKind.LOAD8,
    Op.LDUB: MemopKind.LOAD1,
    Op.STX: MemopKind.STORE8,
    Op.STB: MemopKind.STORE1,
}


class Instr:
    """One decoded instruction.

    ``rs2`` and ``imm`` are mutually exclusive second operands; exactly one
    is meaningful for ALU and memory ops.  ``target`` holds a label string
    before linking and an absolute address (int) afterwards.  ``line`` is
    the source line number, ``memop`` an opaque reference the compiler's
    debug info attaches (resolved through the program's memop table).
    """

    __slots__ = (
        "op",
        "rd",
        "rs1",
        "rs2",
        "imm",
        "target",
        "addr",
        "line",
        "memop",
    )

    def __init__(
        self,
        op: Op,
        rd: int = REG_G0,
        rs1: int = REG_G0,
        rs2: Optional[int] = None,
        imm: int = 0,
        target=None,
        line: int = 0,
        memop=None,
    ) -> None:
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.addr = 0
        self.line = line
        self.memop = memop

    def copy(self) -> "Instr":
        """A fresh instruction with identical fields."""
        c = Instr(
            self.op,
            self.rd,
            self.rs1,
            self.rs2,
            self.imm,
            self.target,
            self.line,
            self.memop,
        )
        c.addr = self.addr
        return c

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .disasm import disassemble

        return f"<Instr {self.addr:#x} {disassemble(self)}>"


def is_load(instr: Instr) -> bool:
    """True for load instructions (ldx/ldub)."""
    return instr.op in _LOADS


def is_store(instr: Instr) -> bool:
    """True for store instructions (stx/stb)."""
    return instr.op in _STORES


def is_mem(instr: Instr) -> bool:
    """True for loads and stores."""
    return instr.op in _LOADS or instr.op in _STORES


def memop_kind(instr: Instr) -> MemopKind:
    """The backtracking classification of a memory instruction."""
    try:
        return _MEMOP_KIND[instr.op]
    except KeyError:
        raise IsaError(f"not a memory instruction: {instr.op.name}") from None


def is_branch(instr: Instr) -> bool:
    """True for conditional/unconditional branches."""
    return instr.op in _BRANCHES


def is_control_transfer(instr: Instr) -> bool:
    """True for branches, calls and jmpl."""
    return instr.op in _CONTROL


def writes_register(instr: Instr) -> Optional[int]:
    """The register this instruction overwrites, or None.

    Used by the collector to decide whether the skid window clobbered the
    base register of a candidate trigger instruction (making the effective
    address unascertainable), so it must be conservative and complete.
    """
    op = instr.op
    if op in _LOADS or op in _ALU:
        return instr.rd if instr.rd != REG_G0 else None
    if op == Op.CALL:
        return REG_RA
    if op == Op.JMPL:
        return instr.rd if instr.rd != REG_G0 else None
    return None


__all__ = [
    "INSTR_BYTES",
    "Op",
    "Instr",
    "MemopKind",
    "is_load",
    "is_store",
    "is_mem",
    "memop_kind",
    "is_branch",
    "is_control_transfer",
    "writes_register",
]
