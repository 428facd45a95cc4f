"""Predecoded instruction stream for the fast interpreter.

The seed interpreter dispatched every instruction through a ~40-arm
``if/elif`` chain on :class:`Op`, re-reading ``Instr`` attributes (``rd``,
``rs1``, ``rs2``, ``imm``) each time.  This module lowers the text segment
once, at load time, into a flat list of fixed-width tuples::

    (kind, a, b, c)

where *kind* is a dense integer that already encodes the immediate/register
distinction (even = immediate second operand, odd = register) and the
operands are bound exactly once, unused slots padded with 0.  Every row
has the same width so the CPU hot loop unpacks it in one step
(``k, a, b, c = dec[i]``), dispatches on one int compare chain and never
touches an ``Instr`` again.

Lowering also performs the cheap strength reductions the per-instruction
loop paid for on every execution:

* ALU/``SET``/``MOV`` instructions whose destination is ``%g0`` become
  ``NOP`` (writes to %g0 are discarded and these ops have no side
  effects); divisions keep their kind because they must still fault on a
  zero divisor.
* shift immediates are pre-masked with ``& 63``;
* a ``jmpl %o7 + imm, %g0`` (``retl``) becomes its own kind, ``K_RET``,
  so only it pops the shadow call stack;
* an unlinked (string) branch target is rejected here, with the offending
  address in the message, instead of surfacing later as a confusing fetch
  fault.

The lowering is purely mechanical — operand values, delay-slot behaviour
and fault semantics are untouched, which is what keeps the fast
interpreter's observable profiles bit-identical to the seed interpreter's.

Invariants every consumer of the table relies on (the fast interpreter
and tests):

* rows ``0 .. len(code)-1`` are index-aligned with ``code`` — row ``r``
  models the instruction at ``text_base + 4*r``;
* row ``len(code)`` is always the ``(K_BAD, None, 0, 0)`` sentinel, and
  any rows after it are dedicated ``(K_BAD, target, 0, 0)`` fault rows
  for unrepresentable *static* targets.  Sequential execution that falls
  off the end of text lands on the sentinel naturally, so no consumer may
  bounds-check fetches — they index the table and let K_BAD raise;
* branch/call targets in rows are *table indices*, never addresses; only
  ``K_JMPL``/``K_RET`` compute a target at run time (the CPU redirects
  unrepresentable computed targets to the sentinel and stashes the real
  address in ``bad_pc``).
"""

from __future__ import annotations

from ..errors import IsaError
from .instructions import Instr, Op
from .registers import REG_G0, REG_RA

# Kind numbering is load-bearing:
#  * loads are 0..3 and stores 4..7 so the hot loop can test whole groups
#    with one compare (``k < 4``, ``k < 8``);
#  * within an imm/reg pair the immediate variant is even and the register
#    variant odd, so ``k & 1`` selects the second operand.
K_LDX_I, K_LDX_R, K_LDUB_I, K_LDUB_R = 0, 1, 2, 3
K_STX_I, K_STX_R, K_STB_I, K_STB_R = 4, 5, 6, 7
K_PREFETCH_I, K_PREFETCH_R = 8, 9
K_SET = 10
K_MOV = 11
K_NOP = 12
K_CMP_I, K_CMP_R = 13, 14
K_ADD_I, K_ADD_R = 16, 17
K_SUB_I, K_SUB_R = 18, 19
K_MULX_I, K_MULX_R = 20, 21
K_AND_I, K_AND_R = 22, 23
K_OR_I, K_OR_R = 24, 25
K_XOR_I, K_XOR_R = 26, 27
K_SLLX_I, K_SLLX_R = 28, 29
K_SRLX_I, K_SRLX_R = 30, 31
K_SRAX_I, K_SRAX_R = 32, 33
K_SDIVX_I, K_SDIVX_R = 34, 35
K_SMODX_I, K_SMODX_R = 36, 37
K_BA, K_BE, K_BNE, K_BG, K_BGE, K_BL, K_BLE = 40, 41, 42, 43, 44, 45, 46
K_CALL = 47
K_JMPL = 48
K_RET = 49  # jmpl %o7 + imm, %g0: also pops the shadow call stack
K_TA = 50
K_HALT = 51
#: fetch-fault row: ``(K_BAD, pc|None, 0, 0)``.  Row ``len(code)`` of
#: every dispatch table is ``(K_BAD, None, 0, 0)`` — the fall-off-the-end /
#: computed-jump sentinel; control transfers whose target cannot be a
#: valid text index get a dedicated ``(K_BAD, target, 0, 0)`` row appended
#: after it.
K_BAD = 52

_MEM_KINDS = {
    Op.LDX: K_LDX_I,
    Op.LDUB: K_LDUB_I,
    Op.STX: K_STX_I,
    Op.STB: K_STB_I,
    Op.PREFETCH: K_PREFETCH_I,
}

_ALU_KINDS = {
    Op.ADD: K_ADD_I,
    Op.SUB: K_SUB_I,
    Op.MULX: K_MULX_I,
    Op.AND: K_AND_I,
    Op.OR: K_OR_I,
    Op.XOR: K_XOR_I,
}

_DIV_KINDS = {Op.SDIVX: K_SDIVX_I, Op.SMODX: K_SMODX_I}

_SHIFT_KINDS = {Op.SLLX: K_SLLX_I, Op.SRLX: K_SRLX_I, Op.SRAX: K_SRAX_I}

_BRANCH_KINDS = {
    Op.BA: K_BA,
    Op.BE: K_BE,
    Op.BNE: K_BNE,
    Op.BG: K_BG,
    Op.BGE: K_BGE,
    Op.BL: K_BL,
    Op.BLE: K_BLE,
}


def _target(instr: Instr, pc: int):
    target = instr.target
    if not isinstance(target, int):
        raise IsaError(
            f"unlinked branch target {target!r} at 0x{pc:x} "
            f"(predecode requires a linked program)"
        )
    return target


def predecode(code: list[Instr], text_base: int) -> list[tuple]:
    """Lower a linked text segment into the fast interpreter's form.

    Every row is ``(kind, a, b, c)``; rows ``0 .. len(code)-1`` are
    index-aligned with ``code``.  Branch and call targets are stored as
    *table indices*, not addresses, so the hot loop never converts a pc or
    bounds-checks a fetch: row ``len(code)`` is the ``(K_BAD, None, 0, 0)``
    sentinel (falling off the end of text lands there naturally), and any
    static target that is misaligned or outside the text segment becomes
    a dedicated ``(K_BAD, target, 0, 0)`` row appended behind the sentinel
    — jumping to it reproduces the exact fetch-fault the per-instruction
    interpreter would have raised.
    """
    decoded: list[tuple] = []
    ncode = len(code)
    bad_rows: dict[int, int] = {}  # bad target address -> table row index

    def _tindex(target: int) -> int:
        ti = (target - text_base) >> 2
        if not target & 3 and 0 <= ti <= ncode:
            return ti
        row = bad_rows.get(target)
        if row is None:
            row = ncode + 1 + len(bad_rows)
            bad_rows[target] = row
        return row

    nop = (K_NOP, 0, 0, 0)
    pc = text_base
    for instr in code:
        op = instr.op
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        kind = _MEM_KINDS.get(op)
        if kind is not None:
            if rs2 is None:
                entry = (kind, rd, rs1, instr.imm)
            else:
                entry = (kind + 1, rd, rs1, rs2)
        elif op is Op.SET:
            entry = (K_SET, rd, instr.imm, 0) if rd else nop
        elif op is Op.MOV:
            entry = (K_MOV, rd, rs1, 0) if rd else nop
        elif op is Op.NOP:
            entry = nop
        elif op is Op.CMP:
            if rs2 is None:
                entry = (K_CMP_I, rs1, instr.imm, 0)
            else:
                entry = (K_CMP_R, rs1, rs2, 0)
        elif op in _ALU_KINDS:
            if not rd:
                entry = nop
            elif rs2 is None:
                entry = (_ALU_KINDS[op], rd, rs1, instr.imm)
            else:
                entry = (_ALU_KINDS[op] + 1, rd, rs1, rs2)
        elif op in _SHIFT_KINDS:
            if not rd:
                entry = nop
            elif rs2 is None:
                entry = (_SHIFT_KINDS[op], rd, rs1, instr.imm & 63)
            else:
                entry = (_SHIFT_KINDS[op] + 1, rd, rs1, rs2)
        elif op in _DIV_KINDS:
            # kept even for rd == %g0: must still fault on division by zero
            if rs2 is None:
                entry = (_DIV_KINDS[op], rd, rs1, instr.imm)
            else:
                entry = (_DIV_KINDS[op] + 1, rd, rs1, rs2)
        elif op in _BRANCH_KINDS:
            entry = (_BRANCH_KINDS[op], _tindex(_target(instr, pc)), 0, 0)
        elif op is Op.CALL:
            entry = (K_CALL, _tindex(_target(instr, pc)), 0, 0)
        elif op is Op.JMPL:
            kind = K_RET if rd == REG_G0 and rs1 == REG_RA else K_JMPL
            entry = (kind, rd, rs1, instr.imm)
        elif op is Op.TA:
            entry = (K_TA, instr.imm, 0, 0)
        elif op is Op.HALT:
            entry = (K_HALT, 0, 0, 0)
        else:
            raise IsaError(f"cannot predecode op {op!r} at 0x{pc:x}")
        decoded.append(entry)
        pc += 4
    decoded.append((K_BAD, None, 0, 0))
    for target in bad_rows:  # insertion order matches assigned row indices
        decoded.append((K_BAD, target, 0, 0))
    return decoded


__all__ = [name for name in globals() if name.startswith("K_")] + [
    "predecode",
]
