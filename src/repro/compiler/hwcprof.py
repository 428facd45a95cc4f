"""Instruction-stream passes implementing the paper's §2.1 code shaping.

* :func:`fill_delay_slots` — move the instruction preceding a branch into
  the branch's delay slot when legal.  With hwcprof on, loads and stores
  are never moved ("the compiler avoids scheduling load or store
  instructions in branch delay slots"), so memory events always trigger in
  straight-line code the backtracking search can walk.
* :func:`apply_hwcprof_padding` — insert ``nop`` between a load and any
  join node (label or control transfer), keeping the overflow event in the
  same basic block as the triggering load.

Both passes are why hwcprof-compiled code runs ~1-2% slower (paper: 1.3%
for MCF) — the benchmark ``test_sec21_hwcprof_overhead`` measures this.
"""

from __future__ import annotations

from ..isa.instructions import (
    Instr,
    Op,
    is_control_transfer,
    is_load,
    is_mem,
)


def _is_transfer(item) -> bool:
    return isinstance(item, Instr) and (
        is_control_transfer(item) or item.op is Op.JMPL or item.op is Op.CALL
    )


def fill_delay_slots(items: list, allow_mem: bool) -> list:
    """Fill branch delay slots from the preceding instruction where legal."""
    out = list(items)
    i = 0
    while i < len(out):
        item = out[i]
        if not _is_transfer(item):
            i += 1
            continue
        # delay slot must currently be a NOP we emitted
        if i + 1 >= len(out) or not isinstance(out[i + 1], Instr) or out[i + 1].op is not Op.NOP:
            i += 1
            continue
        if i == 0:
            i += 1
            continue
        candidate = out[i - 1]
        if not isinstance(candidate, Instr):
            i += 1  # label: candidate is a join node, cannot move
            continue
        if candidate.op in (Op.NOP, Op.CMP, Op.TA, Op.HALT) or _is_transfer(candidate):
            i += 1
            continue
        if not allow_mem and is_mem(candidate):
            i += 1
            continue
        # the candidate must not itself sit in a previous transfer's slot
        if i >= 2 and _is_transfer(out[i - 2]):
            i += 1
            continue
        # [X, BR, NOP] -> [BR, X]
        out[i - 1 : i + 2] = [item, candidate]
        i += 1
    return out


#: slack (in instructions) guaranteed after every load before the next
#: control transfer / label.  Must cover the worst skid of the precise-ish
#: memory events (ecstall/ecrm/dcrm skid at most 1 instruction); labels
#: need one more slot because a trap PC *at* a label is itself a branch
#: target and therefore unverifiable.
PAD_BEFORE_TRANSFER = 1
PAD_BEFORE_LABEL = 2


def apply_hwcprof_padding(items: list) -> list:
    """Guarantee post-load slack so overflow events stay in the load's
    basic block (paper §2.1: nops "between loads and any join-nodes")."""
    from .codegen import Label

    out: list = []
    for index, item in enumerate(items):
        out.append(item)
        if not (isinstance(item, Instr) and is_load(item)):
            continue
        # count straight-line instructions following the load
        slack = 0
        needed = PAD_BEFORE_TRANSFER
        j = index + 1
        while j < len(items) and slack < PAD_BEFORE_LABEL:
            nxt = items[j]
            if isinstance(nxt, Label):
                needed = PAD_BEFORE_LABEL
                break
            if _is_transfer(nxt):
                needed = PAD_BEFORE_TRANSFER
                break
            slack += 1
            j += 1
        for _ in range(max(0, needed - slack)):
            out.append(Instr(Op.NOP, line=item.line))
    return out


def insert_prefetches(items: list, hints, function_name: str,
                      match_all_struct_loads: bool = False) -> list:
    """Insert software prefetches for the loads named in a feedback file
    (paper §4): each matching load gets a ``prefetch`` hoisted to the
    earliest point in its basic block where the address registers are
    available, so the line fetch overlaps the other work in the block.

    ``match_all_struct_loads=True`` is the blanket ``-xprefetch``-style
    mode (no profile guidance): every struct-member load is prefetched.
    """
    from .codegen import Label

    def _matches(memop) -> bool:
        if memop is None:
            return False
        if match_all_struct_loads:
            return memop.category == "struct" and not memop.is_store
        return any(h.matches(function_name, memop) for h in hints)

    out = list(items)
    i = 0
    while i < len(out):
        item = out[i]
        if (
            isinstance(item, Instr)
            and is_load(item)
            and _matches(item.memop)
        ):
            needed = {item.rs1}
            if item.rs2 is not None:
                needed.add(item.rs2)
            j = i
            while j > 0:
                prev = out[j - 1]
                if not isinstance(prev, Instr):
                    break  # label: block boundary
                if _is_transfer(prev) or prev.op in (Op.TA, Op.HALT):
                    break
                from ..isa.instructions import writes_register

                if writes_register(prev) in needed:
                    break
                j -= 1
            # never displace a delay slot: step past transfer+slot pairs
            while j > 0 and isinstance(out[j - 1], Instr) and _is_transfer(out[j - 1]):
                j += 1
            prefetch = Instr(
                Op.PREFETCH, rs1=item.rs1, rs2=item.rs2, imm=item.imm,
                line=item.line,
            )
            out.insert(j, prefetch)
            i += 1  # the load shifted right by one
        i += 1
    return out


__all__ = ["fill_delay_slots", "apply_hwcprof_padding", "insert_prefetches"]
