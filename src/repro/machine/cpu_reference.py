"""Reference interpreter: the seed per-instruction loop, kept as an oracle.

This is the interpreter the repository started with — one big ``if/elif``
chain over :class:`Op`, two ``counters.record()`` calls and a pending-trap
walk on every retired instruction.  It is deliberately *not* optimized:
it defines the semantics of record (DESIGN.md §11).  The predecoded
batched-countdown ``fast`` loop in :mod:`repro.machine.cpu` is measured
against it:

* golden-profile and differential-fuzz tests run the same program under
  this loop and the fast one (``CPU.engine = "fast"``) and require
  bit-identical experiment journals;
* the throughput benchmark uses it as the "seed interpreter" baseline;
* when adding an instruction, implement it here first — the fast engine
  must reproduce whatever this loop does, observable action for
  observable action.

It carries the same semantic fixes as the fast engine (they are part of
the machine model, not of either loop):

* deadline checks (watchdog/kill) run *after* the retired instruction's
  ``insts``/``cycles`` events are recorded, so partial experiments agree
  with ``machine.stats()`` ground truth;
* stores consume in-flight prefetch entries for their E$ line, and
  entries whose ready cycle has passed are dropped;
* pending traps use the shared absolute format
  ``[due_instr_count, register, skid, trigger_pc, coalesced, true_ea]``,
  with sampled-latency (``ldlat``) traps appending an optional seventh
  element carrying the sampled load's latency in cycles.
"""

from __future__ import annotations

from typing import Optional

from ..errors import (
    DivisionByZero,
    IllegalInstruction,
    MachineError,
    MemoryFault,
    SimulatedCrash,
    WatchdogExpired,
)
from ..isa.instructions import Op
from ..isa.registers import REG_G0, REG_RA

_U64 = 1 << 64
_S64_MAX = (1 << 63) - 1
_S64_MIN = -(1 << 63)


def run_reference(
    cpu,
    max_instructions: Optional[int] = None,
    max_cycles: Optional[int] = None,
    watchdog_instructions: Optional[int] = None,
) -> int:
    """Per-instruction interpreter loop (see module docstring)."""
    from .cpu import TRAP_CYCLES

    # Bind everything hot to locals.
    regs = cpu.regs
    memory = cpu.memory
    words = memory.words
    mem_base = memory.base
    nwords = len(words)
    dcache = cpu.dcache
    ecache = cpu.ecache
    dtlb = cpu.dtlb
    counters = cpu.counters
    watching = counters.watching
    record = counters.record
    pending = cpu.pending_traps
    callstack = cpu.callstack
    code = cpu.code
    text_base = cpu.text_base
    ncode = len(code)
    base_cycles = cpu.base_cycles
    ec_hit_cycles = ecache.config.hit_cycles
    ec_miss_cycles = ecache.config.miss_cycles
    dtlb_miss_cycles = cpu.dtlb_miss_cycles
    store_stall_cycles = cpu.store_stall_cycles
    inflight = cpu.inflight_prefetches
    ec_line_shift = ecache.line_shift
    # coherence (multi-core only; None on the historical machine)
    coh = cpu.coherence
    core_id = cpu.core_index
    coh_owner = coh.owner if coh is not None else None
    coh_shift = coh.line_shift if coh is not None else 0

    w_cycles = watching.get("cycles")
    w_insts = watching.get("insts")
    w_dcrm = watching.get("dcrm")
    w_dtlbm = watching.get("dtlbm")
    w_ecref = watching.get("ecref")
    w_ecrm = watching.get("ecrm")
    w_ecstall = watching.get("ecstall")
    w_ldbytes = watching.get("ldbytes")
    w_stbytes = watching.get("stbytes")
    w_ldlat = watching.get("ldlat")
    w_br = watching.get("br")
    w_brm = watching.get("brm")
    w_cohm = watching.get("cohm")
    track_br = w_br is not None or w_brm is not None

    def note_br(mispred, bpc, icount):
        # One completed branch (and possibly one misprediction under the
        # BTFN static model) on the branch counters.
        if w_br is not None:
            s = record(w_br, 1)
            if s >= 0:
                pending.append([icount + 1 + s, w_br, s, bpc,
                                counters.last_coalesced, None])
        if mispred and w_brm is not None:
            s = record(w_brm, 1)
            if s >= 0:
                pending.append([icount + 1 + s, w_brm, s, bpc,
                                counters.last_coalesced, None])

    pc = cpu.pc
    npc = cpu.npc
    cycles = cpu.cycles
    instr_count = cpu.instr_count
    ecstall_total = cpu.ecstall_cycles

    O = Op
    LDX, LDUB, STX, STB = O.LDX, O.LDUB, O.STX, O.STB
    PREFETCH = O.PREFETCH
    ADD, SUB, MULX, SDIVX, SMODX = O.ADD, O.SUB, O.MULX, O.SDIVX, O.SMODX
    AND_, OR_, XOR_ = O.AND, O.OR, O.XOR
    SLLX, SRLX, SRAX = O.SLLX, O.SRLX, O.SRAX
    MOV, SET, CMP = O.MOV, O.SET, O.CMP
    BA, BE, BNE, BG, BGE, BL, BLE = O.BA, O.BE, O.BNE, O.BG, O.BGE, O.BL, O.BLE
    CALL, JMPL, NOP, TA, HALT = O.CALL, O.JMPL, O.NOP, O.TA, O.HALT

    cc = getattr(cpu, "_cc", 0)
    executed = 0
    budget = max_instructions if max_instructions is not None else -1

    kill_at = cpu.kill_at_cycle
    deadlines = (
        max_cycles is not None
        or watchdog_instructions is not None
        or kill_at is not None
    )

    try:
        while not cpu.halted:
            if budget == 0:
                break
            budget -= 1

            idx = (pc - text_base) >> 2
            if idx < 0 or idx >= ncode or pc & 3:
                raise IllegalInstruction(f"fetch from 0x{pc:x}")
            instr = code[idx]
            op = instr.op
            npc2 = npc + 4
            cyc0 = cycles

            if op is LDX or op is LDUB:
                rs2 = instr.rs2
                ea = regs[instr.rs1] + (instr.imm if rs2 is None else regs[rs2])
                # DTLB
                if not dtlb.lookup(ea, memory):
                    cycles += dtlb_miss_cycles
                    if w_dtlbm is not None:
                        skid = record(w_dtlbm, 1)
                        if skid >= 0:
                            pending.append(
                                [instr_count + 1 + skid, w_dtlbm, skid, pc,
                                 counters.last_coalesced, ea]
                            )
                # D$
                full_miss = False
                if not dcache.access(ea, False):
                    if coh is not None:
                        # a line another core owns must be pulled shared
                        # (downgrade + forward penalty)
                        pen = coh.load_miss(core_id, ea)
                        if pen:
                            cycles += pen
                            if w_cohm is not None:
                                skid = record(w_cohm, 1)
                                if skid >= 0:
                                    pending.append(
                                        [instr_count + 1 + skid, w_cohm, skid,
                                         pc, counters.last_coalesced, ea]
                                    )
                    if w_dcrm is not None:
                        skid = record(w_dcrm, 1)
                        if skid >= 0:
                            pending.append(
                                [instr_count + 1 + skid, w_dcrm, skid, pc,
                                 counters.last_coalesced, ea]
                            )
                    cycles += ec_hit_cycles
                    if w_ecref is not None:
                        skid = record(w_ecref, 1)
                        if skid >= 0:
                            pending.append(
                                [instr_count + 1 + skid, w_ecref, skid, pc,
                                 counters.last_coalesced, ea]
                            )
                    if not ecache.access(ea, False):
                        full_miss = True
                        cycles += ec_miss_cycles
                        ecstall_total += ec_miss_cycles
                        if w_ecrm is not None:
                            skid = record(w_ecrm, 1)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + 1 + skid, w_ecrm, skid, pc,
                                     counters.last_coalesced, ea]
                                )
                        if w_ecstall is not None:
                            skid = record(w_ecstall, ec_miss_cycles)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + 1 + skid, w_ecstall, skid,
                                     pc, counters.last_coalesced, ea]
                                )
                if inflight:
                    # a software prefetch may still be fetching this line:
                    # the demand load waits for the remainder
                    ready = inflight.pop(ea >> ec_line_shift, None)
                    if ready is not None and not full_miss and ready > cyc0:
                        wait = ready - cyc0
                        cycles += wait
                        ecstall_total += wait
                    if inflight:
                        # expire fetches that completed in the past
                        stale = [ln for ln, r in inflight.items() if r <= cycles]
                        for ln in stale:
                            del inflight[ln]
                # data
                if op is LDX:
                    if ea & 7:
                        raise MemoryFault(ea, "misaligned 8-byte load")
                    widx = (ea - mem_base) >> 3
                    if widx < 0 or widx >= nwords:
                        raise MemoryFault(ea)
                    value = words[widx]
                else:
                    widx = (ea - mem_base) >> 3
                    if widx < 0 or widx >= nwords:
                        raise MemoryFault(ea)
                    value = (words[widx] >> ((ea & 7) << 3)) & 0xFF
                rd = instr.rd
                if rd:
                    regs[rd] = value
                if w_ldbytes is not None:
                    skid = record(w_ldbytes, 8 if op is LDX else 1)
                    if skid >= 0:
                        pending.append(
                            [instr_count + 1 + skid, w_ldbytes, skid, pc,
                             counters.last_coalesced, ea]
                        )
                if w_ldlat is not None:
                    skid = record(w_ldlat, 1)
                    if skid >= 0:
                        # sampled SPE-style latency: every cycle the load
                        # consumed (miss penalties, prefetch waits) plus
                        # its base issue cost
                        pending.append(
                            [instr_count + 1 + skid, w_ldlat, skid, pc,
                             counters.last_coalesced, ea,
                             cycles - cyc0 + base_cycles]
                        )

            elif op is STX or op is STB:
                rs2 = instr.rs2
                ea = regs[instr.rs1] + (instr.imm if rs2 is None else regs[rs2])
                if not dtlb.lookup(ea, memory):
                    cycles += dtlb_miss_cycles
                    if w_dtlbm is not None:
                        skid = record(w_dtlbm, 1)
                        if skid >= 0:
                            pending.append(
                                [instr_count + 1 + skid, w_dtlbm, skid, pc,
                                 counters.last_coalesced, ea]
                            )
                if coh is not None and coh_owner.get(ea >> coh_shift) != core_id:
                    # acquire ownership of the E$ line; any other holder
                    # pays the invalidation penalty here
                    pen = coh.store(core_id, ea)
                    if pen:
                        cycles += pen
                        if w_cohm is not None:
                            skid = record(w_cohm, 1)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + 1 + skid, w_cohm, skid, pc,
                                     counters.last_coalesced, ea]
                                )
                if not dcache.access(ea, True):
                    # write-allocate through E$; the write buffer hides most
                    # of the latency (configurable residual stall)
                    cycles += store_stall_cycles
                    if w_ecref is not None:
                        skid = record(w_ecref, 1)
                        if skid >= 0:
                            pending.append(
                                [instr_count + 1 + skid, w_ecref, skid, pc,
                                 counters.last_coalesced, ea]
                            )
                    ecache.access(ea, True)
                if inflight:
                    # the store supersedes any in-flight prefetch of its
                    # line; completed fetches are dropped too
                    inflight.pop(ea >> ec_line_shift, None)
                    if inflight:
                        stale = [ln for ln, r in inflight.items() if r <= cycles]
                        for ln in stale:
                            del inflight[ln]
                if op is STX:
                    if ea & 7:
                        raise MemoryFault(ea, "misaligned 8-byte store")
                    widx = (ea - mem_base) >> 3
                    if widx < 0 or widx >= nwords:
                        raise MemoryFault(ea)
                    words[widx] = regs[instr.rd]
                else:
                    widx = (ea - mem_base) >> 3
                    if widx < 0 or widx >= nwords:
                        raise MemoryFault(ea)
                    shift = (ea & 7) << 3
                    word = words[widx] & (_U64 - 1)
                    word = (word & ~(0xFF << shift)) | (
                        (regs[instr.rd] & 0xFF) << shift
                    )
                    if word > _S64_MAX:
                        word -= _U64
                    words[widx] = word
                if w_stbytes is not None:
                    skid = record(w_stbytes, 8 if op is STX else 1)
                    if skid >= 0:
                        pending.append(
                            [instr_count + 1 + skid, w_stbytes, skid, pc,
                             counters.last_coalesced, ea]
                        )

            elif op is PREFETCH:
                rs2 = instr.rs2
                ea = regs[instr.rs1] + (instr.imm if rs2 is None else regs[rs2])
                # dropped on a DTLB miss or an unmapped address; raises no
                # counter events (demand accesses only on the PICs)
                try:
                    translated = dtlb.peek(ea, memory)
                except MemoryFault:
                    translated = False
                if translated and not dcache.access(ea, False):
                    if not ecache.access(ea, False):
                        inflight[ea >> ec_line_shift] = cycles + ec_miss_cycles
            elif op is ADD:
                rs2 = instr.rs2
                value = regs[instr.rs1] + (instr.imm if rs2 is None else regs[rs2])
                if value > _S64_MAX or value < _S64_MIN:
                    value = ((value - _S64_MIN) & (_U64 - 1)) + _S64_MIN
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is SUB:
                rs2 = instr.rs2
                value = regs[instr.rs1] - (instr.imm if rs2 is None else regs[rs2])
                if value > _S64_MAX or value < _S64_MIN:
                    value = ((value - _S64_MIN) & (_U64 - 1)) + _S64_MIN
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is CMP:
                rs2 = instr.rs2
                cc = regs[instr.rs1] - (instr.imm if rs2 is None else regs[rs2])
            elif op is MOV:
                rd = instr.rd
                if rd:
                    regs[rd] = regs[instr.rs1]
            elif op is SET:
                rd = instr.rd
                if rd:
                    regs[rd] = instr.imm
            elif op is NOP:
                pass
            elif op is BE:
                taken = cc == 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BNE:
                taken = cc != 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BG:
                taken = cc > 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BGE:
                taken = cc >= 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BL:
                taken = cc < 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BLE:
                taken = cc <= 0
                if taken:
                    npc2 = instr.target
                if track_br:
                    note_br(taken != (instr.target <= pc), pc, instr_count)
            elif op is BA:
                npc2 = instr.target
                if track_br:
                    # unconditional with a static target: always predicted
                    note_br(False, pc, instr_count)
            elif op is MULX:
                rs2 = instr.rs2
                value = regs[instr.rs1] * (instr.imm if rs2 is None else regs[rs2])
                if value > _S64_MAX or value < _S64_MIN:
                    value = ((value - _S64_MIN) & (_U64 - 1)) + _S64_MIN
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is SDIVX or op is SMODX:
                rs2 = instr.rs2
                a = regs[instr.rs1]
                b = instr.imm if rs2 is None else regs[rs2]
                if b == 0:
                    raise DivisionByZero(f"at pc 0x{pc:x}")
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                value = q if op is SDIVX else a - q * b
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is AND_:
                rs2 = instr.rs2
                value = regs[instr.rs1] & (instr.imm if rs2 is None else regs[rs2])
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is OR_:
                rs2 = instr.rs2
                value = regs[instr.rs1] | (instr.imm if rs2 is None else regs[rs2])
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is XOR_:
                rs2 = instr.rs2
                value = regs[instr.rs1] ^ (instr.imm if rs2 is None else regs[rs2])
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is SLLX:
                rs2 = instr.rs2
                sh = (instr.imm if rs2 is None else regs[rs2]) & 63
                value = regs[instr.rs1] << sh
                if value > _S64_MAX or value < _S64_MIN:
                    value = ((value - _S64_MIN) & (_U64 - 1)) + _S64_MIN
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is SRLX:
                rs2 = instr.rs2
                sh = (instr.imm if rs2 is None else regs[rs2]) & 63
                value = (regs[instr.rs1] & (_U64 - 1)) >> sh
                if value > _S64_MAX:
                    value -= _U64
                rd = instr.rd
                if rd:
                    regs[rd] = value
            elif op is SRAX:
                rs2 = instr.rs2
                sh = (instr.imm if rs2 is None else regs[rs2]) & 63
                rd = instr.rd
                if rd:
                    regs[rd] = regs[instr.rs1] >> sh
            elif op is CALL:
                regs[REG_RA] = pc
                npc2 = instr.target
                callstack.append(pc)
                if track_br:
                    note_br(False, pc, instr_count)
            elif op is JMPL:
                rd = instr.rd
                if rd:
                    regs[rd] = pc
                npc2 = regs[instr.rs1] + instr.imm
                if rd == REG_G0 and instr.rs1 == REG_RA and callstack:
                    callstack.pop()
                if track_br:
                    # indirect target: the BTFN static predictor always
                    # mispredicts it
                    note_br(True, pc, instr_count)
            elif op is TA:
                service = cpu.kernel_service
                if service is None:
                    raise MachineError(f"trap {instr.imm} with no kernel")
                # sync state out so the kernel sees a consistent CPU
                cpu.pc, cpu.npc = pc, npc
                cpu.cycles, cpu.instr_count = cycles, instr_count
                cpu.ecstall_cycles = ecstall_total
                service(cpu, instr.imm)
                cycles += TRAP_CYCLES
                cpu.system_cycles += TRAP_CYCLES
            elif op is HALT:
                cpu.halted = True
                cpu.exit_code = regs[8]  # %o0
            else:  # pragma: no cover
                raise IllegalInstruction(f"unknown op {op!r} at 0x{pc:x}")

            # -- retire ------------------------------------------------------
            instr_count += 1
            executed += 1
            cycles += base_cycles
            pc = npc
            npc = npc2

            if w_insts is not None:
                skid = record(w_insts, 1)
                if skid >= 0:
                    pending.append(
                        [instr_count + skid, w_insts, skid, pc,
                         counters.last_coalesced, None]
                    )
            if w_cycles is not None:
                skid = record(w_cycles, cycles - cyc0)
                if skid >= 0:
                    pending.append(
                        [instr_count + skid, w_cycles, skid, pc,
                         counters.last_coalesced, None]
                    )

            if pending:
                due = None
                for trap in pending:
                    if trap[0] <= instr_count:
                        if due is None:
                            due = []
                        due.append(trap)
                if due:
                    handler = cpu.overflow_handler
                    # sync state so snapshot sees the next-to-issue PC
                    cpu.pc, cpu.npc = pc, npc
                    cpu.cycles, cpu.instr_count = cycles, instr_count
                    cpu.ecstall_cycles = ecstall_total
                    for trap in due:
                        pending.remove(trap)
                        if handler is not None:
                            handler(
                                cpu.snapshot(trap[1], trap[2], trap[3], trap[4],
                                             trap[5],
                                             trap[6] if len(trap) > 6 else None)
                            )

            if cpu.clock_interval_cycles and cycles >= cpu.next_clock_tick:
                handler2 = cpu.clock_handler
                cpu.pc, cpu.npc = pc, npc
                cpu.cycles, cpu.instr_count = cycles, instr_count
                cpu.ecstall_cycles = ecstall_total
                while cpu.next_clock_tick <= cycles:
                    cpu.next_clock_tick += cpu.clock_interval_cycles
                    if handler2 is not None:
                        handler2(pc, cycles, tuple(callstack))

            # deadlines fire only after the retired instruction's events
            # are fully counted (partial experiments must agree with
            # machine.stats() ground truth)
            if deadlines:
                if kill_at is not None and cycles >= kill_at:
                    raise SimulatedCrash(
                        f"injected kill at cycle {cycles} (pc 0x{pc:x})"
                    )
                if max_cycles is not None and cycles >= max_cycles:
                    raise WatchdogExpired(
                        f"cycle watchdog: {cycles} >= {max_cycles} "
                        f"(pc 0x{pc:x})"
                    )
                if (
                    watchdog_instructions is not None
                    and instr_count >= watchdog_instructions
                ):
                    raise WatchdogExpired(
                        f"instruction watchdog: {instr_count} >= "
                        f"{watchdog_instructions} (pc 0x{pc:x})"
                    )

    finally:
        # Sync locals back even when a fault/deadline raised mid-loop,
        # so partial-experiment finalization sees accurate state.
        cpu.pc = pc
        cpu.npc = npc
        cpu.cycles = cycles
        cpu.instr_count = instr_count
        cpu.ecstall_cycles = ecstall_total
        cpu._cc = cc
    return executed


__all__ = ["run_reference"]
