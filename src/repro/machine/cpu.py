"""The CPU: fetch/execute loop with delay slots, cycle accounting and
imprecise counter-overflow traps.

The interpreter models what the paper's technique depends on:

* **pc/npc semantics with one branch delay slot** — the instruction after a
  taken branch executes before control transfers, so the compiler's
  "no loads/stores in delay slots" rule (§2.1) is meaningful;
* **counter overflow skid** — when a watched event overflows its counter,
  the trap is delivered ``skid`` completed instructions later, carrying the
  *next-to-issue* PC and the register file at delivery time (§2.2.2);
* **cycle penalties** for D$ misses, E$ misses and DTLB misses, with E$
  read-miss penalties accumulated on the ``ecstall`` event.

Two execution engines share this model (DESIGN.md §11); ``ENGINES``
names them:

* ``engine="fast"`` (default) runs the predecoded dispatch table from
  :mod:`repro.isa.decode` — fixed-width ``(kind, a, b, c)`` rows, unpacked
  in one step and dispatched by a compare chain in the measured dynamic
  mix of MCF — with a **batched overflow countdown**: instead of two
  ``counters.record()`` calls plus a pending-trap list walk per retired
  instruction, the loop computes how many instructions can retire before
  *anything* observable can happen (counter overflow, trap delivery,
  clock tick, watchdog/kill deadline, budget exhaustion) and runs that
  many iterations with no bookkeeping: the arms do not touch
  ``instr_count`` or ``cycles``, and the batch settles both once when it
  ends.  Any event that breaks the "every instruction costs exactly
  ``base_cycles``" assumption (a cache/TLB miss charging extra cycles, a
  trap being armed, a kernel service) ends the batch so the checkpoint
  runs right after that very instruction.  The checkpoint then performs
  the bookkeeping in the exact order the per-instruction loop used, and
  only for what is armed, which keeps RNG draws, trap timing and
  therefore whole profiles bit-identical (see DESIGN.md).
* ``engine="reference"`` (:mod:`repro.machine.cpu_reference`) keeps the
  seed-style per-instruction loop — the cross-check oracle for golden
  profile tests and the baseline for throughput benchmarks.

Invariants every engine must preserve:

* **Deadline batching is unobservable.**  Bookkeeping may be deferred,
  but ``counters.record()`` calls, RNG draws and pending-trap list walks
  must happen in the same order and at the same retired-instruction
  counts as the per-instruction reference loop.
* **Coalesced traps.**  One ``record()`` call that crosses *k* intervals
  arms exactly one pending trap with ``coalesced=k`` and weight
  ``interval * k`` — never *k* separate traps.
* **Pending-trap format.**  Traps are stored as ``[due_instr_count,
  register, skid, trigger_pc, coalesced, true_ea]`` where
  ``due_instr_count`` is the absolute retired-instruction count at which
  the trap must be delivered and ``true_ea`` is the triggering access's
  effective address (None for events not tied to a memory instruction) —
  a diagnostic the attribution oracle journals; the collector's profile
  never sees it.  Sampled-latency (``ldlat``) traps append an optional
  seventh element, the sampled load's latency in cycles; delivery sites
  read ``trap[6]`` only when present.  All engines share the format, so
  single-stepping and engine switches between runs agree.
* **K_BAD sentinel rows.**  The predecode table ends with a
  ``(K_BAD, None, 0, 0)`` sentinel at index ``ncode`` and appends
  dedicated ``(K_BAD, target, 0, 0)`` rows for statically invalid branch
  targets, so dispatch loops index without bounds checks; an engine
  reaching such a row must raise :class:`IllegalInstruction` with the
  *original* bad address (``bad_pc`` for dynamically computed ones).
* **Observers see flushed state.**  The fast loop tallies D$ and DTLB
  MRU hits in locals; it adds them to the units before every overflow
  handler, clock handler and kernel service runs, and when ``run``
  returns or raises, so ``machine.stats()`` read by any observer matches
  the per-instruction loop.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..errors import (
    DivisionByZero,
    IllegalInstruction,
    MachineError,
    MemoryFault,
    SimulatedCrash,
    WatchdogExpired,
)
from ..isa import decode as D
from ..isa.decode import predecode
from ..isa.instructions import Instr
from ..isa.registers import NUM_REGS, REG_RA
from .cache import Cache
from .counters import CounterSnapshot, CounterUnit
from .memory import Memory
from .tlb import TLB

_U64 = 1 << 64
_U64M = _U64 - 1
_S64_MAX = (1 << 63) - 1
_S64_MIN = -(1 << 63)
_BIG = 1 << 62

#: cycles charged for a kernel service trap (the paper's tiny System CPU time)
TRAP_CYCLES = 40

#: the interpreter loops ``CPU.engine`` selects between; journals are
#: byte-identical across them
ENGINES = ("fast", "reference")


class CPU:
    """Execution engine bound to one machine's memory system."""

    def __init__(
        self,
        memory: Memory,
        dcache: Cache,
        ecache: Cache,
        dtlb: TLB,
        counters: CounterUnit,
        rng: random.Random,
        base_cycles: int = 1,
        dtlb_miss_cycles: int = 100,
        store_stall_cycles: int = 0,
    ) -> None:
        self.memory = memory
        self.dcache = dcache
        self.ecache = ecache
        self.dtlb = dtlb
        self.counters = counters
        self.rng = rng
        self.base_cycles = base_cycles
        self.dtlb_miss_cycles = dtlb_miss_cycles
        self.store_stall_cycles = store_stall_cycles

        self.regs: list[int] = [0] * NUM_REGS
        self.pc = 0
        self.npc = 0
        self.cycles = 0
        self.system_cycles = 0
        self.instr_count = 0
        self.ecstall_cycles = 0
        self.halted = False
        self.exit_code = 0

        #: which interpreter loop `run` uses (one of ``ENGINES``)
        self.engine = "fast"

        #: call-site PCs, innermost last (shadow stack for profiling unwinds)
        self.callstack: list[int] = []

        #: decoded text segment; set by the loader
        self.code: list[Instr] = []
        self.text_base = 0

        #: predecoded dispatch table (lazily rebuilt when code changes)
        self._decoded: Optional[list[tuple]] = None
        self._decoded_src: Optional[list[Instr]] = None
        self._decoded_base = -1
        self._decoded_ncode = -1

        #: E$ lines being fetched by software prefetch: line -> ready cycle
        self.inflight_prefetches: dict[int, int] = {}

        #: armed-but-undelivered overflow traps:
        #: [due_instr_count, register, skid, trigger_pc, coalesced, true_ea]
        self.pending_traps: list[list] = []
        self.overflow_handler: Optional[Callable[[CounterSnapshot], None]] = None

        #: clock profiling (SIGPROF equivalent)
        self.clock_interval_cycles = 0
        self.next_clock_tick = 0
        self.clock_handler: Optional[Callable[[int, int, tuple], None]] = None

        #: kernel service dispatcher for the TA instruction
        self.kernel_service: Optional[Callable[["CPU", int], None]] = None

        #: injected-fault kill point (FaultPlan.kill_at_cycle); the run
        #: raises SimulatedCrash once the cycle counter reaches it
        self.kill_at_cycle: Optional[int] = None

        #: which core of the machine this CPU is (0 on single-core)
        self.core_index = 0
        #: software thread currently scheduled here (kernel-maintained)
        self.thread_id = 0
        #: shared CoherenceDirectory, or None on a single-core machine —
        #: None skips every coherence hook in the hot loops, which is
        #: what keeps single-core runs byte-identical to the historical
        #: machine
        self.coherence = None
        #: scheduler handshake: a kernel service that must end the
        #: current thread's timeslice (spawn/join-block/thread-exit) sets
        #: this and ``halted``; the scheduler reads and clears it after
        #: ``run()`` returns (services cannot redirect control flow —
        #: the engines keep pc/npc in locals — so ending the slice is
        #: the only way to switch threads deterministically)
        self._slice_event: Optional[tuple] = None

    # ------------------------------------------------------------------ API

    def set_entry(self, pc: int) -> None:
        """Point the CPU at the program entry."""
        self.pc = pc
        self.npc = pc + 4

    def enable_clock_profiling(self, interval_cycles: int) -> None:
        """Arm SIGPROF-style ticks every N cycles."""
        self.clock_interval_cycles = interval_cycles
        self.next_clock_tick = self.cycles + interval_cycles

    def snapshot(self, register: int, true_skid: int,
                 true_trigger_pc: int = 0, coalesced: int = 1,
                 true_effective_address: Optional[int] = None,
                 load_latency: Optional[int] = None) -> CounterSnapshot:
        """Build the signal-delivery view of the CPU state."""
        spec = self.counters.specs[register]
        assert spec is not None
        return CounterSnapshot(
            counter_index=register,
            event=spec.event,
            trap_pc=self.pc,
            regs=tuple(self.regs),
            callstack=tuple(self.callstack),
            cycle=self.cycles,
            instr_count=self.instr_count,
            true_skid=true_skid,
            true_trigger_pc=true_trigger_pc,
            coalesced=coalesced,
            true_effective_address=true_effective_address,
            load_latency=load_latency,
            core=self.core_index,
            thread=self.thread_id,
        )

    def step(self) -> None:
        """Execute exactly one instruction (test/debug convenience)."""
        self.run(max_instructions=1)

    def predecode_code(self) -> None:
        """Build the fast-dispatch table eagerly (the loader calls this so
        the first run does not pay the lowering cost)."""
        self._dispatch_table()

    def _dispatch_table(self) -> list[tuple]:
        """The predecoded form of ``self.code``, rebuilt when stale.

        Tests (and the loader, before it learned to predecode) assign
        ``cpu.code`` directly, so the table is validated against the
        current code list identity, base and length on every run.
        """
        dec = self._decoded
        code = self.code
        if (
            dec is None
            or self._decoded_src is not code
            or self._decoded_base != self.text_base
            or self._decoded_ncode != len(code)
        ):
            dec = predecode(code, self.text_base)
            self._decoded = dec
            self._decoded_src = code
            self._decoded_base = self.text_base
            self._decoded_ncode = len(code)
        return dec

    # ------------------------------------------------------------- main loop

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        watchdog_instructions: Optional[int] = None,
    ) -> int:
        """Run until HALT (or the budget); returns instructions executed.

        ``max_instructions`` stops gracefully; ``max_cycles`` and
        ``watchdog_instructions`` are *loud* deadlines that raise
        :class:`WatchdogExpired` — the collector's runaway-run guard.
        """
        if self.engine == "reference":
            from .cpu_reference import run_reference

            return run_reference(
                self, max_instructions, max_cycles, watchdog_instructions
            )

        # Bind everything hot to locals.
        regs = self.regs
        memory = self.memory
        words = memory.words
        mem_base = memory.base
        nwords = len(words)
        dcache = self.dcache
        ecache = self.ecache
        dtlb = self.dtlb
        counters = self.counters
        watching = counters.watching
        record = counters.record
        remaining = counters.remaining
        pending = self.pending_traps
        callstack = self.callstack
        code = self.code
        text_base = self.text_base
        ncode = len(code)
        dec = self._dispatch_table()
        base_cycles = self.base_cycles
        ec_hit_cycles = ecache.config.hit_cycles
        ec_miss_cycles = ecache.config.miss_cycles
        dtlb_miss_cycles = self.dtlb_miss_cycles
        store_stall_cycles = self.store_stall_cycles
        inflight = self.inflight_prefetches
        ec_line_shift = ecache.line_shift
        # coherence (multi-core only; None on the historical machine)
        coh = self.coherence
        core_id = self.core_index
        coh_owner = coh.owner if coh is not None else None
        coh_shift = coh.line_shift if coh is not None else 0

        # D$ and DTLB most-recently-used fast paths: a hit on the MRU entry
        # causes no LRU movement and no state change, so it can be tested
        # inline and tallied in a local, flushed before every observer.
        dc_shift = dcache.line_shift
        dc_mask = dcache.set_mask
        dc_sets = dcache.sets
        dc_read_hits = 0
        dc_write_hits = 0
        tlb_hits = 0
        # local cache of the segment of the MRU TLB entry (invalid ranges
        # force the first access through the slow path)
        seg_base = 1
        seg_end = 0
        seg_shift = 0
        mru_page = -1

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
        count_retired = w_insts is not None or w_cycles is not None

        pc = self.pc
        npc = self.npc
        cycles = self.cycles
        instr_count = self.instr_count
        ecstall_total = self.ecstall_cycles
        cc = getattr(self, "_cc", 0)

        K_SET, K_MOV, K_NOP = D.K_SET, D.K_MOV, D.K_NOP
        K_CMP_I, K_CMP_R = D.K_CMP_I, D.K_CMP_R
        K_ADD_I, K_ADD_R = D.K_ADD_I, D.K_ADD_R
        K_SUB_I, K_SUB_R = D.K_SUB_I, D.K_SUB_R
        K_MULX_I, K_MULX_R = D.K_MULX_I, D.K_MULX_R
        K_AND_I, K_AND_R = D.K_AND_I, D.K_AND_R
        K_OR_I, K_OR_R = D.K_OR_I, D.K_OR_R
        K_XOR_I, K_XOR_R = D.K_XOR_I, D.K_XOR_R
        K_SLLX_I, K_SLLX_R = D.K_SLLX_I, D.K_SLLX_R
        K_SRLX_I, K_SRLX_R = D.K_SRLX_I, D.K_SRLX_R
        K_SRAX_I, K_SRAX_R = D.K_SRAX_I, D.K_SRAX_R
        K_BA, K_BE, K_BNE = D.K_BA, D.K_BE, D.K_BNE
        K_BG, K_BGE, K_BL, K_BLE = D.K_BG, D.K_BGE, D.K_BL, D.K_BLE
        K_CALL, K_JMPL, K_RET = D.K_CALL, D.K_JMPL, D.K_RET
        K_TA, K_HALT, K_BAD = D.K_TA, D.K_HALT, D.K_BAD

        budget = -1 if max_instructions is None else max_instructions
        start_count = instr_count
        flushed_insts = instr_count
        flushed_cycles = cycles

        if self.halted or budget == 0:
            return 0

        # The deadlines, folded: one cycle stop (kill point or cycle
        # watchdog) and two instruction stops (the watchdog raises, the
        # budget stops quietly); _BIG stands for "not armed".
        kill_at = self.kill_at_cycle
        cycle_stop = min(_BIG if kill_at is None else kill_at,
                         _BIG if max_cycles is None else max_cycles)
        watch_stop = (_BIG if watchdog_instructions is None
                      else watchdog_instructions)
        budget_stop = start_count + budget if budget >= 0 else _BIG
        insts_limit = min(watch_stop, budget_stop)
        clock_interval = self.clock_interval_cycles
        tick = self.next_clock_tick if clock_interval else _BIG
        cycles_limit = min(tick, cycle_stop)

        # The loop runs in *index space*: ``i``/``ni`` are dispatch-table
        # rows standing in for pc/npc (pc == text_base + 4*i), so the hot
        # path never converts an address or bounds-checks a fetch — every
        # invalid control transfer lands on a K_BAD row instead.  ``bad_pc``
        # remembers the unrepresentable address of a computed jump that had
        # to be redirected to the sentinel row.
        tb = text_base
        i = (pc - tb) >> 2
        if pc & 3 or i < 0 or i > ncode:
            raise IllegalInstruction(f"fetch from 0x{pc:x}")
        ni = (npc - tb) >> 2
        bad_pc = None
        if npc & 3 or ni < 0 or ni > ncode:
            bad_pc = npc
            ni = ncode

        def btfn_backward(trow, row):
            # BTFN static prediction: taken iff the target address is at or
            # before the branch.  Statically invalid targets live on
            # appended K_BAD rows whose payload keeps the raw address, so
            # compare addresses there instead of row indices.
            te = dec[trow]
            if te[0] == K_BAD and te[1] is not None:
                return te[1] <= tb + (row << 2)
            return trow <= row

        def note_br(mispred, row, icount):
            # One completed branch (and possibly one misprediction) on the
            # branch counters; returns True when a trap was armed so the
            # arm breaks to the checkpoint at this instruction.
            armed = False
            if w_br is not None:
                s = record(w_br, 1)
                if s >= 0:
                    pending.append([icount + 1 + s, w_br, s, tb + (row << 2),
                                    counters.last_coalesced, None])
                    armed = True
            if mispred and w_brm is not None:
                s = record(w_brm, 1)
                if s >= 0:
                    pending.append([icount + 1 + s, w_brm, s, tb + (row << 2),
                                    counters.last_coalesced, None])
                    armed = True
            return armed

        def publish(row, nrow, bad, cyc, icount, ecstall, tlb, dcr, dcw):
            # An observer (trap or clock handler, kernel service) is about
            # to run: hand the shared state the loop's locals, the batched
            # MRU hit tallies included (the caller zeroes its tallies).
            # Returns the next-to-issue pc.
            pc = tb + (row << 2)
            self.pc = pc
            self.npc = (
                bad if nrow == ncode and bad is not None else tb + (nrow << 2)
            )
            self.cycles, self.instr_count = cyc, icount
            self.ecstall_cycles = ecstall
            dtlb.refs += tlb
            dcache.read_refs += dcr
            dcache.write_refs += dcw
            return pc

        brk = False
        in_batch = False
        try:
            while True:
                # ---- how many instructions may retire before the next
                # possible observable event, assuming every one costs
                # exactly base_cycles (any instruction that violates the
                # assumption breaks the batch when it happens)
                nxt = insts_limit - instr_count
                if w_insts is not None:
                    v = remaining[w_insts]
                    if v < nxt:
                        nxt = v
                if w_cycles is not None:
                    v = -(-remaining[w_cycles] // base_cycles)
                    if v < nxt:
                        nxt = v
                if pending:
                    v = min(trap[0] for trap in pending) - instr_count
                    if v < nxt:
                        nxt = v
                if cycles_limit < _BIG:
                    v = -(-(cycles_limit - cycles) // base_cycles)
                    if v < nxt:
                        nxt = v

                # ---- the batch: dispatch chain in the measured dynamic
                # mix of one pipebench MCF pass (859,500 instructions):
                # LDX 18.9%, SET 17.4%, NOP 10.2%, ADD_R 7.3%, MOV 6.6%,
                # STX 6.4%, MULX_R 5.1%, CMP_R 4.4%, ADD_I 4.4%, CMP_I 4.2%,
                # BA 3.0%, BGE 2.9%, BL 1.9%, BNE 1.8%, SUB_R 1.1%,
                # SLLX_I 1.0%, BG 0.7%, BLE 0.6%, BE 0.6%, SUB_I 0.3%,
                # CALL 0.3%, RET 0.3%, SDIVX 0.1%; the rest never run.
                # Arms retire inline (``i = ni; ni += 1`` or the branch
                # target) and leave ``instr_count``/``cycles`` alone: after
                # ``step`` retired instructions the live counts are
                # ``instr_count + step`` and ``cycles + step * base_cycles``
                # (``cycles`` already holds the batch's extra penalties),
                # and the batch settles both once when it ends.  An arm
                # that broke the base-cycles assumption or armed a trap
                # sets ``brk`` (or breaks directly) so the checkpoint runs
                # right after it.
                in_batch = True
                for step in range(nxt if nxt > 0 else 1):
                    k, a, b, c = dec[i]
                    if k < 4:  # LDX / LDUB
                        ea = regs[b] + (regs[c] if k & 1 else c)
                        lcyc = cycles
                        # DTLB
                        if seg_base <= ea < seg_end and (ea >> seg_shift) == mru_page:
                            tlb_hits += 1
                        else:
                            if not dtlb.lookup(ea, memory):
                                cycles += dtlb_miss_cycles
                                brk = True
                                if w_dtlbm is not None:
                                    skid = record(w_dtlbm, 1)
                                    if skid >= 0:
                                        pending.append(
                                            [instr_count + step + 1 + skid,
                                             w_dtlbm, skid, tb + (i << 2),
                                             counters.last_coalesced, ea]
                                        )
                            seg = dtlb._seg_cache
                            seg_base = seg.base
                            seg_end = seg_base + seg.size
                            seg_shift = seg.page_shift
                            mru_page = ea >> seg_shift
                        # D$
                        full_miss = False
                        line = ea >> dc_shift
                        dcset = dc_sets[line & dc_mask]
                        if dcset and dcset[0] == line:
                            dc_read_hits += 1
                        elif not dcache.access(ea, False):
                            brk = True
                            if coh is not None:
                                # a line another core owns must be pulled
                                # shared (downgrade + forward penalty)
                                pen = coh.load_miss(core_id, ea)
                                if pen:
                                    cycles += pen
                                    if w_cohm is not None:
                                        skid = record(w_cohm, 1)
                                        if skid >= 0:
                                            pending.append(
                                                [instr_count + step + 1 + skid,
                                                 w_cohm, skid, tb + (i << 2),
                                                 counters.last_coalesced, ea]
                                            )
                            if w_dcrm is not None:
                                skid = record(w_dcrm, 1)
                                if skid >= 0:
                                    pending.append(
                                        [instr_count + step + 1 + skid, w_dcrm,
                                         skid, tb + (i << 2),
                                         counters.last_coalesced, ea]
                                    )
                            cycles += ec_hit_cycles
                            if w_ecref is not None:
                                skid = record(w_ecref, 1)
                                if skid >= 0:
                                    pending.append(
                                        [instr_count + step + 1 + skid, w_ecref,
                                         skid, tb + (i << 2),
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
                                            [instr_count + step + 1 + skid,
                                             w_ecrm, skid, tb + (i << 2),
                                             counters.last_coalesced, ea]
                                        )
                                if w_ecstall is not None:
                                    skid = record(w_ecstall, ec_miss_cycles)
                                    if skid >= 0:
                                        pending.append(
                                            [instr_count + step + 1 + skid,
                                             w_ecstall, skid, tb + (i << 2),
                                             counters.last_coalesced, ea]
                                        )
                        if inflight:
                            # a software prefetch may still be fetching this
                            # line: the demand load waits for the remainder
                            now = lcyc + step * base_cycles
                            ready = inflight.pop(ea >> ec_line_shift, None)
                            if ready is not None and not full_miss and ready > now:
                                wait = ready - now
                                cycles += wait
                                ecstall_total += wait
                                brk = True
                            if inflight:
                                # expire fetches that completed in the past
                                now = cycles + step * base_cycles
                                stale = [
                                    ln for ln, r in inflight.items() if r <= now
                                ]
                                for ln in stale:
                                    del inflight[ln]
                        # data
                        if k < 2:  # LDX
                            if ea & 7:
                                raise MemoryFault(ea, "misaligned 8-byte load")
                            widx = (ea - mem_base) >> 3
                            if widx < 0 or widx >= nwords:
                                raise MemoryFault(ea)
                            value = words[widx]
                        else:  # LDUB
                            widx = (ea - mem_base) >> 3
                            if widx < 0 or widx >= nwords:
                                raise MemoryFault(ea)
                            value = (words[widx] >> ((ea & 7) << 3)) & 0xFF
                        if a:
                            regs[a] = value
                        if w_ldbytes is not None:
                            skid = record(w_ldbytes, 8 if k < 2 else 1)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + step + 1 + skid, w_ldbytes,
                                     skid, tb + (i << 2),
                                     counters.last_coalesced, ea]
                                )
                                brk = True
                        if w_ldlat is not None:
                            skid = record(w_ldlat, 1)
                            if skid >= 0:
                                # sampled SPE-style latency: every cycle the
                                # load consumed (miss penalties, prefetch
                                # waits) plus its base issue cost
                                pending.append(
                                    [instr_count + step + 1 + skid, w_ldlat,
                                     skid, tb + (i << 2),
                                     counters.last_coalesced, ea,
                                     cycles - lcyc + base_cycles]
                                )
                                brk = True
                        i = ni
                        ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_SET:
                        regs[a] = b
                        i = ni
                        ni += 1
                    elif k == K_NOP:
                        i = ni
                        ni += 1
                    elif k == K_ADD_R:
                        value = regs[b] + regs[c]
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_MOV:
                        regs[a] = regs[b]
                        i = ni
                        ni += 1
                    elif k < 8:  # STX / STB
                        ea = regs[b] + (regs[c] if k & 1 else c)
                        if seg_base <= ea < seg_end and (ea >> seg_shift) == mru_page:
                            tlb_hits += 1
                        else:
                            if not dtlb.lookup(ea, memory):
                                cycles += dtlb_miss_cycles
                                brk = True
                                if w_dtlbm is not None:
                                    skid = record(w_dtlbm, 1)
                                    if skid >= 0:
                                        pending.append(
                                            [instr_count + step + 1 + skid,
                                             w_dtlbm, skid, tb + (i << 2),
                                             counters.last_coalesced, ea]
                                        )
                            seg = dtlb._seg_cache
                            seg_base = seg.base
                            seg_end = seg_base + seg.size
                            seg_shift = seg.page_shift
                            mru_page = ea >> seg_shift
                        if coh is not None and coh_owner.get(ea >> coh_shift) != core_id:
                            # acquire ownership of the E$ line; any other
                            # holder pays the invalidation penalty here
                            pen = coh.store(core_id, ea)
                            if pen:
                                cycles += pen
                                brk = True
                                if w_cohm is not None:
                                    skid = record(w_cohm, 1)
                                    if skid >= 0:
                                        pending.append(
                                            [instr_count + step + 1 + skid,
                                             w_cohm, skid, tb + (i << 2),
                                             counters.last_coalesced, ea]
                                        )
                        line = ea >> dc_shift
                        dcset = dc_sets[line & dc_mask]
                        if dcset and dcset[0] == line:
                            dc_write_hits += 1
                        elif not dcache.access(ea, True):
                            # write-allocate through E$; the write buffer
                            # hides most of the latency (configurable
                            # residual stall)
                            brk = True
                            if store_stall_cycles:
                                cycles += store_stall_cycles
                            if w_ecref is not None:
                                skid = record(w_ecref, 1)
                                if skid >= 0:
                                    pending.append(
                                        [instr_count + step + 1 + skid, w_ecref,
                                         skid, tb + (i << 2),
                                         counters.last_coalesced, ea]
                                    )
                            ecache.access(ea, True)
                        if inflight:
                            # the store supersedes any in-flight prefetch of
                            # its line; completed fetches are dropped too
                            inflight.pop(ea >> ec_line_shift, None)
                            if inflight:
                                now = cycles + step * base_cycles
                                stale = [
                                    ln for ln, r in inflight.items() if r <= now
                                ]
                                for ln in stale:
                                    del inflight[ln]
                        if k < 6:  # STX
                            if ea & 7:
                                raise MemoryFault(ea, "misaligned 8-byte store")
                            widx = (ea - mem_base) >> 3
                            if widx < 0 or widx >= nwords:
                                raise MemoryFault(ea)
                            words[widx] = regs[a]
                        else:  # STB
                            widx = (ea - mem_base) >> 3
                            if widx < 0 or widx >= nwords:
                                raise MemoryFault(ea)
                            shift = (ea & 7) << 3
                            word = words[widx] & _U64M
                            word = (word & ~(0xFF << shift)) | (
                                (regs[a] & 0xFF) << shift
                            )
                            if word > _S64_MAX:
                                word -= _U64
                            words[widx] = word
                        if w_stbytes is not None:
                            skid = record(w_stbytes, 8 if k < 6 else 1)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + step + 1 + skid, w_stbytes,
                                     skid, tb + (i << 2),
                                     counters.last_coalesced, ea]
                                )
                                brk = True
                        i = ni
                        ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_MULX_R:
                        value = regs[b] * regs[c]
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_CMP_R:
                        cc = regs[a] - regs[b]
                        i = ni
                        ni += 1
                    elif k == K_ADD_I:
                        value = regs[b] + c
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_CMP_I:
                        cc = regs[a] - b
                        i = ni
                        ni += 1
                    elif k == K_BA:
                        if track_br and note_br(False, i, instr_count + step):
                            brk = True
                        i = ni
                        ni = a
                        if brk:
                            brk = False
                            break
                    elif k == K_BGE:
                        if track_br and note_br(
                            (cc >= 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc >= 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_BL:
                        if track_br and note_br(
                            (cc < 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc < 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_BNE:
                        if track_br and note_br(
                            (cc != 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc != 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_SUB_R:
                        value = regs[b] - regs[c]
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_SLLX_I:
                        value = regs[b] << c
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_BG:
                        if track_br and note_br(
                            (cc > 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc > 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_BLE:
                        if track_br and note_br(
                            (cc <= 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc <= 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_BE:
                        if track_br and note_br(
                            (cc == 0) != btfn_backward(a, i), i,
                            instr_count + step,
                        ):
                            brk = True
                        i = ni
                        if cc == 0:
                            ni = a
                        else:
                            ni += 1
                        if brk:
                            brk = False
                            break
                    elif k == K_SUB_I:
                        value = regs[b] - c
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_CALL:
                        if track_br and note_br(False, i, instr_count + step):
                            brk = True
                        xpc = tb + (i << 2)
                        regs[REG_RA] = xpc
                        callstack.append(xpc)
                        i = ni
                        ni = a
                        if brk:
                            brk = False
                            break
                    elif k == K_RET or k == K_JMPL:
                        # indirect target: the BTFN static predictor always
                        # mispredicts it
                        if track_br and note_br(True, i, instr_count + step):
                            brk = True
                        if a:
                            regs[a] = tb + (i << 2)
                        t = regs[b] + c
                        if k == K_RET and callstack:
                            callstack.pop()
                        ti = (t - tb) >> 2
                        if t & 3 or ti < 0 or ti > ncode:
                            # unrepresentable computed target: route through
                            # the sentinel row, which raises with this pc
                            bad_pc = t
                            ti = ncode
                        i = ni
                        ni = ti
                        if brk:
                            brk = False
                            break
                    elif k == K_MULX_I:
                        value = regs[b] * c
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k < 10:  # PREFETCH
                        ea = regs[b] + (regs[c] if k & 1 else c)
                        # dropped on a DTLB miss or an unmapped address;
                        # raises no counter events (demand accesses only)
                        try:
                            translated = dtlb.peek(ea, memory)
                        except MemoryFault:
                            translated = False
                        if translated and not dcache.access(ea, False):
                            if not ecache.access(ea, False):
                                inflight[ea >> ec_line_shift] = (
                                    cycles + step * base_cycles + ec_miss_cycles
                                )
                        i = ni
                        ni += 1
                    elif k == K_AND_R:
                        regs[a] = regs[b] & regs[c]
                        i = ni
                        ni += 1
                    elif k == K_AND_I:
                        regs[a] = regs[b] & c
                        i = ni
                        ni += 1
                    elif k == K_OR_R:
                        regs[a] = regs[b] | regs[c]
                        i = ni
                        ni += 1
                    elif k == K_OR_I:
                        regs[a] = regs[b] | c
                        i = ni
                        ni += 1
                    elif k == K_XOR_R:
                        regs[a] = regs[b] ^ regs[c]
                        i = ni
                        ni += 1
                    elif k == K_XOR_I:
                        regs[a] = regs[b] ^ c
                        i = ni
                        ni += 1
                    elif k == K_SLLX_R:
                        value = regs[b] << (regs[c] & 63)
                        if value > _S64_MAX or value < _S64_MIN:
                            value = ((value - _S64_MIN) & _U64M) + _S64_MIN
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_SRLX_I:
                        value = (regs[b] & _U64M) >> c
                        if value > _S64_MAX:
                            value -= _U64
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_SRLX_R:
                        value = (regs[b] & _U64M) >> (regs[c] & 63)
                        if value > _S64_MAX:
                            value -= _U64
                        regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_SRAX_I:
                        regs[a] = regs[b] >> c
                        i = ni
                        ni += 1
                    elif k == K_SRAX_R:
                        regs[a] = regs[b] >> (regs[c] & 63)
                        i = ni
                        ni += 1
                    elif k < 38:  # SDIVX / SMODX
                        divisor = regs[c] if k & 1 else c
                        dividend = regs[b]
                        if divisor == 0:
                            raise DivisionByZero(f"at pc 0x{tb + (i << 2):x}")
                        q = abs(dividend) // abs(divisor)
                        if (dividend < 0) != (divisor < 0):
                            q = -q
                        value = q if k < 36 else dividend - q * divisor
                        if a:
                            regs[a] = value
                        i = ni
                        ni += 1
                    elif k == K_TA:
                        service = self.kernel_service
                        if service is None:
                            raise MachineError(f"trap {a} with no kernel")
                        publish(i, ni, bad_pc, cycles + step * base_cycles,
                                instr_count + step, ecstall_total,
                                tlb_hits, dc_read_hits, dc_write_hits)
                        tlb_hits = dc_read_hits = dc_write_hits = 0
                        service(self, a)
                        cycles += TRAP_CYCLES
                        self.system_cycles += TRAP_CYCLES
                        # the service may have remapped memory
                        seg_base, seg_end, mru_page = 1, 0, -1
                        i = ni
                        ni += 1
                        break
                    elif k == K_HALT:
                        self.halted = True
                        self.exit_code = regs[8]  # %o0
                        i = ni
                        ni += 1
                        break
                    elif k == K_BAD:
                        # fetch fault: fell off the end of text, or a
                        # control transfer targeted a bad address
                        if a is None:
                            a = bad_pc if bad_pc is not None else tb + (i << 2)
                        bad_pc = a
                        raise IllegalInstruction(f"fetch from 0x{a:x}")
                    else:  # pragma: no cover - predecode rejects unknown ops
                        raise IllegalInstruction(
                            f"unknown kind {k} at 0x{tb + (i << 2):x}"
                        )
                # the batch retired ``step + 1`` instructions (an arm breaks
                # only after retiring)
                in_batch = False
                step += 1
                instr_count += step
                cycles += step * base_cycles

                # ---- checkpoint: the only place observable bookkeeping
                # happens; the countdown guarantees it runs at exactly the
                # instructions where the per-instruction loop would have
                # overflowed a counter, delivered a trap, ticked the clock
                # or hit a deadline.  Each part runs only when armed.
                if count_retired:
                    if w_insts is not None:
                        skid = record(w_insts, instr_count - flushed_insts)
                        if skid >= 0:
                            pending.append(
                                [instr_count + skid, w_insts, skid,
                                 tb + (i << 2), counters.last_coalesced, None]
                            )
                    if w_cycles is not None:
                        n = cycles - flushed_cycles
                        if n:
                            skid = record(w_cycles, n)
                            if skid >= 0:
                                pending.append(
                                    [instr_count + skid, w_cycles, skid,
                                     tb + (i << 2), counters.last_coalesced,
                                     None]
                                )
                    flushed_insts = instr_count
                    flushed_cycles = cycles
                if pending:
                    due = None
                    for trap in pending:
                        if trap[0] <= instr_count:
                            if due is None:
                                due = []
                            due.append(trap)
                    if due:
                        handler = self.overflow_handler
                        # the snapshot reads the next-to-issue pc
                        publish(i, ni, bad_pc, cycles, instr_count,
                                ecstall_total, tlb_hits, dc_read_hits,
                                dc_write_hits)
                        tlb_hits = dc_read_hits = dc_write_hits = 0
                        for trap in due:
                            pending.remove(trap)
                            if handler is not None:
                                handler(
                                    self.snapshot(
                                        trap[1], trap[2], trap[3], trap[4],
                                        trap[5],
                                        trap[6] if len(trap) > 6 else None,
                                    )
                                )
                if cycles >= tick:
                    handler = self.clock_handler
                    pc = publish(i, ni, bad_pc, cycles, instr_count,
                                 ecstall_total, tlb_hits, dc_read_hits,
                                 dc_write_hits)
                    tlb_hits = dc_read_hits = dc_write_hits = 0
                    while tick <= cycles:
                        tick += clock_interval
                        self.next_clock_tick = tick
                        if handler is not None:
                            handler(pc, cycles, tuple(callstack))
                    cycles_limit = min(tick, cycle_stop)
                # deadlines fire only after the retired instruction's
                # events are fully counted (partial experiments must
                # agree with machine.stats() ground truth)
                if cycles >= cycle_stop:
                    pc = tb + (i << 2)
                    if kill_at is not None and cycles >= kill_at:
                        raise SimulatedCrash(
                            f"injected kill at cycle {cycles} (pc 0x{pc:x})"
                        )
                    raise WatchdogExpired(
                        f"cycle watchdog: {cycles} >= {max_cycles} "
                        f"(pc 0x{pc:x})"
                    )
                if instr_count >= watch_stop:
                    raise WatchdogExpired(
                        f"instruction watchdog: {instr_count} >= "
                        f"{watchdog_instructions} (pc 0x{tb + (i << 2):x})"
                    )
                if self.halted or instr_count >= budget_stop:
                    break

        finally:
            # Sync locals back even when a fault/deadline raised mid-loop,
            # so partial-experiment finalization sees accurate state.
            if in_batch:
                # an arm raised: its instruction did not retire, the
                # ``step`` before it did
                instr_count += step
                cycles += step * base_cycles
            # Any instruction with extra cycles or an armed trap ended its
            # batch, so everything retired-but-unflushed cost exactly
            # base_cycles — flush it so counter totals track ground truth
            # through the last retired instruction.
            n = instr_count - flushed_insts
            if n:
                if w_insts is not None:
                    record(w_insts, n)
                if w_cycles is not None:
                    record(w_cycles, n * base_cycles)
            dtlb.refs += tlb_hits
            dcache.read_refs += dc_read_hits
            dcache.write_refs += dc_write_hits
            if i >= ncode and bad_pc is not None:
                self.pc = bad_pc
            else:
                self.pc = tb + (i << 2)
            if ni == ncode and bad_pc is not None and i < ncode:
                self.npc = bad_pc
            else:
                self.npc = tb + (ni << 2)
            self.cycles = cycles
            self.instr_count = instr_count
            self.ecstall_cycles = ecstall_total
            self._cc = cc
        return instr_count - start_count


__all__ = ["CPU", "ENGINES", "TRAP_CYCLES"]
