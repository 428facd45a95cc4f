"""Process: one run of a Program on a Machine, with kernel services.

Kernel services (the ``ta`` trap ABI shared with
:mod:`repro.compiler.runtime`): exit, malloc, free, print_long,
print_char, plus the thread primitives spawn/join/atomic_add/
thread_exit/thread_self.  Their cycle cost lands in the machine's
``system_cycles``, which becomes the tiny "System CPU Time" line of the
paper's Figure 1.

Threading model (DESIGN.md §13).  Threads are kernel-scheduled in a
**deterministic round-robin quantum interleave**: exactly one core
executes at any moment, each runnable thread in turn retires up to
``config.thread_quantum`` instructions on the core it is pinned to
(``tid % cores``), and every scheduling decision is a pure function of
program state — no host clocks, no host threads — so journals stay
bit-exact and the reference engine remains a byte-identical oracle.

A kernel service cannot redirect control flow (the engines keep pc/npc
in loop locals), so services that must switch threads — spawn, a join
that blocks, thread_exit — end the current timeslice instead: they set
``cpu.halted`` plus ``cpu._slice_event`` and the scheduler swaps thread
contexts after ``cpu.run()`` returns.  A process that never spawns runs
through the exact historical single ``cpu.run()`` call, which is what
keeps single-core journals byte-identical to the pre-threading ones.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.program import Program
from ..compiler.runtime import (
    TRAP_ATOMIC_ADD,
    TRAP_EXIT,
    TRAP_FREE,
    TRAP_JOIN,
    TRAP_MALLOC,
    TRAP_PRINT_CHAR,
    TRAP_PRINT_LONG,
    TRAP_SPAWN,
    TRAP_THREAD_EXIT,
    TRAP_THREAD_SELF,
)
from ..config import MachineConfig
from ..errors import KernelError, MemoryFault
from ..machine.cpu import CPU
from ..machine.machine import Machine
from .loader import LoadedImage, load_program
from .signals import SIGEMT, SIGPROF, SignalDispatcher

_S64_MAX = (1 << 63) - 1
_S64_MIN = -(1 << 63)


class _Thread:
    """One software thread's saved context and scheduling state."""

    __slots__ = (
        "tid",
        "core",
        "state",  # "runnable" | "blocked" | "exited"
        "regs",
        "callstack",
        "pc",
        "npc",
        "cc",
        "wait_tid",
        "exit_value",
        "stack_base",
    )

    def __init__(self, tid: int, core: int) -> None:
        self.tid = tid
        self.core = core
        self.state = "runnable"
        self.regs: list[int] = [0] * 32
        self.callstack: list[int] = []
        self.pc = 0
        self.npc = 0
        self.cc = 0
        self.wait_tid: Optional[int] = None
        self.exit_value = 0
        self.stack_base = 0


class Process:
    """A loaded program ready to run."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        input_longs=(),
        heap_page_bytes: Optional[int] = None,
        stack_bytes: int = 1 << 20,
        fault_plan=None,
    ) -> None:
        self.program = program
        self.config = config
        self.image: LoadedImage = load_program(
            program,
            config,
            input_longs=input_longs,
            heap_page_bytes=heap_page_bytes,
            stack_bytes=stack_bytes,
            machine=Machine(config, fault_plan=fault_plan),
        )
        self.machine: Machine = self.image.machine
        self.heap = self.image.heap
        self.stdout_parts: list[str] = []
        #: allocation log for instance-level analysis (paper §4):
        #: [addr, size, start_cycle, end_cycle (-1 while live), callsite_pc]
        self.allocations: list[list] = []
        self._live_alloc_index: dict[int, int] = {}
        for core in self.machine.cores:
            core.cpu.kernel_service = self._service
        self.signals = SignalDispatcher(
            self.machine.cpu,
            fault_plan=fault_plan,
            extra_cpus=[core.cpu for core in self.machine.cores[1:]],
        )
        self.finished = False
        self.exit_code = 0

        #: thread table; tid 0 is the initial thread, live on core 0 with
        #: the loader-initialised context (saved lazily after its first
        #: timeslice)
        self.threads: dict[int, _Thread] = {0: _Thread(0, 0)}
        self._order: list[int] = [0]  # round-robin order (creation order)
        self._rr = 0  # index into _order of the thread that ran last
        self._resident: list[Optional[int]] = [
            0 if core.index == 0 else None for core in self.machine.cores
        ]

    # ----------------------------------------------------------------- run

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        watchdog_instructions: Optional[int] = None,
    ) -> int:
        """Run to completion (or budget); returns the exit code.

        The optional cycle/instruction watchdogs raise
        :class:`repro.errors.WatchdogExpired` on runaway runs.
        ``max_instructions`` and ``watchdog_instructions`` are totals
        across all threads and cores; ``max_cycles`` bounds each core's
        own cycle counter.
        """
        budget = max_instructions
        try:
            if len(self.threads) == 1 and self.threads[0].state == "runnable":
                # the historical single-thread path: one unchunked run.
                # A spawn ends it with a slice event and the scheduler
                # below takes over.
                cpu = self.machine.cpu
                executed = cpu.run(
                    max_instructions=budget,
                    max_cycles=max_cycles,
                    watchdog_instructions=watchdog_instructions,
                )
                if budget is not None:
                    budget -= executed
                self._save_context(0)
                event = cpu._slice_event
                cpu._slice_event = None
                if event is None:
                    if cpu.halted:
                        self.exit_code = cpu.exit_code
                        self.finished = True
                    return self.exit_code
                self._handle_slice_event(0, event)
            self._schedule(budget, max_cycles, watchdog_instructions)
        finally:
            if self.finished:
                # every core reports halted so stale contexts cannot run
                for core in self.machine.cores:
                    core.cpu.halted = True
        return self.exit_code

    def _schedule(self, budget, max_cycles, watchdog_instructions) -> None:
        """Round-robin quantum interleave over the runnable threads."""
        machine = self.machine
        quantum = self.config.thread_quantum
        while not self.finished:
            if budget is not None and budget <= 0:
                return  # instruction budget exhausted mid-run
            thread = self._next_runnable()
            if thread is None:
                blocked = [t.tid for t in self.threads.values()
                           if t.state == "blocked"]
                if blocked:
                    raise KernelError(
                        f"deadlock: threads {blocked} blocked in join() "
                        f"with no runnable thread"
                    )
                # all threads exited without an exit()/HALT from tid 0:
                # the process is done with the last recorded exit value
                self.finished = True
                return
            cpu = machine.cores[thread.core].cpu
            self._switch_in(thread)
            # a lone runnable thread runs unchunked: with no competitor
            # the quantum cannot change the interleave, only add slice
            # boundaries (which are journal-invariant anyway)
            runnable = sum(
                1 for t in self.threads.values() if t.state == "runnable"
            )
            slice_budget = quantum if runnable > 1 else None
            if budget is not None and (
                slice_budget is None or budget < slice_budget
            ):
                slice_budget = budget
            # the instruction watchdog is a machine-wide total; express
            # it as this core's own count at which the total is reached
            watchdog = None
            if watchdog_instructions is not None:
                total = sum(c.cpu.instr_count for c in machine.cores)
                watchdog = cpu.instr_count + max(
                    watchdog_instructions - total, 0
                )
            executed = cpu.run(
                max_instructions=slice_budget,
                max_cycles=max_cycles,
                watchdog_instructions=watchdog,
            )
            if budget is not None:
                budget -= executed
            self._save_context(thread.tid)
            event = cpu._slice_event
            cpu._slice_event = None
            if event is None:
                if cpu.halted:
                    # exit()/HALT terminates the whole process
                    self.exit_code = cpu.exit_code
                    self.finished = True
                continue  # quantum expired: next thread's turn
            self._handle_slice_event(thread.tid, event)

    def _next_runnable(self) -> Optional[_Thread]:
        """The next runnable thread after the last-run one, cyclically."""
        order = self._order
        n = len(order)
        for step in range(1, n + 1):
            tid = order[(self._rr + step) % n]
            thread = self.threads[tid]
            if thread.state == "runnable":
                self._rr = (self._rr + step) % n
                return thread
        return None

    def _switch_in(self, thread: _Thread) -> None:
        """Load ``thread``'s context onto its core (contexts are saved
        eagerly after every slice, so the saved copy is authoritative —
        except for the core's still-resident thread, whose live CPU
        state *is* the context)."""
        cpu = self.machine.cores[thread.core].cpu
        if self._resident[thread.core] != thread.tid:
            # regs/callstack keep their list identity: the engines (and
            # the dispatcher's handler closures) hold direct references
            cpu.regs[:] = thread.regs
            cpu.callstack[:] = thread.callstack
            cpu.pc = thread.pc
            cpu.npc = thread.npc
            cpu._cc = thread.cc
            self._resident[thread.core] = thread.tid
        cpu.thread_id = thread.tid
        cpu.halted = False

    def _save_context(self, tid: int) -> None:
        """Snapshot the core-resident state into the thread table."""
        thread = self.threads[tid]
        cpu = self.machine.cores[thread.core].cpu
        thread.regs[:] = cpu.regs
        thread.callstack = list(cpu.callstack)
        thread.pc = cpu.pc
        thread.npc = cpu.npc
        thread.cc = getattr(cpu, "_cc", 0)

    def _handle_slice_event(self, tid: int, event: tuple) -> None:
        kind = event[0]
        if kind == "texit":
            if tid == 0:
                # the initial thread's thread_exit() ends the process
                self.exit_code = self.threads[0].exit_value
                self.finished = True
        # "spawn" and "blocked" need no extra work here: the service
        # already created/blocked the thread; the slice just ended.

    @property
    def stdout(self) -> str:
        """Everything the program printed so far."""
        return "".join(self.stdout_parts)

    def close(self) -> None:
        """Break the process's reference cycles once it has stopped.

        Every core's CPU points back at this process (``kernel_service``)
        and at the dispatcher (the SIGEMT/SIGPROF hooks), and the
        dispatcher's handlers point at whoever registered them; until
        those links go, the process, its machine and its arena outlive
        the run until a full garbage collection.  Results stay readable
        (``stdout``, ``allocations``, ``machine.stats()``).
        """
        self.signals.unregister(SIGEMT)
        self.signals.unregister(SIGPROF)
        for core in self.machine.cores:
            core.cpu.kernel_service = None

    # ------------------------------------------------------------- services

    def _service(self, cpu: CPU, code: int) -> None:
        regs = cpu.regs
        if code == TRAP_EXIT:
            cpu.halted = True
            cpu.exit_code = regs[8]
        elif code == TRAP_MALLOC:
            size = regs[8]
            addr = self.heap.alloc(size)
            regs[8] = addr
            callsite = cpu.callstack[-1] if cpu.callstack else cpu.pc
            self._live_alloc_index[addr] = len(self.allocations)
            self.allocations.append([addr, size, cpu.cycles, -1, callsite])
        elif code == TRAP_FREE:
            addr = regs[8]
            self.heap.free(addr)
            index = self._live_alloc_index.pop(addr, None)
            if index is not None:
                self.allocations[index][3] = cpu.cycles
        elif code == TRAP_PRINT_LONG:
            self.stdout_parts.append(f"{regs[8]}\n")
        elif code == TRAP_PRINT_CHAR:
            self.stdout_parts.append(chr(regs[8] & 0xFF))
        elif code == TRAP_SPAWN:
            regs[8] = self._spawn(cpu, regs[8], regs[9])
            cpu.halted = True
            cpu._slice_event = ("spawn",)
        elif code == TRAP_JOIN:
            self._join(cpu, regs[8])
        elif code == TRAP_ATOMIC_ADD:
            regs[8] = self._atomic_add(cpu, regs[8], regs[9])
        elif code == TRAP_THREAD_SELF:
            regs[8] = cpu.thread_id
        elif code == TRAP_THREAD_EXIT:
            self._thread_exit(cpu, regs[8])
        else:
            raise KernelError(f"unknown trap code {code} at pc 0x{cpu.pc:x}")

    def _spawn(self, cpu: CPU, fn_addr: int, arg: int) -> int:
        """Create a thread running ``fn_addr(arg)``; returns its tid.

        The new thread is pinned to core ``tid % cores`` and starts at
        the runtime's ``rt_thread_entry`` trampoline with its own
        heap-carved stack.  Spawning ends the caller's timeslice, so the
        scheduler can give the child its round-robin turn.
        """
        entry = self.program.function("rt_thread_entry").start
        func = self.program.function_at(fn_addr)
        if func is None or func.start != fn_addr:
            raise KernelError(f"spawn of non-function address 0x{fn_addr:x}")
        tid = len(self.threads)
        core = tid % self.config.cores
        thread = _Thread(tid, core)
        stack_bytes = self.config.thread_stack_bytes
        stack_base = self.heap.alloc(stack_bytes)
        thread.stack_base = stack_base
        # thread stacks are heap objects: log them like any allocation so
        # instance-level analysis can name them
        callsite = cpu.callstack[-1] if cpu.callstack else cpu.pc
        self._live_alloc_index[stack_base] = len(self.allocations)
        self.allocations.append(
            [stack_base, stack_bytes, cpu.cycles, -1, callsite]
        )
        thread.pc = entry
        thread.npc = entry + 4
        thread.regs[1] = fn_addr                       # %g1 = function
        thread.regs[8] = arg                           # %o0 = argument
        thread.regs[14] = stack_base + stack_bytes - 64  # %sp
        self.threads[tid] = thread
        self._order.append(tid)
        return tid

    def _join(self, cpu: CPU, target_tid: int) -> None:
        """join(tid): return the target's exit value, blocking if needed."""
        target = self.threads.get(target_tid)
        if target is None:
            raise KernelError(f"join() of unknown thread {target_tid}")
        if target_tid == cpu.thread_id:
            raise KernelError(f"thread {target_tid} cannot join itself")
        if target.state == "exited":
            cpu.regs[8] = target.exit_value
            return
        me = self.threads[cpu.thread_id]
        me.state = "blocked"
        me.wait_tid = target_tid
        cpu.halted = True
        cpu._slice_event = ("blocked", target_tid)
        # the waker writes the exit value into our saved %o0; the join
        # trap has already retired, so we resume at the stub's return

    def _thread_exit(self, cpu: CPU, value: int) -> None:
        me = self.threads[cpu.thread_id]
        me.state = "exited"
        me.exit_value = value
        for other in self.threads.values():
            if other.state == "blocked" and other.wait_tid == me.tid:
                other.state = "runnable"
                other.wait_tid = None
                other.regs[8] = value  # join()'s return value
                # the value went into the *saved* context: force a full
                # restore even if the waiter is still core-resident
                if self._resident[other.core] == other.tid:
                    self._resident[other.core] = None
        cpu.halted = True
        cpu._slice_event = ("texit",)

    def _atomic_add(self, cpu: CPU, addr: int, delta: int) -> int:
        """Kernel-mediated atomic fetch-add on a long.

        Deliberately cache-invisible (no D$/E$/coherence traffic): it
        models an off-core atomic unit, and keeping it out of the memory
        system is what makes generated threaded programs' data traffic
        interleave-invariant.
        """
        memory = self.machine.memory
        if addr & 7:
            raise MemoryFault(addr, "misaligned atomic_add")
        widx = (addr - memory.base) >> 3
        words = memory.words
        if widx < 0 or widx >= len(words):
            raise MemoryFault(addr)
        value = words[widx] + delta
        if value > _S64_MAX or value < _S64_MIN:
            value = ((value - _S64_MIN) & ((1 << 64) - 1)) + _S64_MIN
        words[widx] = value
        return value


__all__ = ["Process"]
