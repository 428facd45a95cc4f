"""Tests for the loader and the Process abstraction."""

import pytest

from repro import build_executable, tiny_config
from repro.errors import KernelError
from repro.kernel.loader import load_program
from repro.kernel.process import Process

HELLO = """
long main(long *input, long n) {
    print_str("ok");
    return n;
}
"""


class TestLoader:
    def test_segments_created(self):
        program = build_executable(HELLO)
        image = load_program(program, tiny_config(), input_longs=[1, 2])
        names = [seg.name for seg in image.machine.memory.segments]
        assert names == ["text", "data", "input", "heap", "stack"]

    def test_segments_do_not_overlap(self):
        program = build_executable(HELLO)
        image = load_program(program, tiny_config())
        segs = sorted(image.machine.memory.segments, key=lambda s: s.base)
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.base

    def test_input_visible_to_program(self):
        program = build_executable(HELLO)
        image = load_program(program, tiny_config(), input_longs=[7, 8, 9])
        assert image.machine.memory.read_longs(image.input_base, 3) == [7, 8, 9]
        assert image.machine.cpu.regs[8] == image.input_base
        assert image.machine.cpu.regs[9] == 3

    def test_heap_page_bytes_override(self):
        program = build_executable(HELLO)
        image = load_program(program, tiny_config(), heap_page_bytes=64 * 1024)
        heap_seg = image.machine.memory.find_segment("heap")
        assert heap_seg.page_bytes == 64 * 1024
        stack_seg = image.machine.memory.find_segment("stack")
        assert stack_seg.page_bytes == tiny_config().dtlb.default_page_bytes

    def test_bad_page_size_rejected(self):
        program = build_executable(HELLO)
        with pytest.raises(KernelError):
            load_program(program, tiny_config(), heap_page_bytes=3000)

    def test_stack_pointer_initialized(self):
        program = build_executable(HELLO)
        image = load_program(program, tiny_config())
        sp = image.machine.cpu.regs[14]
        stack = image.machine.memory.find_segment("stack")
        assert stack.contains(sp)


class TestProcess:
    def test_run_returns_exit_code(self):
        program = build_executable(HELLO)
        process = Process(program, tiny_config(), input_longs=[1, 2, 3, 4])
        assert process.run(max_instructions=100_000) == 4
        assert process.finished

    def test_stdout_collected(self):
        program = build_executable(HELLO)
        process = Process(program, tiny_config())
        process.run(max_instructions=100_000)
        assert process.stdout == "ok"

    def test_malloc_allocates_from_heap_segment(self):
        src = """
        long main(long *input, long n) {
            return (long) malloc(64) & 7;
        }
        """
        program = build_executable(src)
        process = Process(program, tiny_config())
        assert process.run(max_instructions=100_000) == 0
        assert process.heap.total_allocated == 64

    def test_unknown_trap_raises(self):
        from repro.compiler.codegen import AsmFunction, Module
        from repro.compiler.program import link
        from repro.compiler.runtime import runtime_module
        from repro.isa.instructions import Instr, Op

        bad = Module(
            name="bad",
            functions=[AsmFunction("main", [Instr(Op.TA, imm=99), Instr(Op.HALT)])],
            globals_=[], strings=[], structs={},
            hwcprof=False, has_branch_info=False, source="",
        )
        program = link([bad, runtime_module()])
        process = Process(program, tiny_config())
        with pytest.raises(KernelError):
            process.run(max_instructions=100)

    def test_system_cycles_accumulate_in_traps(self):
        src = """
        long main(long *input, long n) {
            long i;
            for (i = 0; i < 10; i++) print_long(i);
            return 0;
        }
        """
        program = build_executable(src)
        process = Process(program, tiny_config())
        process.run(max_instructions=100_000)
        stats = process.machine.stats()
        assert stats.system_cycles > 0
        assert stats.system_seconds < stats.seconds

    def test_two_processes_are_isolated(self):
        program = build_executable(HELLO)
        p1 = Process(program, tiny_config(), input_longs=[1])
        p2 = Process(program, tiny_config(), input_longs=[1, 2])
        assert p1.run(max_instructions=100_000) == 1
        assert p2.run(max_instructions=100_000) == 2

    def test_close_unhooks_every_core_and_keeps_results(self):
        from repro.kernel.signals import SIGEMT, SIGPROF

        program = build_executable(HELLO)
        process = Process(program, tiny_config(), input_longs=[1, 2])
        process.signals.register(SIGEMT, lambda snapshot: None)
        process.signals.register(SIGPROF, lambda pc, cycle, stack: None)
        assert process.run(max_instructions=100_000) == 2
        process.close()
        for core in process.machine.cores:
            assert core.cpu.kernel_service is None
            assert core.cpu.overflow_handler is None
            assert core.cpu.clock_handler is None
        assert process.stdout == "ok"
        assert process.machine.stats().instructions > 0


class TestSignals:
    def test_dispatcher_counts_deliveries(self):
        from repro.kernel.signals import SIGPROF, SignalDispatcher

        src = "long main(long *input, long n) { long i; for (i=0;i<100;i++) ; return 0; }"
        program = build_executable(src)
        process = Process(program, tiny_config())
        ticks = []
        process.signals.register(SIGPROF, lambda pc, cyc, stack: ticks.append(pc))
        process.machine.cpu.enable_clock_profiling(50)
        process.run(max_instructions=100_000)
        assert ticks
        assert process.signals.delivered[SIGPROF] == len(ticks)

    def test_unregister_stops_delivery(self):
        from repro.kernel.signals import SIGPROF, SignalDispatcher

        src = "long main(long *input, long n) { long i; for (i=0;i<100;i++) ; return 0; }"
        program = build_executable(src)
        process = Process(program, tiny_config())
        ticks = []
        process.signals.register(SIGPROF, lambda pc, cyc, stack: ticks.append(pc))
        process.signals.unregister(SIGPROF)
        process.machine.cpu.enable_clock_profiling(50)
        process.run(max_instructions=100_000)
        assert not ticks

    def test_unknown_signal_rejected(self):
        from repro.kernel.signals import SignalDispatcher

        program = build_executable(HELLO)
        process = Process(program, tiny_config())
        with pytest.raises(KernelError):
            process.signals.register("SIGFOO", lambda *a: None)
