"""Tests for the linker / Program image."""

import pytest

from repro.compiler.codegen import compile_module
from repro.compiler.program import Program, build_executable, link
from repro.compiler.runtime import runtime_module
from repro.errors import LinkError
from repro.isa.instructions import Op

SRC = """
long counter;
long helper(long x) { return x * 2; }
long main(long *input, long n) {
    counter = helper(21);
    return counter;
}
"""


@pytest.fixture
def program():
    return build_executable(SRC, name="m")


class TestLayout:
    def test_instructions_are_4_bytes_apart(self, program):
        for index, instr in enumerate(program.code):
            assert instr.addr == program.text_base + 4 * index

    def test_function_symbols_cover_text(self, program):
        spans = sorted((f.start, f.end) for f in program.functions)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 == s2, "functions must tile the text segment"
        assert spans[0][0] == program.text_base

    def test_entry_is_start_stub(self, program):
        start = program.function("_start")
        assert program.entry == start.start
        ops = [i.op for i in program.function_instrs("_start")]
        assert ops == [Op.CALL, Op.NOP, Op.HALT]

    def test_function_lookup_by_pc(self, program):
        main = program.function("main")
        assert program.function_at(main.start).name == "main"
        assert program.function_at(main.end - 4).name == "main"
        assert program.function_at(main.end) != main or True

    def test_instr_at(self, program):
        main = program.function("main")
        assert program.instr_at(main.start) is program.function_instrs("main")[0]
        assert program.instr_at(main.start + 2) is None  # misaligned
        assert program.instr_at(0x50) is None

    def test_data_symbols_assigned(self, program):
        symbol = program.data_symbol("counter")
        assert symbol.addr >= program.data_base
        assert symbol.size == 8

    def test_data_base_page_aligned(self, program):
        assert program.data_base % 0x2000 == 0

    def test_call_targets_resolved(self, program):
        calls = [i for i in program.function_instrs("main") if i.op is Op.CALL]
        helper = program.function("helper")
        assert any(c.target == helper.start for c in calls)

    def test_branch_targets_table(self, program):
        # every recorded branch target must be inside a hwcprof module
        assert program.branch_targets
        for target in program.branch_targets:
            func = program.function_at(target)
            assert func is not None

    def test_runtime_has_no_branch_info(self, program):
        zero = program.function("zero_memory")
        # runtime labels must not appear in the branch-target table
        for pc in range(zero.start, zero.end, 4):
            assert pc not in program.branch_targets

    def test_hwcprof_flags_per_module(self, program):
        main = program.function("main")
        zero = program.function("zero_memory")
        assert program.hwcprof_enabled(main.start)
        assert not program.hwcprof_enabled(zero.start)
        assert program.has_branch_info(main.start)
        assert not program.has_branch_info(zero.start)

    def test_source_recorded(self, program):
        main = program.function("main")
        assert "helper(21)" in program.source_for(main)


class TestErrors:
    def test_undefined_function_call(self):
        module = compile_module("void f(void); long main(long *i, long n) { f(); return 0; }")
        with pytest.raises(LinkError):
            link([module])

    def test_missing_main(self):
        module = compile_module("long helper(long x) { return x; }")
        with pytest.raises(LinkError):
            link([module, runtime_module()])

    def test_duplicate_function_across_modules(self):
        a = compile_module("long main(long *i, long n) { return 0; }", name="a")
        b = compile_module("long main(long *i, long n) { return 1; }", name="b")
        with pytest.raises(LinkError):
            link([a, b, runtime_module()])

    def test_duplicate_global_across_modules(self):
        a = compile_module("long g; long main(long *i, long n) { return g; }", name="a")
        b = compile_module("long g;", name="b")
        with pytest.raises(LinkError):
            link([a, b, runtime_module()])

    def test_unknown_function_lookup(self, ):
        program = build_executable(SRC)
        with pytest.raises(LinkError):
            program.function("nope")
        with pytest.raises(LinkError):
            program.data_symbol("nope")


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, program):
        path = tmp_path / "prog.pkl"
        program.save(path)
        loaded = Program.load(path)
        assert len(loaded.code) == len(program.code)
        assert loaded.entry == program.entry
        assert loaded.function("main").start == program.function("main").start
        assert loaded.structs.keys() == program.structs.keys()
        assert loaded.branch_targets == program.branch_targets

    def test_loaded_program_runs(self, tmp_path, program):
        from repro.config import tiny_config
        from repro.kernel.process import Process

        path = tmp_path / "prog.pkl"
        program.save(path)
        loaded = Program.load(path)
        process = Process(loaded, tiny_config())
        process.run(max_instructions=100_000)
        assert process.machine.cpu.exit_code == 42

    def test_load_rejects_non_program(self, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        path.write_bytes(pickle.dumps({"not": "a program"}))
        with pytest.raises(LinkError):
            Program.load(path)

    def test_load_pauses_the_cyclic_collector(self, tmp_path, program):
        import gc

        path = tmp_path / "prog.pkl"
        program.save(path)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        threshold = gc.get_threshold()
        gc.set_threshold(10)
        gc.callbacks.append(record)
        try:
            Program.load(path)
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*threshold)
        # unpaused, every 10 new objects of the image would start one
        assert len(starts) <= 1
        assert gc.isenabled()

    def test_load_restores_the_collector_state(self, tmp_path, program):
        import gc
        import pickle

        path = tmp_path / "prog.pkl"
        program.save(path)
        gc.disable()
        try:
            Program.load(path)
            assert not gc.isenabled()
        finally:
            gc.enable()
        path.write_bytes(b"not a pickle")
        with pytest.raises(pickle.UnpicklingError):
            Program.load(path)
        assert gc.isenabled()


class TestMultiModule:
    def test_two_user_modules_link(self):
        a = compile_module(
            "long helper(long x);"
            "long main(long *i, long n) { return helper(5); }",
            name="a",
        )
        b = compile_module("long helper(long x) { return x + 37; }", name="b")
        program = link([a, b, runtime_module()])
        from repro.config import tiny_config
        from repro.kernel.process import Process

        process = Process(program, tiny_config())
        process.run(max_instructions=10_000)
        assert process.machine.cpu.exit_code == 42

    def test_mixed_hwcprof_modules(self):
        a = compile_module(
            "long helper(long x);"
            "long main(long *i, long n) { return helper(1); }",
            name="a",
            hwcprof=True,
        )
        b = compile_module("long helper(long x) { return x; }", name="b", hwcprof=False)
        program = link([a, b, runtime_module()])
        assert program.hwcprof_enabled(program.function("main").start)
        assert not program.hwcprof_enabled(program.function("helper").start)
