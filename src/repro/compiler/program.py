"""The linker: modules -> an executable :class:`Program` image.

The Program is what both the loader (to place text/data in simulated
memory) and the analysis tools (to read symbols, line tables, memop
cross-references and the branch-target table) consume — it plays the role
of the paper's ``a.out`` + DWARF sections.
"""

from __future__ import annotations

import gc
import pickle
from bisect import bisect_right
from dataclasses import dataclass

from ..config import TEXT_BASE
from ..errors import LinkError
from ..isa.instructions import INSTR_BYTES, Instr, Op
from .codegen import AsmFunction, Label, Module
from .debuginfo import StructLayoutInfo

#: text starts one page in, like a real mapping (paper PCs: 0x100003xxx)
TEXT_OFFSET = 0x3000
DATA_ALIGN = 0x2000


@dataclass
class FunctionSymbol:
    """A linked function's name and text range."""
    name: str
    module: str
    start: int
    end: int  # exclusive
    line: int = 0
    end_line: int = 0

    def contains(self, pc: int) -> bool:
        """True when the value lies inside this range."""
        return self.start <= pc < self.end


@dataclass
class DataSymbol:
    """A linked global/string and its data address."""
    name: str
    module: str
    addr: int
    size: int


class Program:
    """A linked executable."""

    def __init__(self) -> None:
        self.text_base = TEXT_BASE + TEXT_OFFSET
        self.code: list[Instr] = []
        self.entry = 0
        self.functions: list[FunctionSymbol] = []
        self.data_base = 0
        self.data_size = 0
        self.data_image: list[tuple[int, list]] = []  # (addr, words)
        self.data_bytes: list[tuple[int, bytes]] = []
        self.data_symbols: dict[str, DataSymbol] = {}
        #: absolute PCs that are branch targets, for modules WITH branch info
        self.branch_targets: set[int] = set()
        #: module name -> (hwcprof, has_branch_info)
        self.module_flags: dict[str, tuple[bool, bool]] = {}
        self.module_sources: dict[str, str] = {}
        self.structs: dict[str, StructLayoutInfo] = {}
        self._func_starts: list[int] = []
        self._funcs_by_name: dict[str, FunctionSymbol] = {}

    # ------------------------------------------------------------- queries

    def instr_at(self, pc: int):
        """The instruction at ``pc``, or None outside the text."""
        idx = (pc - self.text_base) >> 2
        if 0 <= idx < len(self.code) and (pc & 3) == 0:
            return self.code[idx]
        return None

    def function_at(self, pc: int):
        """The function containing ``pc``, or None."""
        idx = bisect_right(self._func_starts, pc) - 1
        if idx < 0:
            return None
        func = self.functions[idx]
        return func if func.contains(pc) else None

    def function(self, name: str) -> FunctionSymbol:
        """Look up a function symbol by name."""
        try:
            return self._funcs_by_name[name]
        except KeyError:
            raise LinkError(f"no function named {name!r}") from None

    def function_instrs(self, name: str) -> list[Instr]:
        """The instruction slice of one function."""
        func = self.function(name)
        lo = (func.start - self.text_base) >> 2
        hi = (func.end - self.text_base) >> 2
        return self.code[lo:hi]

    def data_symbol(self, name: str) -> DataSymbol:
        """Look up a global/string data symbol by name."""
        try:
            return self.data_symbols[name]
        except KeyError:
            raise LinkError(f"no data symbol named {name!r}") from None

    def hwcprof_enabled(self, pc: int) -> bool:
        """Was the module containing ``pc`` compiled with hwcprof?"""
        func = self.function_at(pc)
        if func is None:
            return False
        return self.module_flags.get(func.module, (False, False))[0]

    def has_branch_info(self, pc: int) -> bool:
        """Does ``pc``'s module carry a branch-target table?"""
        func = self.function_at(pc)
        if func is None:
            return False
        return self.module_flags.get(func.module, (False, False))[1]

    def source_for(self, func: FunctionSymbol):
        """The module source text for a function, if recorded."""
        return self.module_sources.get(func.module)

    # -------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Write to disk; returns the path written."""
        with open(path, "wb") as stream:
            pickle.dump(self, stream)

    @staticmethod
    def load(path) -> "Program":
        """Read a saved image back from disk.

        The cyclic collector is paused while the image unpickles.  An
        image is thousands of new container objects, none of them
        garbage, and every few hundred of them would otherwise start a
        young collection.  Every cold erprint verb, and every verb that
        shows code or layouts, loads an image, so those collections would
        bring on full ones (tens of ms each) in whichever verb happened
        to be running.  Paused, a load costs one young collection, just
        after it.
        """
        with open(path, "rb") as stream:
            enabled = gc.isenabled()
            gc.disable()
            try:
                program = pickle.load(stream)
            finally:
                if enabled:
                    gc.enable()
        if not isinstance(program, Program):
            raise LinkError(f"{path} is not a Program image")
        return program


def _make_start_function(main_takes_args: bool) -> AsmFunction:
    """Synthesized entry: call main(<args already in %o0/%o1>), then HALT."""
    items = [
        Instr(Op.CALL, target=("func", "main")),
        Instr(Op.NOP),
        Instr(Op.HALT),
    ]
    return AsmFunction("_start", items)


def link(modules: list, entry_main: str = "main") -> Program:
    """Link ``modules`` (in order) into a :class:`Program`.

    A ``_start`` stub is synthesized: it calls ``main`` (the loader places
    the input pointer/length in ``%o0``/``%o1``) and halts with main's
    return value as the exit code.
    """
    program = Program()

    start_module = Module(
        name="__start",
        functions=[_make_start_function(True)],
        globals_=[],
        strings=[],
        structs={},
        hwcprof=False,
        has_branch_info=False,
        source="",
    )
    all_modules = [start_module] + list(modules)

    # ---- pass 1: lay out text, collect labels -----------------------------
    label_addrs: dict[str, int] = {}
    func_addrs: dict[str, int] = {}
    pc = program.text_base
    placed: list[tuple[Module, AsmFunction, int]] = []  # (module, func, start)

    seen_funcs: set[str] = set()
    for module in all_modules:
        for func in module.functions:
            if func.name in seen_funcs:
                raise LinkError(f"duplicate definition of {func.name}()")
            seen_funcs.add(func.name)
            start = pc
            func_addrs[func.name] = start
            for item in func.items:
                if isinstance(item, Label):
                    if item.name in label_addrs:
                        raise LinkError(f"duplicate label {item.name}")
                    label_addrs[item.name] = pc
                else:
                    pc += INSTR_BYTES
            placed.append((module, func, start))
            program.functions.append(
                FunctionSymbol(func.name, module.name, start, pc, func.line, func.end_line)
            )

    if entry_main not in func_addrs:
        raise LinkError(f"undefined entry function {entry_main!r}")

    # ---- pass 2: emit instructions, resolve targets ------------------------
    referenced_labels: set[str] = set()
    pc = program.text_base
    for module, func, _start in placed:
        for item in func.items:
            if isinstance(item, Label):
                continue
            instr = item
            instr.addr = pc
            target = instr.target
            if isinstance(target, str):
                if target not in label_addrs:
                    raise LinkError(f"undefined label {target!r} in {func.name}")
                instr.target = label_addrs[target]
                referenced_labels.add(target)
            elif isinstance(target, tuple) and target[0] == "func":
                name = target[1]
                if name not in func_addrs:
                    raise LinkError(f"call to undefined function {name!r}")
                instr.target = func_addrs[name]
            elif isinstance(target, tuple) and target[0] == "funcaddr":
                # a function's address materialised as a SET immediate
                # (``spawn(worker, ...)`` takes the callee by value)
                name = target[1]
                if name not in func_addrs:
                    raise LinkError(f"address of undefined function {name!r}")
                instr.imm = func_addrs[name]
                instr.target = None
            # ("data", sym) fixups resolved after data layout
            program.code.append(instr)
            pc += INSTR_BYTES

    program.entry = func_addrs["_start"]

    # ---- branch-target table (only for modules compiled with the info) -----
    for module, func, _start in placed:
        if not module.has_branch_info:
            continue
        for item in func.items:
            if isinstance(item, Label) and item.name in referenced_labels:
                program.branch_targets.add(label_addrs[item.name])
        # function entries are call targets
        program.branch_targets.add(func_addrs[func.name])

    # ---- data layout -------------------------------------------------------
    data_base = (pc + DATA_ALIGN - 1) & ~(DATA_ALIGN - 1)
    program.data_base = data_base
    cursor = data_base
    for module in all_modules:
        for g in module.globals_:
            align = max(g.align, 8)
            cursor = (cursor + align - 1) & ~(align - 1)
            if g.name in program.data_symbols:
                raise LinkError(f"duplicate global {g.name!r}")
            program.data_symbols[g.name] = DataSymbol(g.name, module.name, cursor, g.size)
            if g.init_words:
                program.data_image.append((cursor, list(g.init_words)))
            cursor += g.size
        for symbol, raw in module.strings:
            cursor = (cursor + 7) & ~7
            if symbol in program.data_symbols:
                raise LinkError(f"duplicate string symbol {symbol!r}")
            size = (len(raw) + 7) & ~7
            program.data_symbols[symbol] = DataSymbol(symbol, module.name, cursor, size)
            program.data_bytes.append((cursor, raw))
            cursor += size
    program.data_size = max(cursor - data_base, 8)

    # ---- data fixups ---------------------------------------------------------
    for instr in program.code:
        target = instr.target
        if isinstance(target, tuple) and target[0] == "data":
            name = target[1]
            if name not in program.data_symbols:
                raise LinkError(f"reference to undefined global {name!r}")
            instr.imm = program.data_symbols[name].addr
            instr.target = None

    # ---- metadata ------------------------------------------------------------
    for module in all_modules:
        program.module_flags[module.name] = (module.hwcprof, module.has_branch_info)
        program.module_sources[module.name] = module.source
        for name, layout in module.structs.items():
            existing = program.structs.get(name)
            if existing is not None and existing != layout:
                raise LinkError(f"conflicting layouts for struct {name}")
            program.structs[name] = layout

    program.functions.sort(key=lambda f: f.start)
    program._func_starts = [f.start for f in program.functions]
    program._funcs_by_name = {f.name: f for f in program.functions}
    return program


def build_executable(
    source: str,
    name: str = "a",
    hwcprof: bool = True,
    fill_delay_slots: bool = True,
    defines=None,
    extra_modules=None,
    prefetch_feedback=None,
) -> Program:
    """Compile ``source`` and link it with the runtime library."""
    from .codegen import compile_module
    from .runtime import runtime_module

    module = compile_module(
        source, name=name, hwcprof=hwcprof,
        fill_delay_slots=fill_delay_slots, defines=defines,
        prefetch_feedback=prefetch_feedback,
    )
    modules = [module] + list(extra_modules or []) + [runtime_module()]
    return link(modules)


__all__ = [
    "Program",
    "FunctionSymbol",
    "DataSymbol",
    "link",
    "build_executable",
    "TEXT_OFFSET",
]
