"""Unit tests for the memory arena and segment map."""

import os

import pytest

from repro import build_executable
from repro.autotune.workloads import MACHINES
from repro.config import ARENA_BASE
from repro.errors import MemoryFault, ReproError
from repro.kernel.process import Process
from repro.machine.memory import Memory, to_signed64

S64_MAX = (1 << 63) - 1
S64_MIN = -(1 << 63)


@pytest.fixture
def mem():
    return Memory(1 << 16)


class TestSigned64:
    def test_identity_in_range(self):
        for v in (0, 1, -1, S64_MAX, S64_MIN, 12345, -98765):
            assert to_signed64(v) == v

    def test_wraps_positive_overflow(self):
        assert to_signed64(S64_MAX + 1) == S64_MIN

    def test_wraps_negative_overflow(self):
        assert to_signed64(S64_MIN - 1) == S64_MAX

    def test_wraps_unsigned_representation(self):
        assert to_signed64((1 << 64) - 1) == -1

    def test_large_multiple_wraps(self):
        assert to_signed64((1 << 64) * 3 + 5) == 5


class TestWordAccess:
    def test_store_load_roundtrip(self, mem):
        mem.store64(ARENA_BASE + 8, 0x1234_5678)
        assert mem.load64(ARENA_BASE + 8) == 0x1234_5678

    def test_negative_values(self, mem):
        mem.store64(ARENA_BASE, -42)
        assert mem.load64(ARENA_BASE) == -42

    def test_store_wraps_to_64_bits(self, mem):
        mem.store64(ARENA_BASE, S64_MAX + 1)
        assert mem.load64(ARENA_BASE) == S64_MIN

    def test_misaligned_load_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.load64(ARENA_BASE + 4)

    def test_misaligned_store_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.store64(ARENA_BASE + 1, 0)

    def test_out_of_arena_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.load64(ARENA_BASE + (1 << 16))
        with pytest.raises(MemoryFault):
            mem.load64(ARENA_BASE - 8)


class TestByteAccess:
    def test_store8_load8(self, mem):
        mem.store8(ARENA_BASE + 3, 0xAB)
        assert mem.load8(ARENA_BASE + 3) == 0xAB

    def test_bytes_within_word_little_endian(self, mem):
        mem.store64(ARENA_BASE, 0x0807060504030201)
        assert [mem.load8(ARENA_BASE + i) for i in range(8)] == list(range(1, 9))

    def test_store8_preserves_other_bytes(self, mem):
        mem.store64(ARENA_BASE, -1)
        mem.store8(ARENA_BASE + 2, 0)
        value = mem.load64(ARENA_BASE) & ((1 << 64) - 1)
        assert value == 0xFFFF_FFFF_FF00_FFFF

    def test_store8_masks_to_byte(self, mem):
        mem.store8(ARENA_BASE, 0x1FF)
        assert mem.load8(ARENA_BASE) == 0xFF


class TestBulk:
    def test_write_read_longs(self, mem):
        values = [1, -2, 3, -4, 5]
        mem.write_longs(ARENA_BASE + 64, values)
        assert mem.read_longs(ARENA_BASE + 64, 5) == values

    def test_bulk_write_out_of_range(self, mem):
        with pytest.raises(MemoryFault):
            mem.write_longs(ARENA_BASE + (1 << 16) - 8, [1, 2, 3])

    def test_bulk_misaligned(self, mem):
        with pytest.raises(MemoryFault):
            mem.write_longs(ARENA_BASE + 4, [1])


class TestSegments:
    def test_add_and_find(self, mem):
        seg = mem.add_segment("heap", ARENA_BASE + 0x1000, 0x2000, 1024)
        assert mem.segment_for(ARENA_BASE + 0x1800) is seg
        assert mem.find_segment("heap") is seg

    def test_segment_ids_are_sequential(self, mem):
        a = mem.add_segment("a", ARENA_BASE, 0x1000, 1024)
        b = mem.add_segment("b", ARENA_BASE + 0x1000, 0x1000, 1024)
        assert (a.seg_id, b.seg_id) == (0, 1)

    def test_overlap_rejected(self, mem):
        mem.add_segment("a", ARENA_BASE, 0x1000, 1024)
        with pytest.raises(ReproError):
            mem.add_segment("b", ARENA_BASE + 0x800, 0x1000, 1024)

    def test_unmapped_address_faults(self, mem):
        mem.add_segment("a", ARENA_BASE, 0x1000, 1024)
        with pytest.raises(MemoryFault):
            mem.segment_for(ARENA_BASE + 0x4000)

    def test_outside_arena_rejected(self, mem):
        with pytest.raises(MemoryFault):
            mem.add_segment("big", ARENA_BASE, 1 << 20, 1024)

    def test_unknown_name(self, mem):
        with pytest.raises(ReproError):
            mem.find_segment("nope")

    def test_contains_boundaries(self, mem):
        seg = mem.add_segment("a", ARENA_BASE, 0x1000, 1024)
        assert seg.contains(ARENA_BASE)
        assert seg.contains(ARENA_BASE + 0xFFF)
        assert not seg.contains(ARENA_BASE + 0x1000)


def test_arena_size_must_be_multiple_of_8():
    with pytest.raises(ReproError):
        Memory(1 << 16 | 4)


def _current_rss_bytes() -> int:
    """Resident set size of this process right now (not its peak)."""
    try:
        with open("/proc/self/statm") as stream:
            resident_pages = int(stream.read().split()[1])
    except OSError:
        pytest.skip("needs /proc/self/statm")
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


class TestLazyArena:
    """The arena is a private anonymous mapping: zero pages appear on
    first touch, and a forked worker's stores stay in the worker."""

    def test_untouched_words_read_zero(self, mem):
        mem.store64(ARENA_BASE + 0x100, -1)
        assert mem.load64(ARENA_BASE) == 0
        assert mem.load8(ARENA_BASE + 0x108) == 0
        assert mem.read_longs(ARENA_BASE + 0x108, 64) == [0] * 64
        assert mem.load64(ARENA_BASE + (1 << 16) - 8) == 0

    def test_fresh_arena_is_not_resident(self):
        before = _current_rss_bytes()
        arena = Memory(64 << 20)
        grown = _current_rss_bytes() - before
        assert arena.load64(ARENA_BASE + (32 << 20)) == 0
        assert grown < 8 << 20, f"a fresh 64 MiB arena made {grown} B resident"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_store_is_invisible_to_parent(self, mem):
        addr = ARENA_BASE + 0x40
        mem.store64(addr, 7)
        pid = os.fork()
        if pid == 0:  # child: never return into the test runner
            code = 1
            try:
                mem.store64(addr, 42)
                mem.store64(addr + 0x1000, 43)
                code = 0 if mem.load64(addr) == 42 else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.load64(addr) == 7
        assert mem.load64(addr + 0x1000) == 0

    def test_back_to_back_processes_stay_below_one_arena(self):
        program = build_executable(
            "long main(long *input, long n) { return n; }"
        )
        config = MACHINES["tight"]()
        Process(program, config)  # warm imports and one-time caches
        before = _current_rss_bytes()
        for _ in range(8):
            process = Process(program, config)
        grown = _current_rss_bytes() - before
        assert process.machine.memory.size == config.arena_bytes
        assert grown < config.arena_bytes, (
            f"8 back-to-back processes grew RSS by {grown} B"
        )
