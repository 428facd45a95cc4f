"""Unit tests for the DTLB model (per-segment page sizes)."""

import pytest

from repro.config import ARENA_BASE, TLBConfig
from repro.machine.memory import Memory
from repro.machine.tlb import TLB


@pytest.fixture
def mem():
    memory = Memory(1 << 20)
    memory.add_segment("small", ARENA_BASE, 0x10000, 1024)
    memory.add_segment("large", ARENA_BASE + 0x10000, 0x40000, 8192)
    return memory


def make_tlb(entries=4, page=1024, miss=50):
    return TLB(TLBConfig(entries, page, miss))


class TestBasics:
    def test_first_access_misses(self, mem):
        tlb = make_tlb()
        assert tlb.lookup(ARENA_BASE, mem) is False

    def test_same_page_hits(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)
        assert tlb.lookup(ARENA_BASE + 1000, mem) is True

    def test_next_page_misses(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)
        assert tlb.lookup(ARENA_BASE + 1024, mem) is False

    def test_page_size_is_per_segment(self, mem):
        tlb = make_tlb()
        base = ARENA_BASE + 0x10000
        tlb.lookup(base, mem)
        # 8 KB pages in the "large" segment: +4 KB is still the same page
        assert tlb.lookup(base + 4096, mem) is True
        assert tlb.lookup(base + 8192, mem) is False

    def test_counts(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)
        tlb.lookup(ARENA_BASE + 8, mem)
        tlb.lookup(ARENA_BASE + 2048, mem)
        assert tlb.refs == 3
        assert tlb.misses == 2
        assert tlb.miss_rate() == pytest.approx(2 / 3)


class TestLRU:
    def test_capacity_eviction(self, mem):
        tlb = make_tlb(entries=2)
        pages = [ARENA_BASE + i * 1024 for i in range(3)]
        for addr in pages:
            tlb.lookup(addr, mem)
        # page 0 was least recently used -> evicted
        assert tlb.lookup(pages[0], mem) is False

    def test_touch_refreshes_entry(self, mem):
        tlb = make_tlb(entries=2)
        p0, p1, p2 = (ARENA_BASE + i * 1024 for i in range(3))
        tlb.lookup(p0, mem)
        tlb.lookup(p1, mem)
        tlb.lookup(p0, mem)  # refresh p0
        tlb.lookup(p2, mem)  # evicts p1
        assert tlb.lookup(p0, mem) is True
        assert tlb.lookup(p1, mem) is False

    def test_entries_never_exceed_capacity(self, mem):
        tlb = make_tlb(entries=3)
        for i in range(10):
            tlb.lookup(ARENA_BASE + i * 1024, mem)
        assert len(tlb.entries) == 3


class TestSegmentCache:
    def test_crossing_segments_works(self, mem):
        tlb = make_tlb(entries=8)
        tlb.lookup(ARENA_BASE, mem)
        tlb.lookup(ARENA_BASE + 0x10000, mem)
        assert tlb.lookup(ARENA_BASE + 100, mem) is True

    def test_reset(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)
        tlb.reset_state()
        assert tlb.refs == 0 and tlb.misses == 0
        assert tlb.lookup(ARENA_BASE, mem) is False

    def test_alternating_segments_resolve_without_a_scan(self):
        """A stack/heap alternation (MCF's access pattern) scans the
        segment map once per segment, and hits and misses as a TLB that
        resolves every address afresh."""
        memory = _CountingMemory(1 << 20)
        memory.add_segment("data", ARENA_BASE, 0x10000, 1024)
        heap = memory.add_segment("heap", ARENA_BASE + 0x10000, 0x40000, 8192)
        stack = memory.add_segment("stack", ARENA_BASE + 0x80000, 0x10000, 1024)
        addresses = [segment.base + (k * 1480) % segment.size
                     for k in range(120) for segment in (heap, stack)]
        tlb = make_tlb(entries=4)
        hits = [tlb.lookup(addr, memory) for addr in addresses]
        assert memory.calls == 2
        assert hits == _fresh_lookups(addresses, memory, entries=4)
        # a third segment is resolved by a scan, and so is the segment it
        # displaced from the cache
        tlb.lookup(ARENA_BASE, memory)
        tlb.lookup(stack.base, memory)
        tlb.lookup(heap.base, memory)
        assert memory.calls == 4


class _CountingMemory(Memory):
    """Memory that counts its segment-map scans."""

    calls = 0

    def segment_for(self, addr):
        self.calls += 1
        return super().segment_for(addr)


def _fresh_lookups(addresses, memory, entries):
    """Hit (True) or miss per address of an LRU TLB that resolves every
    address's segment afresh."""
    lru, hits = {}, []
    for addr in addresses:
        segment = Memory.segment_for(memory, addr)
        key = (segment.seg_id, addr >> segment.page_shift)
        hits.append(key in lru)
        lru.pop(key, None)
        lru[key] = True
        if len(lru) > entries:
            del lru[next(iter(lru))]
    return hits


class TestMissRate:
    def test_zero_access_run_reports_zero(self, mem):
        """A run that never touches memory (immediate-exit program) must
        report 0.0, not raise ZeroDivisionError."""
        tlb = make_tlb()
        assert tlb.refs == 0
        assert tlb.miss_rate() == 0.0

    def test_zero_after_reset(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)
        tlb.reset_state()
        assert tlb.miss_rate() == 0.0

    def test_rate_counts_hits_and_misses(self, mem):
        tlb = make_tlb()
        tlb.lookup(ARENA_BASE, mem)        # miss
        tlb.lookup(ARENA_BASE + 100, mem)  # hit
        assert tlb.miss_rate() == 0.5
