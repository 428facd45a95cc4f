"""Fully-associative LRU data TLB with per-segment page sizes.

A TLB entry maps one page of one segment.  The page number is computed with
the *segment's* page size, so remapping the heap with large pages (the
paper's ``-xpagesize_heap=512k``) shrinks the number of heap pages and with
it the miss rate — without touching text/data/stack behaviour.
"""

from __future__ import annotations

from ..config import TLBConfig
from .memory import Memory, Segment


class TLB:
    """The DTLB model.

    The entry set is an insertion-ordered dict used as an O(1) LRU: keys run
    oldest-first, a hit reinserts its key at the end (most recent), and a
    capacity eviction drops the first key.  This replays exactly the same
    hit/miss/eviction sequence as a recency-ordered list but without the
    per-lookup linear scan.
    """

    __slots__ = (
        "config",
        "entries",
        "misses",
        "refs",
        "_capacity",
        "_seg_cache",
        "_seg_other",
        "_seg_base",
        "_seg_end",
        "_seg_tag",
        "_seg_shift",
    )

    #: page numbers fit well below this, so ``seg_id << _SEG_TAG_SHIFT | page``
    #: is a collision-free int key (cheaper to hash than a tuple)
    _SEG_TAG_SHIFT = 48

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        # (seg_id << _SEG_TAG_SHIFT | page_no) -> True, LRU first / MRU last
        self.entries: dict[int, bool] = {}
        self.refs = 0
        self.misses = 0
        self._capacity = config.entries
        self._seg_cache: Segment | None = None
        #: the segment resolved before ``_seg_cache``
        self._seg_other: Segment | None = None
        self._seg_base = 0
        self._seg_end = 0
        self._seg_tag = 0
        self._seg_shift = 0

    def reset_state(self) -> None:
        """Flush entries and zero the counters."""
        self.entries.clear()
        self.refs = 0
        self.misses = 0
        self._seg_cache = None
        self._seg_other = None
        self._seg_base = 0
        self._seg_end = 0

    def lookup(self, addr: int, memory: Memory) -> bool:
        """Translate ``addr``; returns True on TLB hit.

        Segment resolution caches the last two segments because accesses
        are heavily clustered (the same reason real TLBs work at all), and
        a program such as MCF alternates between its stack and its heap.
        The current segment's bounds are cached as plain ints so the
        common same-segment case costs no attribute traffic;
        ``_seg_cache`` keeps the Segment object itself for callers that
        want it after a lookup.  Only an address in neither segment scans
        the segment map.
        """
        self.refs += 1
        if not self._seg_base <= addr < self._seg_end:
            seg = self._seg_other
            if seg is None or not seg.base <= addr < seg.end:
                seg = memory.segment_for(addr)
            self._seg_other = self._seg_cache
            self._seg_cache = seg
            self._seg_base = seg.base
            self._seg_end = seg.end
            self._seg_tag = seg.seg_id << self._SEG_TAG_SHIFT
            self._seg_shift = seg.page_shift
        key = self._seg_tag | (addr >> self._seg_shift)
        entries = self.entries
        if key in entries:
            del entries[key]
            entries[key] = True
            return True
        self.misses += 1
        entries[key] = True
        if len(entries) > self._capacity:
            del entries[next(iter(entries))]
        return False

    def peek(self, addr: int, memory: Memory) -> bool:
        """Non-perturbing lookup: no counters, no fill, no LRU update.
        Used by prefetches, which are dropped on a TLB miss."""
        if self._seg_base <= addr < self._seg_end:
            key = self._seg_tag | (addr >> self._seg_shift)
        else:
            seg = memory.segment_for(addr)
            key = (seg.seg_id << self._SEG_TAG_SHIFT) | (addr >> seg.page_shift)
        return key in self.entries

    def miss_rate(self) -> float:
        """Misses divided by references (0.0 when unused)."""
        return self.misses / self.refs if self.refs else 0.0


__all__ = ["TLB"]
