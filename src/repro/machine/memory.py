"""Flat simulated memory arena with named segments.

The arena is one contiguous block of signed 64-bit words starting at
:data:`repro.config.ARENA_BASE`.  Segments (text, data, heap, stack) are
address ranges inside the arena; they carry a per-segment page size, which
is how the ``-xpagesize_heap`` experiment reaches the DTLB.

The words live in a private anonymous mapping viewed as a ``memoryview``
of format ``'q'``.  The kernel maps zero pages only on first touch, so
building a 64 MiB arena reserves address space instead of zero-filling
64 MiB, and only the pages a run touches become resident; untouched
words read 0.  The mapping must be ``MAP_PRIVATE``: worker processes are
forked (``repro.parallel``), and under a shared mapping a child's stores
would land in the parent's arena, where a private one copies on write.
A ``memoryview`` rejects a value outside the signed 64-bit range with
``ValueError``, so every store path wraps first (:func:`to_signed64`).

Byte order within a word is little-endian (an implementation convenience;
the paper's SPARC is big-endian but nothing in the reproduction depends on
byte order — all MCF data is 8-byte longs and pointers).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

from ..config import ARENA_BASE
from ..errors import MemoryFault, ReproError

_U64 = 1 << 64
_S64_MAX = (1 << 63) - 1


def to_signed64(value: int) -> int:
    """Wrap an arbitrary int to signed 64-bit two's complement."""
    value &= _U64 - 1
    return value - _U64 if value > _S64_MAX else value


@dataclass
class Segment:
    """A named address range with its own page size."""

    name: str
    base: int
    size: int
    page_bytes: int
    seg_id: int = 0

    def __post_init__(self) -> None:
        # precomputed for the TLB fast path (page_bytes is a power of two);
        # `end` is one past the last address.  Segments are immutable after
        # creation, so both derived values are plain attributes.
        self.page_shift = self.page_bytes.bit_length() - 1
        self.end = self.base + self.size

    def contains(self, addr: int) -> bool:
        """True when the value lies inside this range."""
        return self.base <= addr < self.end


class Memory:
    """The arena plus the segment map."""

    def __init__(self, arena_bytes: int, base: int = ARENA_BASE) -> None:
        if arena_bytes % 8:
            raise ReproError("arena size must be a multiple of 8")
        self.base = base
        self.size = arena_bytes
        self.words = memoryview(
            mmap.mmap(-1, arena_bytes, flags=mmap.MAP_PRIVATE)
        ).cast("q")
        self.segments: list[Segment] = []
        # (base, end, segment) rows so segment_for scans plain ints
        self._ranges: list[tuple[int, int, Segment]] = []

    # -- segment management -------------------------------------------------

    def add_segment(self, name: str, base: int, size: int, page_bytes: int) -> Segment:
        """Map a named range with its own page size."""
        if base % 8 or size % 8:
            raise ReproError(f"segment {name}: base/size must be 8-byte aligned")
        if base < self.base or base + size > self.base + self.size:
            raise MemoryFault(base, f"segment {name} outside arena")
        for seg in self.segments:
            if base < seg.end and seg.base < base + size:
                raise ReproError(f"segment {name} overlaps {seg.name}")
        seg = Segment(name, base, size, page_bytes, seg_id=len(self.segments))
        self.segments.append(seg)
        self._ranges.append((seg.base, seg.end, seg))
        return seg

    def segment_for(self, addr: int) -> Segment:
        """The segment containing an address (faults if none)."""
        for lo, hi, seg in self._ranges:
            if lo <= addr < hi:
                return seg
        raise MemoryFault(addr, "address in no segment")

    def find_segment(self, name: str) -> Segment:
        """Look a segment up by name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise ReproError(f"no segment named {name!r}")

    # -- word access (the CPU fast path indexes self.words directly) --------

    def load64(self, addr: int) -> int:
        """Aligned 8-byte load (signed)."""
        if addr % 8:
            raise MemoryFault(addr, "misaligned 8-byte load")
        idx = (addr - self.base) >> 3
        if not 0 <= idx < len(self.words):
            raise MemoryFault(addr)
        return self.words[idx]

    def store64(self, addr: int, value: int) -> None:
        """Aligned 8-byte store (wraps to 64 bits)."""
        if addr % 8:
            raise MemoryFault(addr, "misaligned 8-byte store")
        idx = (addr - self.base) >> 3
        if not 0 <= idx < len(self.words):
            raise MemoryFault(addr)
        self.words[idx] = to_signed64(value)

    def load8(self, addr: int) -> int:
        """Single-byte load (zero-extended)."""
        idx = (addr - self.base) >> 3
        if not 0 <= idx < len(self.words):
            raise MemoryFault(addr)
        word = self.words[idx] & (_U64 - 1)
        return (word >> ((addr & 7) * 8)) & 0xFF

    def store8(self, addr: int, value: int) -> None:
        """Single-byte store."""
        idx = (addr - self.base) >> 3
        if not 0 <= idx < len(self.words):
            raise MemoryFault(addr)
        shift = (addr & 7) * 8
        word = self.words[idx] & (_U64 - 1)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.words[idx] = to_signed64(word)

    # -- bulk helpers for the loader ----------------------------------------

    def write_longs(self, addr: int, values) -> None:
        """Bulk-write 8-byte words (loader use)."""
        if addr % 8:
            raise MemoryFault(addr, "misaligned bulk write")
        idx = (addr - self.base) >> 3
        if idx < 0 or idx + len(values) > len(self.words):
            raise MemoryFault(addr, "bulk write outside arena")
        for offset, value in enumerate(values):
            self.words[idx + offset] = to_signed64(value)

    def read_longs(self, addr: int, count: int) -> list[int]:
        """Bulk-read 8-byte words."""
        if addr % 8:
            raise MemoryFault(addr, "misaligned bulk read")
        idx = (addr - self.base) >> 3
        if idx < 0 or idx + count > len(self.words):
            raise MemoryFault(addr, "bulk read outside arena")
        return list(self.words[idx : idx + count])


__all__ = ["Memory", "Segment", "to_signed64"]
