"""Machine configuration: cache/TLB geometry, penalties, and presets.

Two presets matter:

* :func:`paper_config` mirrors the paper's dual 900 MHz UltraSPARC-III Cu
  Sun Fire 280R (64 kB 4-way 32 B-line D$, 8 MB 2-way 512 B-line E$,
  8 kB pages).
* :func:`scaled_config` keeps the *line sizes*, *associativities* and *page
  geometry ratios* but shrinks capacities so that a laptop-sized MCF
  instance has the same working-set-to-capacity relationship the paper's
  2 GB run had.  All reproduction experiments use this preset; DESIGN.md
  documents the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReproError


def _require_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ReproError(f"{what} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    hit_cycles: int
    miss_cycles: int

    def __post_init__(self) -> None:
        _require_power_of_two(self.size_bytes, f"{self.name} size")
        _require_power_of_two(self.line_bytes, f"{self.name} line size")
        if self.associativity <= 0:
            raise ReproError(f"{self.name} associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ReproError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc {self.line_bytes * self.associativity}"
            )

    @property
    def num_sets(self) -> int:
        """Number of cache sets implied by the geometry."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class TLBConfig:
    """Data-TLB geometry and timing (fully associative, LRU)."""

    entries: int
    default_page_bytes: int
    miss_cycles: int

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ReproError("TLB must have at least one entry")
        _require_power_of_two(self.default_page_bytes, "page size")


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated machine."""

    dcache: CacheConfig
    ecache: CacheConfig
    dtlb: TLBConfig
    clock_hz: float = 900e6
    arena_bytes: int = 64 * 1024 * 1024
    base_cycles_per_instr: int = 1
    #: cycles added per completed instruction while a store drains (stores
    #: allocate in the caches but do not stall the pipeline; the paper's
    #: E$ Stall metric correlates with loads)
    store_stall_cycles: int = 0
    seed: int = 0x5C03
    #: simulated cores.  cores > 1 builds per-core CPU/counters/TLB/D$
    #: behind one shared E$ with a line-ownership coherence model; the
    #: single-core machine is byte-for-byte the historical one.
    cores: int = 1
    #: instructions one runnable thread retires before the deterministic
    #: round-robin scheduler rotates to the next (see DESIGN.md §13)
    thread_quantum: int = 5000
    #: bytes of heap carved out as each spawned thread's stack
    thread_stack_bytes: int = 64 * 1024
    #: extra cycles charged to a load that must pull an E$ line away from
    #: the core that last wrote it (ownership downgrade + data forward)
    coherence_transfer_cycles: int = 60
    #: extra cycles charged to a store that must invalidate another
    #: core's ownership of (or sharers on) the E$ line
    coherence_invalidate_cycles: int = 80

    def __post_init__(self) -> None:
        _require_power_of_two(self.arena_bytes, "arena size")
        if self.dcache.line_bytes > self.ecache.line_bytes:
            raise ReproError("D$ line must not exceed E$ line")
        if self.cores < 1:
            raise ReproError("cores must be >= 1")
        if self.thread_quantum < 1:
            raise ReproError("thread_quantum must be >= 1")
        if self.thread_stack_bytes < 4096:
            raise ReproError("thread_stack_bytes must be >= 4096")


def paper_config() -> MachineConfig:
    """The UltraSPARC-III Cu geometry from the paper's §3.1."""
    return MachineConfig(
        dcache=CacheConfig(
            name="D$",
            size_bytes=64 * 1024,
            line_bytes=32,
            associativity=4,
            hit_cycles=1,
            miss_cycles=12,
        ),
        ecache=CacheConfig(
            name="E$",
            size_bytes=8 * 1024 * 1024,
            line_bytes=512,
            associativity=2,
            hit_cycles=12,
            miss_cycles=90,
        ),
        dtlb=TLBConfig(entries=512, default_page_bytes=8192, miss_cycles=100),
        clock_hz=900e6,
    )


def scaled_config(seed: int = 0x5C03) -> MachineConfig:
    """Same line geometry as the paper, capacities scaled ~64x down.

    A scaled MCF instance has a working set of a few hundred kB; with a
    128 kB E$ the set/capacity ratio matches the paper's ~100 MB working
    set against an 8 MB E$.  Line sizes (32 B / 512 B) and associativities
    (4 / 2) are kept so structure-split and line-packing effects are
    unchanged.  The E$ miss penalty is raised (400 cycles vs a real
    US-III's ~90) to compensate for the smaller absolute miss counts of a
    scaled run — calibrated so a baseline MCF run reproduces the paper's
    Figure 1 time breakdown (E$ stall ~54% of runtime, DTLB cost ~5%).
    """
    return MachineConfig(
        dcache=CacheConfig(
            name="D$",
            size_bytes=8 * 1024,
            line_bytes=32,
            associativity=4,
            hit_cycles=1,
            miss_cycles=20,
        ),
        ecache=CacheConfig(
            name="E$",
            size_bytes=128 * 1024,
            line_bytes=512,
            associativity=2,
            hit_cycles=20,
            miss_cycles=300,
        ),
        dtlb=TLBConfig(entries=32, default_page_bytes=8192, miss_cycles=100),
        clock_hz=900e6,
        seed=seed,
    )


def tiny_config(seed: int = 7) -> MachineConfig:
    """Very small caches for fast unit tests."""
    return MachineConfig(
        dcache=CacheConfig(
            name="D$",
            size_bytes=256,
            line_bytes=32,
            associativity=2,
            hit_cycles=1,
            miss_cycles=10,
        ),
        ecache=CacheConfig(
            name="E$",
            size_bytes=2048,
            line_bytes=128,
            associativity=2,
            hit_cycles=10,
            miss_cycles=60,
        ),
        dtlb=TLBConfig(entries=4, default_page_bytes=1024, miss_cycles=50),
        clock_hz=100e6,
        arena_bytes=4 * 1024 * 1024,
        seed=seed,
    )


# Address-space layout of a simulated process.  The paper's disassembly shows
# text around 0x100003000; we use the same 33-bit region.
TEXT_BASE = 0x1_0000_0000
ARENA_BASE = TEXT_BASE

__all__ = [
    "CacheConfig",
    "TLBConfig",
    "MachineConfig",
    "paper_config",
    "scaled_config",
    "tiny_config",
    "TEXT_BASE",
    "ARENA_BASE",
]
