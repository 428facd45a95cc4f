"""The simulated machine: memory, caches, DTLB, HW counters, CPU."""

from .memory import Memory, Segment
from .cache import Cache
from .tlb import TLB
from .counters import (
    CounterUnit,
    CounterSpec,
    CounterSnapshot,
    EVENTS,
    EventSpec,
    overflow_interval,
)
from .cpu import CPU
from .machine import Machine

__all__ = [
    "Memory",
    "Segment",
    "Cache",
    "TLB",
    "CounterUnit",
    "CounterSpec",
    "CounterSnapshot",
    "EVENTS",
    "EventSpec",
    "overflow_interval",
    "CPU",
    "Machine",
]
