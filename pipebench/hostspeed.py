"""Host-speed probe: wall-clock times normalized for a shared host.

On a shared machine the speed of one core drifts with the other tenants'
load: on a 2-vCPU shared Xeon VM the same MCF collect ran up to 1.7x
slower for tens of seconds at a time, longer than one benchmark run, so
no median within a run can remove it.  The probe here tracks that drift.
It is a fixed, short loop of loads and stores through a large
dictionary, an access pattern like the simulator's, and it lives in the
benchmark, so no change to the program under test can move it.  (A register-only probe tracked the drift about
half as well.)  Its table adds a constant ~25 MB to the peak RSS.

Every measured unit of work is bracketed by probes, and a timer signal
probes again every ``SAMPLE_PERIOD_S`` while it runs, because the speed
also changes within a second.  The unit's normalized time is its wall
time, less the time spent probing, scaled by ``NOMINAL_PROBE_S`` over the
mean probe: the time the work would take on a host where the probe runs
in ``NOMINAL_PROBE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

#: the probe's duration on an unloaded host of the kind the benchmark
#: was calibrated on (sets the scale of normalized seconds)
NOMINAL_PROBE_S = 0.002

#: probe runs per measurement; their median damps timer interrupts
PROBE_RUNS = 5

#: interval of the probes taken while a unit runs
SAMPLE_PERIOD_S = 0.25

_TABLE_WORDS = 1 << 18
_STRIDE = 2654435761  # Knuth's multiplicative hash: scattered slots
_ACCESSES = 6000


def _table() -> tuple:
    memory = {index * 64: index for index in range(_TABLE_WORDS)}
    addresses = [(index * _STRIDE) % _TABLE_WORDS * 64
                 for index in range(_ACCESSES)]
    return memory, addresses


def probe(table: tuple) -> float:
    """Seconds the probe loop takes right now (median of a few runs)."""
    memory, addresses = table
    runs = []
    for _run in range(PROBE_RUNS):
        start = time.perf_counter()
        value = 0
        for address in addresses:
            value += memory[address]
            memory[address] = value & 0xFFFF
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class HostSpeed:
    """Times units of work between probes."""

    def __init__(self) -> None:
        self._table = _table()
        #: the normalizing factor of every unit timed so far
        self.factors: list = []

    def timed(self, work) -> tuple:
        """Run ``work()`` between probes; returns its result, its
        normalized seconds and its wall-clock seconds (probes excluded).
        Units must not nest: each owns the interval timer while it runs."""
        samples = [probe(self._table)]
        probing = 0.0

        def sample(_signum, _frame) -> None:
            nonlocal probing
            start = time.perf_counter()
            samples.append(probe(self._table))
            probing += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start - probing
        samples.append(probe(self._table))
        factor = NOMINAL_PROBE_S / statistics.mean(samples)
        self.factors.append(factor)
        return result, wall * factor, wall
