"""Hardware performance counters with an imprecise-trap (skid) model.

The UltraSPARC-III has two counter registers (PIC0/PIC1), each able to
count one event from a register-specific menu.  A counter can be preloaded
so that it overflows after *interval* events; the overflow trap is **not
precise** — it is delivered some instructions after the trigger, with only
the next-to-issue PC and the live register set (paper §2.2.2).

We reproduce that information loss exactly:

* each event type has a *precision class* — ``dtlbm`` is precise, ``ecrm``
  and ``ecstall`` skid a little, ``ecref`` skids a lot (paper §3.2.5);
* the delivered :class:`CounterSnapshot` carries only ``trap_pc`` (next
  instruction to issue), the register values at delivery time, and the
  callstack — never the triggering instruction or its data address.

Beyond the paper's US-III menu, the taxonomy includes byte-bandwidth
counters (``ldbytes``/``stbytes``, FETCH_SIZE/WRITE_SIZE-style), branch
and branch-miss counters (``br``/``brm``, BTFN prediction model) and an
ARM-SPE-style sampled load latency (``ldlat``) whose precise trap also
carries the sampled load's latency in cycles.

The menu lists only events the machine can raise.  No instruction cache
is modelled, so the US-III's I$-miss counter (``icm``) is absent, and a
request for it fails like any unknown counter name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..errors import CollectError


@dataclass(frozen=True)
class EventSpec:
    """Static description of one countable event."""

    name: str
    description: str
    #: True when the counter accumulates cycles rather than occurrences
    counts_cycles: bool
    #: registers (PIC numbers) able to count this event
    registers: tuple[int, ...]
    #: trap skid in completed instructions, inclusive range
    skid_min: int
    skid_max: int
    #: which instruction kinds can trigger the event: "load", "store",
    #: "loadstore", or None for events not tied to a memory instruction
    memop_class: Optional[str]
    #: probability that the trap lands at skid_min (long-stall events are
    #: delivered while the trigger still blocks the pipeline, so they are
    #: mostly precise; non-stalling events spread uniformly)
    skid_bias: float = 0.0
    #: True when the counter accumulates bytes moved rather than
    #: occurrences (display only; bandwidth counters use the event
    #: interval table)
    counts_bytes: bool = False

    @property
    def precise(self) -> bool:
        """True when the trap never skids."""
        return self.skid_min == 0 and self.skid_max == 0


#: the counter menu, in the spirit of the US-III PCR event lists
EVENTS: dict[str, EventSpec] = {
    spec.name: spec
    for spec in (
        EventSpec("cycles", "Cycle count", True, (0, 1), 1, 4, None),
        EventSpec("insts", "Instructions completed", False, (0, 1), 1, 4, None),
        # The long-stall events (D$/E$ read misses, E$ stall) deliver their
        # trap while the triggering load is still stalling the pipeline, so
        # at most one further instruction completes — this is why the paper
        # finds backtracking ~100% effective for them (§3.2.5).  E$
        # references do not stall, so their trap skids much further and
        # only ~94% of them stay attributable.
        EventSpec("dcrm", "D$ read misses", False, (0,), 0, 1, "load", 0.85),
        EventSpec("dtlbm", "DTLB misses", False, (1,), 0, 0, "loadstore"),
        EventSpec("ecref", "E$ references", False, (0,), 2, 5, "loadstore"),
        EventSpec("ecrm", "E$ read misses", False, (1,), 0, 1, "load", 0.85),
        EventSpec("ecstall", "E$ stall cycles", True, (0,), 0, 1, "load", 0.85),
        # Bandwidth-style byte counters (FETCH_SIZE/WRITE_SIZE in the ROCm
        # menu): one LDX/STX moves 8 bytes, LDUB/STB moves 1.
        EventSpec("ldbytes", "Bytes loaded (FETCH_SIZE-style)", False, (0,),
                  1, 4, "load", counts_bytes=True),
        EventSpec("stbytes", "Bytes stored (WRITE_SIZE-style)", False, (1,),
                  1, 4, "store", counts_bytes=True),
        # Branch taxonomy: completed branches count on either register, the
        # misprediction counter (BTFN static model: backward taken, forward
        # not taken; indirect jumps always mispredict) is PIC1-only.
        EventSpec("br", "Branches completed", False, (0, 1), 1, 4, None),
        EventSpec("brm", "Branches mispredicted (BTFN model)", False, (1,),
                  1, 4, None),
        # ARM-SPE-style sampled load latency: a precise trap on every
        # interval-th load, carrying that load's latency in cycles.
        EventSpec("ldlat", "Sampled load latency (SPE-style, precise)",
                  False, (0,), 0, 0, "load"),
        # Coherence misses: a memory access that had to pull the E$ line
        # away from another core (load: ownership downgrade + forward;
        # store: remote invalidation).  Long-stall, so mostly precise,
        # like the other miss events.
        EventSpec("cohm", "Coherence misses (remote E$-line transfers)",
                  False, (1,), 0, 1, "loadstore", 0.85),
    )
}

#: named overflow intervals (prime, per paper §2.2, "to reduce the
#: probability of correlations").  These are simulation-scale: a scaled MCF
#: run completes ~10M instructions, so "on" yields a few thousand samples.
_EVENT_INTERVALS = {"hi": 499, "on": 2003, "lo": 20011}
_CYCLE_INTERVALS = {"hi": 4999, "on": 20011, "lo": 200003}


def overflow_interval(event: EventSpec, setting) -> int:
    """Resolve 'hi'/'on'/'lo' or a numeric setting to an interval."""
    if isinstance(setting, int):
        if setting <= 0:
            raise CollectError(f"overflow interval must be positive: {setting}")
        return setting
    table = _CYCLE_INTERVALS if event.counts_cycles else _EVENT_INTERVALS
    try:
        return table[setting]
    except KeyError:
        raise CollectError(
            f"bad overflow setting {setting!r} (want hi/on/lo or an integer)"
        ) from None


#: per event, the ``info.json`` totals entry that counts it on the whole
#: machine, and what that entry counts
MACHINE_TOTALS = {
    "ecstall": ("ec_stall_cycles", "E$ stall cycles"),
    "ecrm": ("ec_read_misses", "E$ read misses"),
    "ecref": ("ec_refs", "E$ references"),
    "dtlbm": ("dtlb_misses", "DTLB misses"),
    "dcrm": ("dc_read_misses", "D$ read misses"),
    "insts": ("instructions", "instructions"),
    "cycles": ("cycles", "cycles"),
    "cohm": ("coherence_misses", "coherence misses"),
}


def empty_counter_note(name: str, interval: int, totals: dict) -> str:
    """Why a requested counter recorded nothing, in the words every tool
    prints: ``ecrm recorded no event (interval 29; the run had 21 E$ read
    misses)``.  ``totals`` are the run's ``info.json`` totals; the
    machine's count is left out when they do not hold it."""
    detail = f"interval {interval}"
    key, noun = MACHINE_TOTALS.get(name, (None, ""))
    if key in totals:
        detail += f"; the run had {int(totals[key])} {noun}"
    return f"{name} recorded no event ({detail})"


@dataclass(frozen=True)
class CounterSpec:
    """One configured counter: event + interval + backtracking request."""

    event: EventSpec
    interval: int
    backtrack: bool
    register: int

    @classmethod
    def parse(cls, text: str, register: Optional[int] = None) -> "CounterSpec":
        """Parse ``[+]name[,interval]`` as in ``collect -h +ecstall,lo``.

        ``register`` defaults to the event's first capable PIC register,
        so single-counter callers need not parse the request twice just
        to look the register up.  Pass it explicitly when packing
        several counters onto specific registers.

        Exactly one leading ``+`` is meaningful (it requests backtracking);
        anything more is a malformed request and is rejected here rather
        than failing deep in event-name lookup.
        """
        backtrack = text.startswith("+")
        if backtrack:
            text = text[1:]
            if text.startswith("+"):
                raise CollectError(
                    f"malformed counter request {'+' + text!r}: "
                    f"at most one '+' prefix is allowed"
                )
        name, _, interval_text = text.partition(",")
        try:
            event = EVENTS[name]
        except KeyError:
            raise CollectError(f"unknown counter name: {name!r}") from None
        if backtrack and event.memop_class is None:
            raise CollectError(
                f"+{name}: backtracking applies only to memory-related counters"
            )
        setting: object = interval_text or "on"
        if isinstance(setting, str) and setting.lstrip("-").isdigit():
            setting = int(setting)
        if register is None:
            register = event.registers[0]
        return cls(event, overflow_interval(event, setting), backtrack, register)


@dataclass(frozen=True)
class CounterSnapshot:
    """Everything the hardware/OS hands the profiling signal handler."""

    counter_index: int
    event: EventSpec
    #: PC of the next instruction to issue at delivery time (paper §2.2.2)
    trap_pc: int
    #: register file at delivery time (tuple of 32 ints)
    regs: tuple
    #: return-address chain, innermost last (call-site PCs)
    callstack: tuple
    cycle: int
    instr_count: int
    #: how many instructions the trap skidded past the trigger (diagnostic
    #: only — a real tool never sees this; tests use it)
    true_skid: int
    #: the PC of the instruction that actually raised the event
    #: (diagnostic only — real hardware does not report it, and the
    #: collector must never read it; accuracy tests compare it against
    #: the backtracking result)
    true_trigger_pc: int = 0
    #: the effective data address the triggering instruction accessed, or
    #: None for events not tied to a memory instruction (diagnostic only,
    #: same rules as ``true_trigger_pc``; the attribution oracle joins it
    #: against the recomputed address from the backtracking search)
    true_effective_address: Optional[int] = None
    #: number of overflow intervals this single trap represents.  A large
    #: ``amount`` (e.g. one E$ miss worth of stall cycles against a small
    #: interval) can cross several intervals at once; the hardware raises
    #: only one trap, so the intervals are coalesced into it and the
    #: collector must weight the event by ``interval * coalesced``.
    coalesced: int = 1
    #: for ``ldlat`` traps only: the sampled load's latency in cycles
    #: (issue to data ready, including all stall penalties).  This is real
    #: delivered payload, not a diagnostic — SPE hardware reports it.
    load_latency: Optional[int] = None
    #: core the trap was delivered on and the software thread running
    #: there at delivery (0/0 on a single-core machine, so historical
    #: journals are unchanged)
    core: int = 0
    thread: int = 0


class CounterUnit:
    """The two PIC registers plus overflow bookkeeping.

    The CPU drives this: it calls :meth:`record` when an event occurs; a
    positive return value is the number of *further completed instructions*
    after which the trap must be delivered.
    """

    def __init__(self, rng: random.Random, fault_plan=None) -> None:
        self.rng = rng
        #: optional FaultPlan that may drop or further delay armed traps
        self.fault_plan = fault_plan
        self.specs: list[Optional[CounterSpec]] = [None, None]
        self.remaining: list[int] = [0, 0]
        self.totals: list[int] = [0, 0]
        self.overflows: list[int] = [0, 0]
        #: event name -> counter index, for the CPU's fast lookup
        self.watching: dict[str, int] = {}
        #: how many intervals the most recent overflow coalesced into its
        #: single trap (valid right after :meth:`record` returns >= 0)
        self.last_coalesced = 1

    def configure(self, specs: list[CounterSpec]) -> None:
        """Install up to two counter specs on the PIC registers."""
        if len(specs) > 2:
            raise CollectError("at most two HW counters (two PIC registers)")
        registers = [spec.register for spec in specs]
        if len(set(registers)) != len(registers):
            raise CollectError("counters must be on different registers")
        for spec in specs:
            if spec.register not in spec.event.registers:
                raise CollectError(
                    f"event {spec.event.name} cannot be counted on PIC{spec.register}"
                )
        self.specs = [None, None]
        self.remaining = [0, 0]
        self.totals = [0, 0]
        self.overflows = [0, 0]
        self.watching = {}
        for spec in specs:
            self.specs[spec.register] = spec
            self.remaining[spec.register] = spec.interval
            if spec.event.name in self.watching:
                raise CollectError(f"event {spec.event.name} requested twice")
            self.watching[spec.event.name] = spec.register

    def save_state(self) -> tuple:
        """Snapshot the registers' counting progress.

        Used by the time-multiplexing rotation: a group that leaves the
        PICs keeps its partial interval countdown, otherwise a quantum
        shorter than the overflow interval could never overflow at all.
        """
        return (list(self.remaining), list(self.totals), list(self.overflows))

    def restore_state(self, state: tuple) -> None:
        """Resume a group's saved progress after :meth:`configure`."""
        remaining, totals, overflows = state
        self.remaining[:] = remaining
        self.totals[:] = totals
        self.overflows[:] = overflows

    def record(self, register: int, amount: int) -> int:
        """Count ``amount`` events on PIC ``register``.

        Returns -1 normally, or the skid (in instructions) when the counter
        overflowed and a trap must be armed.

        A single large ``amount`` (one E$ miss worth of stall cycles against
        a small interval, say) can cross several intervals at once.  The
        hardware still raises only *one* trap, so the crossings are
        coalesced: ``overflows`` counts every crossed interval (the sampled
        total ``interval * overflows`` stays an unbiased estimate of the
        true total) and :attr:`last_coalesced` tells the CPU how many
        intervals the one armed trap represents, so the collector can
        weight the event by ``interval * coalesced``.
        """
        self.totals[register] += amount
        self.remaining[register] -= amount
        if self.remaining[register] > 0:
            return -1
        spec = self.specs[register]
        assert spec is not None
        crossed = (-self.remaining[register]) // spec.interval + 1
        self.overflows[register] += crossed
        self.remaining[register] += crossed * spec.interval
        self.last_coalesced = crossed
        event = spec.event
        if event.skid_max == 0:
            skid = 0
        elif event.skid_bias and self.rng.random() < event.skid_bias:
            skid = event.skid_min
        else:
            skid = self.rng.randint(event.skid_min, event.skid_max)
        if self.fault_plan is not None:
            mangled = self.fault_plan.filter_trap(skid)
            if mangled is None:
                return -1  # trap lost in delivery
            skid = mangled
        return skid


__all__ = [
    "EventSpec",
    "EVENTS",
    "MACHINE_TOTALS",
    "empty_counter_note",
    "overflow_interval",
    "CounterSpec",
    "CounterSnapshot",
    "CounterUnit",
]
