"""The collector: run a program under clock and/or HW-counter profiling.

Mirrors the paper's §2.2 user model::

    collect -S off -p on -h +ecstall,lo,+ecrm,on mcf.exe mcf.in

becomes::

    cfg = CollectConfig(clock_profiling=True, counters=["+ecstall,lo", "+ecrm,on"])
    experiment = collect(program, machine_config, cfg, input_longs=...)

A ``+`` before a counter name requests the apropos backtracking search;
at most two counters are accepted per pass, and the scheduler
(:mod:`repro.collect.schedule`) assigns them to PIC registers by
bipartite matching — the hardware constraint that forced the paper to
run MCF twice is solved automatically, and longer request lists are
split into passes (or time-multiplexed via ``multiplex_groups``) one
level up, in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Optional, Sequence

from ..compiler.program import Program
from ..config import MachineConfig
from ..errors import CollectError, KernelError, MachineError
from ..kernel.process import Process
from ..kernel.signals import SIGEMT, SIGPROF
from ..machine.counters import CounterSnapshot, CounterSpec
from ..machine.cpu import ENGINES
from .backtrack import apropos_backtrack
from .experiment import ClockEvent, Experiment, HwcEvent, TruthEvent
from .schedule import assign_registers, check_multiplexed_events

#: failures the collector survives by finalizing a partial experiment:
#: simulated-program faults (MemoryFault, SimulatedCrash, ...), kernel
#: faults (OutOfMemory, ...), watchdog expiry, and a user interrupt
RECOVERABLE_FAULTS = (MachineError, KernelError, CollectError, KeyboardInterrupt)

#: default clock-profiling tick, in cycles (prime, as the paper prescribes)
CLOCK_INTERVAL_CYCLES = {"hi": 4999, "on": 20011, "lo": 200003}

#: default multiplex rotation quantum, in retired instructions
MULTIPLEX_QUANTUM = 50_000


@dataclass
class CollectConfig:
    """Parameters of one collect run (the command-line flags)."""

    clock_profiling: bool = True
    clock_interval: object = "on"  # "hi"/"on"/"lo" or cycles
    #: counter requests like "+ecstall,lo" (the + requests backtracking)
    counters: Sequence[str] = field(default_factory=tuple)
    name: str = "experiment"
    #: runaway-run deadlines: past either, the run dies with
    #: WatchdogExpired and leaves a partial experiment
    watchdog_cycles: Optional[int] = None
    watchdog_instructions: Optional[int] = None
    #: interpreter engine, one of ``machine.cpu.ENGINES``: "fast"
    #: (predecoded, batched countdown) or "reference" (per-instruction
    #: oracle); profiles are bit-identical across them
    engine: str = "fast"
    #: time-multiplexed counter groups: when non-empty, ``counters`` must
    #: be empty and the run rotates these groups onto the PIC registers
    #: every ``multiplex_quantum`` retired instructions.  Each event is
    #: live for only 1/len(groups) of the run, so its samples carry
    #: ``scale=len(groups)`` — reduction scales the weights up and the
    #: journal flags the totals as estimates.  In-flight (armed but
    #: undelivered) traps are dropped at rotation boundaries, identically
    #: on every engine.
    multiplex_groups: Sequence[Sequence[str]] = field(default_factory=tuple)
    #: rotation quantum in retired instructions
    multiplex_quantum: int = MULTIPLEX_QUANTUM

    def resolve_clock_interval(self) -> int:
        """Map hi/on/lo (or cycles) to a tick interval."""
        if isinstance(self.clock_interval, int):
            if self.clock_interval <= 0:
                raise CollectError("clock interval must be positive")
            return self.clock_interval
        try:
            return CLOCK_INTERVAL_CYCLES[self.clock_interval]
        except KeyError:
            raise CollectError(
                f"bad clock interval {self.clock_interval!r} (hi/on/lo or cycles)"
            ) from None


def parse_counter_requests(requests: Sequence[str]) -> list[CounterSpec]:
    """Assign PIC registers to one pass worth of counter requests.

    Delegates to the scheduler's bipartite matching
    (:func:`repro.collect.schedule.assign_registers`), which replaced the
    old constrained-first greedy here — the greedy could not move an
    already-placed flexible counter out of the way, so some feasible
    pairs were rejected.  Errors out only when the pair is genuinely
    unpackable (two PIC0-only events, say).
    """
    return assign_registers(requests)


class Collector:
    """Drives one profiled run."""

    def __init__(
        self,
        program: Program,
        machine_config: MachineConfig,
        collect_config: CollectConfig,
        input_longs: Sequence[int] = (),
        heap_page_bytes: Optional[int] = None,
        fault_plan=None,
        journal_to=None,
    ) -> None:
        self.program = program
        self.machine_config = machine_config
        self.config = collect_config
        self.fault_plan = fault_plan
        if collect_config.engine not in ENGINES:
            raise CollectError(
                f"unknown engine {collect_config.engine!r} "
                f"({' or '.join(ENGINES)})"
            )
        self.process = Process(
            program,
            machine_config,
            input_longs=input_longs,
            heap_page_bytes=heap_page_bytes,
            fault_plan=fault_plan,
        )
        for core in self.process.machine.cores:
            core.cpu.engine = collect_config.engine
        self.experiment = Experiment(collect_config.name)
        self.experiment.program = program
        self.experiment.info.heap_page_bytes = (
            heap_page_bytes or machine_config.dtlb.default_page_bytes
        )
        # validate the counter requests before the journal touches disk
        groups = [list(group) for group in collect_config.multiplex_groups]
        if groups and list(collect_config.counters):
            raise CollectError(
                "multiplex_groups and counters are mutually exclusive"
            )
        if groups and machine_config.cores > 1:
            # rotation boundaries are exact *global* retired-instruction
            # counts; with threads interleaving across cores there is no
            # single count to cut at, so the combination is refused
            # rather than given nondeterministic semantics
            raise CollectError(
                "counter multiplexing is not supported on multi-core "
                "machines (cores > 1); run dedicated passes instead"
            )
        if len(groups) == 1:
            # a single group needs no rotation: run it as a plain pass
            collect_config = self.config = dataclass_replace(
                collect_config, counters=groups[0], multiplex_groups=()
            )
            groups = []
        self._groups = [parse_counter_requests(group) for group in groups]
        if self._groups:
            if collect_config.multiplex_quantum <= 0:
                raise CollectError("multiplex quantum must be positive")
            self.specs = [s for specs in self._groups for s in specs]
            check_multiplexed_events([spec.event.name for spec in self.specs])
        else:
            self.specs = parse_counter_requests(collect_config.counters)
        #: each sample represents len(groups) times its weight when the
        #: counters are only live for 1/len(groups) of the run
        self._scale = len(self._groups) if self._groups else 1
        self._spec_by_register = {spec.register: spec for spec in self.specs}
        #: global sequence number across counters for the truth journal
        self._truth_seq = 0
        if journal_to is not None:
            path = self.experiment.start_journal(journal_to)
            self.experiment.log(f"collect: journaling to {path}")

    # ------------------------------------------------------------- handlers

    def _on_overflow(self, snapshot: CounterSnapshot) -> None:
        spec = self._spec_by_register[snapshot.counter_index]
        cpu = self.process.machine.cpu
        if spec.backtrack:
            result = apropos_backtrack(
                cpu.code, cpu.text_base, snapshot.trap_pc, spec.event, snapshot.regs
            )
            candidate, ea = result.candidate_pc, result.effective_address
            status, reason = result.status, result.ea_reason
        else:
            candidate, ea, status, reason = None, None, "disabled", ""
        self.experiment.record_hwc(
            HwcEvent(
                counter=snapshot.counter_index,
                event=spec.event.name,
                # one trap may coalesce several crossed intervals (a single
                # large amount, e.g. one E$ miss worth of stall cycles);
                # the event's weight carries every crossed interval
                weight=spec.interval * snapshot.coalesced,
                trap_pc=snapshot.trap_pc,
                candidate_pc=candidate,
                effective_address=ea,
                status=status,
                ea_reason=reason,
                cycle=snapshot.cycle,
                callstack=snapshot.callstack,
                coalesced=snapshot.coalesced,
                latency=snapshot.load_latency,
                scale=self._scale,
                core=snapshot.core,
                thread=snapshot.thread,
            )
        )
        # Ground-truth side channel for the attribution oracle: what the
        # simulator knows the trap really was.  Kept strictly apart from
        # the profile-visible data above — a real tool could not record
        # this, so nothing in the analysis reports may depend on it.
        self.experiment.record_truth(
            TruthEvent(
                seq=self._truth_seq,
                counter=snapshot.counter_index,
                event=spec.event.name,
                trap_pc=snapshot.trap_pc,
                cycle=snapshot.cycle,
                true_trigger_pc=snapshot.true_trigger_pc,
                true_effective_address=snapshot.true_effective_address,
                true_skid=snapshot.true_skid,
                coalesced=snapshot.coalesced,
                regs=snapshot.regs,
                true_latency=snapshot.load_latency,
                core=snapshot.core,
                thread=snapshot.thread,
            )
        )
        self._truth_seq += 1

    def _on_clock(self, pc: int, cycle: int, callstack: tuple) -> None:
        signals = self.process.signals
        self.experiment.record_clock(
            ClockEvent(pc, cycle, callstack,
                       signals.clock_core, signals.clock_thread)
        )

    # ------------------------------------------------------------------ run

    def run(self) -> Experiment:
        """Execute the pass over the whole unit and return the result.

        However the run ends, the process is closed on the way out: a
        finished collect leaves only its experiment behind, and the
        process, machine and arena are freed as soon as the caller drops
        the collector (no full garbage collection needed).
        """
        try:
            return self._run()
        finally:
            self.process.close()

    def _run(self) -> Experiment:
        experiment = self.experiment
        machine = self.process.machine
        experiment.log(f"collect: starting run of {self.program.entry:#x}")

        if self._groups:
            # counters are programmed per quantum by the rotation loop;
            # the info entries flag every total as a scaled estimate
            self.process.signals.register(SIGEMT, self._on_overflow)
            experiment.info.counters = [
                {
                    "name": spec.event.name,
                    "interval": spec.interval,
                    "backtrack": spec.backtrack,
                    "register": spec.register,
                    "group": group_index,
                    "multiplexed": True,
                    "scale": self._scale,
                }
                for group_index, specs in enumerate(self._groups)
                for spec in specs
            ]
            experiment.log(
                f"collect: time-multiplexing {len(self._groups)} counter "
                f"groups every {self.config.multiplex_quantum} instructions "
                f"(sampled weights scaled x{self._scale}; totals are "
                f"estimates)"
            )
            for group_index, specs in enumerate(self._groups):
                for spec in specs:
                    experiment.log(
                        f"collect: group {group_index}: PIC{spec.register} <- "
                        f"{spec.event.name} interval={spec.interval} "
                        f"backtrack={spec.backtrack}"
                    )
        elif self.specs:
            machine.configure_counters(self.specs)
            self.process.signals.register(SIGEMT, self._on_overflow)
            experiment.info.counters = [
                {
                    "name": spec.event.name,
                    "interval": spec.interval,
                    "backtrack": spec.backtrack,
                    "register": spec.register,
                }
                for spec in self.specs
            ]
            for spec in self.specs:
                experiment.log(
                    f"collect: PIC{spec.register} <- {spec.event.name} "
                    f"interval={spec.interval} backtrack={spec.backtrack}"
                )

        if self.config.clock_profiling:
            interval = self.config.resolve_clock_interval()
            for core in machine.cores:
                core.cpu.enable_clock_profiling(interval)
            self.process.signals.register(SIGPROF, self._on_clock)
            experiment.info.clock_interval_cycles = interval
            experiment.log(f"collect: clock profiling every {interval} cycles")

        experiment.info.clock_hz = self.machine_config.clock_hz
        experiment.info.config_name = self.config.name
        experiment.info.ecache_line_bytes = self.machine_config.ecache.line_bytes
        experiment.info.cores = self.machine_config.cores
        experiment.info.segments = [
            [seg.name, seg.base, seg.size, seg.page_bytes]
            for seg in machine.memory.segments
        ]
        if self.fault_plan is not None:
            experiment.log(f"collect: fault plan {self.fault_plan.describe()}")
        try:
            if self._groups:
                exit_code = self._run_multiplexed()
            else:
                exit_code = self.process.run(
                    max_cycles=self.config.watchdog_cycles,
                    watchdog_instructions=self.config.watchdog_instructions,
                )
        except RECOVERABLE_FAULTS as error:
            # the run died, the profile need not: finalize what we have as
            # a partial but valid experiment, then let the fault propagate
            self._finalize(exit_code=-1, error=error)
            raise
        self._finalize(exit_code=exit_code)
        return experiment

    def _run_multiplexed(self) -> int:
        """Rotate the counter groups onto the PICs every quantum.

        Each chunk runs at most ``multiplex_quantum`` instructions with
        one group configured, then the next group takes over.  Traps
        still in their skid window at a rotation boundary are dropped —
        real PICs lose in-flight events when reprogrammed too — and the
        drop count is journaled.  Deterministic on every engine: the
        chunk boundaries are exact instruction counts, so fast and
        reference journals stay byte-identical.
        """
        process = self.process
        machine = process.machine
        cpu = machine.cpu
        counters = cpu.counters
        quantum = self.config.multiplex_quantum
        ngroups = len(self._groups)
        #: each group's counting progress while it is off the PICs — a
        #: quantum shorter than the overflow interval must still make
        #: progress toward the next trap across rotations
        states: list = [None] * ngroups
        rotation = 0
        dropped = 0
        exit_code = 0
        while not cpu.halted:
            group = rotation % ngroups
            specs = self._groups[group]
            self._spec_by_register = {spec.register: spec for spec in specs}
            machine.configure_counters(specs)
            if states[group] is not None:
                counters.restore_state(states[group])
            exit_code = process.run(
                max_instructions=quantum,
                max_cycles=self.config.watchdog_cycles,
                watchdog_instructions=self.config.watchdog_instructions,
            )
            states[group] = counters.save_state()
            if not cpu.halted:
                dropped += len(cpu.pending_traps)
                del cpu.pending_traps[:]
            rotation += 1
        self.experiment.log(
            f"collect: multiplex rotated {rotation} quanta; {dropped} "
            f"pending traps dropped at group boundaries"
        )
        return exit_code

    def _finalize(self, exit_code: int, error: Optional[BaseException] = None) -> None:
        """Record end-of-run (or point-of-death) ground truth."""
        experiment = self.experiment
        machine = self.process.machine
        experiment.info.allocations = [list(a) for a in self.process.allocations]
        experiment.info.exit_code = exit_code
        if error is not None:
            experiment.info.incomplete = True
            experiment.info.fault = f"{type(error).__name__}: {error}"
            experiment.log(f"collect: run aborted by {experiment.info.fault}")
        else:
            experiment.info.incomplete = False
            experiment.info.fault = ""
            experiment.log(f"collect: target exited with {exit_code}")

        stats = machine.stats()
        experiment.info.instructions = stats.instructions
        experiment.info.totals = {
            "cycles": stats.cycles,
            "system_cycles": stats.system_cycles,
            "instructions": stats.instructions,
            "dc_read_misses": stats.dc_read_misses,
            "ec_refs": stats.ec_refs,
            "ec_read_misses": stats.ec_read_misses,
            "ec_stall_cycles": stats.ec_stall_cycles,
            "dtlb_misses": stats.dtlb_misses,
        }
        if stats.coherence_misses:
            experiment.info.totals["coherence_misses"] = stats.coherence_misses
        if self.fault_plan is not None:
            fault_stats = self.fault_plan.stats
            experiment.log(
                f"collect: injected faults: {fault_stats['dropped_traps']} traps "
                f"dropped, {fault_stats['delayed_traps']} delayed, "
                f"{fault_stats['corrupted_snapshots']} snapshots corrupted"
            )
        experiment.log(
            f"collect: {len(experiment.hwc_events)} HWC events, "
            f"{len(experiment.clock_events)} clock ticks"
        )
        experiment.flush_journal()


def collect(
    program: Program,
    machine_config: MachineConfig,
    collect_config: CollectConfig,
    input_longs: Sequence[int] = (),
    heap_page_bytes: Optional[int] = None,
    save_to=None,
    fault_plan=None,
) -> Experiment:
    """One-call version of the ``collect`` command.

    With ``save_to``, events are journaled to the experiment directory as
    they arrive; if the run dies mid-flight the partial experiment is
    still finalized (valid manifest, ``incomplete`` flag set) before the
    fault propagates.
    """
    collector = Collector(
        program, machine_config, collect_config,
        input_longs=input_longs, heap_page_bytes=heap_page_bytes,
        fault_plan=fault_plan, journal_to=save_to,
    )
    try:
        experiment = collector.run()
    except RECOVERABLE_FAULTS:
        if save_to is not None:
            path = collector.experiment.save()
            if fault_plan is not None:
                fault_plan.corrupt_saved(path)
        raise
    if save_to is not None:
        path = experiment.save()
        if fault_plan is not None:
            fault_plan.corrupt_saved(path)
    return experiment


__all__ = ["Collector", "CollectConfig", "collect", "parse_counter_requests"]
