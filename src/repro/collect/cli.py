"""``repro-collect`` — the paper's ``collect`` command line.

Mirrors §3.1::

    repro-collect -S off -p on -h +ecstall,lo,+ecrm,on -o exp1.er \\
        --workload mcf --trips 400

Run with no arguments to list the available counters, exactly like the
real ``collect`` ("The collect command, if run with no arguments, will
generate a list of available counters").

Counter requests are scheduled, not hand-packed: a ``-h`` list with any
number of counters is split into the minimum number of passes over the
workload (``collect.schedule``), ``--schedule plan`` prints that plan
without running, and ``--multiplex`` folds the passes into one run that
rotates the counter groups onto the PICs every ``--multiplex-quantum``
instructions (totals become scaled estimates, flagged in the journal).
"""

from __future__ import annotations

import argparse
import sys

from ..config import scaled_config
from ..errors import (
    CollectError,
    KernelError,
    MachineError,
    ReproError,
    WatchdogExpired,
)
from ..faults import FaultPlan
from ..machine.counters import EVENTS, empty_counter_note
from ..machine.cpu import ENGINES
from ..parallel import (
    CollectJob,
    build_workload,
    check_workload,
    collect_many,
    counter_events,
)
from .collector import CollectConfig, collect
from .schedule import plan_passes


def _list_counters() -> str:
    lines = ["Available HW counters (scheduled onto two PIC registers):", ""]
    lines.append(f"  {'name':<10} {'registers':<10} {'unit':<8} description")
    for spec in EVENTS.values():
        registers = "/".join(f"PIC{r}" for r in spec.registers)
        if spec.counts_cycles:
            unit = "cycles"
        elif spec.counts_bytes:
            unit = "bytes"
        else:
            unit = "events"
        lines.append(f"  {spec.name:<10} {registers:<10} {unit:<8} {spec.description}")
    lines.append("")
    lines.append("Prefix a counter with '+' to request apropos backtracking")
    lines.append("(memory-related counters only).  Intervals: hi / on / lo / <n>.")
    lines.append("Any number of counters may be requested at once: the list is")
    lines.append("auto-split into passes (preview with --schedule plan).")
    return "\n".join(lines)


def _parse_counter_list(text: str) -> list:
    """Split '-h +ecstall,lo,+ecrm,on' into ['+ecstall,lo', '+ecrm,on'].

    At most one ``+`` prefix per counter, matching ``CounterSpec.parse``
    (``++ecstall`` used to slip through an ``lstrip`` here and die later
    with a misleading unknown-counter error).
    """
    parts = text.split(",")
    requests: list[str] = []
    current: list[str] = []
    for part in parts:
        if not part:
            raise ReproError(
                f"malformed counter request {text!r}: "
                f"empty counter specification"
            )
        name = part[1:] if part.startswith("+") else part
        if name.startswith("+"):
            raise ReproError(
                f"malformed counter request {part!r}: "
                f"at most one '+' prefix is allowed"
            )
        if name in EVENTS and current:
            requests.append(",".join(current))
            current = [part]
        elif name in EVENTS:
            current = [part]
        else:
            if not current:
                raise ReproError(f"bad counter specification near {part!r}")
            current.append(part)
    if current:
        requests.append(",".join(current))
    return requests


def _workload_options(args) -> tuple:
    """``(trips, layout)`` for the run, refusing options the workload
    would ignore or could not honour (a :class:`ReproError`)."""
    if args.workload == "commercial":
        ignored = [flag for flag, value in (("--trips", args.trips),
                                            ("--layout", args.layout))
                   if value is not None]
        if ignored:
            raise ReproError(
                f"--workload commercial does not take {' or '.join(ignored)} "
                f"(mcf only)"
            )
    trips = 150 if args.trips is None else args.trips
    check_workload(args.workload, trips, args.seed)
    return trips, args.layout or "baseline"


def _warn_empty_counters(events: list, totals: dict) -> None:
    """One stderr line per requested counter that recorded no event."""
    for name, interval, recorded in events:
        if not recorded:
            print(f"collect: warning: "
                  f"{empty_counter_note(name, interval, totals)}",
                  file=sys.stderr)


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(_list_counters())
        return 0

    parser = argparse.ArgumentParser(prog="repro-collect", add_help=False)
    parser.add_argument("-S", dest="periodic", default="off",
                        help="periodic sampling (unsupported; accepts 'off')")
    parser.add_argument("-p", dest="clock", default="on", choices=["on", "off"],
                        help="clock profiling")
    parser.add_argument("-h", dest="counters", action="append", default=None,
                        help="HW counters, e.g. +ecstall,lo,+ecrm,on; any "
                             "number — the list is auto-split into passes; "
                             "repeat the flag to force explicit pass breaks")
    parser.add_argument("--schedule", default="auto", choices=["auto", "plan"],
                        help="'plan' prints the pass plan for the requested "
                             "counters and exits without running")
    parser.add_argument("--multiplex", action="store_true",
                        help="time-multiplex the counter groups within ONE "
                             "run instead of one pass per group; totals "
                             "become scaled estimates")
    parser.add_argument("--multiplex-quantum", type=int, default=50_000,
                        metavar="N",
                        help="instructions per multiplex rotation")
    parser.add_argument("-o", dest="outdir", default="experiment.er",
                        help="experiment directory to write (multi-pass runs "
                             "write <stem>-p<i>.er)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for multi-pass runs")
    parser.add_argument("--engine", default="fast", choices=ENGINES,
                        help="interpreter engine (profiles are identical; "
                             "'reference' is the slow cross-check oracle)")
    parser.add_argument("--workload", default="mcf",
                        choices=["mcf", "commercial"])
    parser.add_argument("--trips", type=int, default=None,
                        help="MCF instance size (mcf only; default 150)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--layout", default=None,
                        choices=["baseline", "opt_layout"],
                        help="MCF struct layout (mcf only; default baseline)")
    parser.add_argument("--cores", type=int, default=1, metavar="N",
                        help="simulated cores (threaded workloads; journals "
                             "stay deterministic — the kernel interleave is "
                             "a pure function of program state)")
    parser.add_argument("--heap-page-bytes", type=int, default=None)
    parser.add_argument("--watchdog-cycles", type=int, default=None,
                        help="abort runaway runs after this many cycles")
    parser.add_argument("--watchdog-instructions", type=int, default=None,
                        help="abort runaway runs after this many instructions")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject deterministic faults, e.g. "
                             "'seed=7,kill_at=120000,drop_trap=0.25'")
    parser.add_argument("--help", action="help")
    args = parser.parse_args(argv)

    if args.periodic != "off":
        print(
            f"collect: -S {args.periodic} is not supported: periodic "
            f"sampling is not implemented, only '-S off' is accepted",
            file=sys.stderr,
        )
        return 2

    mux_groups: list = []
    try:
        counter_sets = [_parse_counter_list(text) for text in args.counters or []]
        fault_plan = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
        requests = [request for counters in counter_sets for request in counters]
        if args.schedule == "plan":
            print(plan_passes(requests, multiplex=args.multiplex).describe())
            return 0
        if args.multiplex and requests:
            plan = plan_passes(requests, multiplex=True)
            if plan.multiplexed:
                mux_groups = plan.pass_requests()
                counter_sets = []
            else:
                # everything fits in one pass: nothing to rotate
                counter_sets = plan.pass_requests()
        elif len(counter_sets) == 1:
            counter_sets = plan_passes(counter_sets[0]).pass_requests()
        elif counter_sets:
            # several -h flags are explicit pass breaks, but each list
            # may still need splitting on its own
            counter_sets = [
                split
                for counters in counter_sets
                for split in plan_passes(counters).pass_requests()
            ]
        trips, layout = _workload_options(args)
    except ReproError as error:
        print(f"collect: {error}", file=sys.stderr)
        return 2

    if len(counter_sets) > 1:
        if args.cores != 1:
            print("collect: --cores is single-pass only; multi-pass runs "
                  "use one core", file=sys.stderr)
            return 2
        return _run_passes(args, counter_sets, trips, layout)

    if args.jobs > 1:
        print("collect: --jobs has no effect on a single-pass run",
              file=sys.stderr)

    program, input_longs = build_workload(
        args.workload, trips, args.seed, layout
    )
    machine_config = scaled_config()
    if args.cores != 1:
        from dataclasses import replace as dataclass_replace

        machine_config = dataclass_replace(machine_config, cores=args.cores)
    config = CollectConfig(
        clock_profiling=args.clock == "on",
        counters=counter_sets[0] if counter_sets else [],
        multiplex_groups=mux_groups,
        multiplex_quantum=args.multiplex_quantum,
        name=args.outdir,
        watchdog_cycles=args.watchdog_cycles,
        watchdog_instructions=args.watchdog_instructions,
        engine=args.engine,
    )
    try:
        experiment = collect(
            program,
            machine_config,
            config,
            input_longs=input_longs,
            heap_page_bytes=args.heap_page_bytes,
            save_to=args.outdir,
            fault_plan=fault_plan,
        )
    except (MachineError, KernelError, WatchdogExpired) as error:
        print(f"collect: run died: {error}", file=sys.stderr)
        print(f"partial experiment written: {args.outdir}", file=sys.stderr)
        print(f"  (inspect with: repro-erprint {args.outdir} fsck)", file=sys.stderr)
        return 3
    except CollectError as error:
        # bad configuration caught before the run started (the scheduler
        # validates counters earlier; this guards e.g. --multiplex-quantum)
        print(f"collect: {error}", file=sys.stderr)
        return 2
    print(f"experiment written: {args.outdir}")
    print(f"  {len(experiment.hwc_events)} HW counter events, "
          f"{len(experiment.clock_events)} clock ticks")
    print(f"  target exit code {experiment.info.exit_code}")
    _warn_empty_counters(counter_events(experiment), experiment.info.totals)
    return 0


def pass_outdirs(outdir: str, count: int) -> list[str]:
    """Per-pass experiment directories: exp.er -> exp-p0.er, exp-p1.er ..."""
    stem = outdir[:-3] if outdir.endswith(".er") else outdir
    return [f"{stem}-p{index}.er" for index in range(count)]


def _run_passes(args, counter_sets, trips: int, layout: str) -> int:
    """Several ``-h`` flags: one collect pass each, fanned out over
    ``--jobs`` worker processes; clock profiling rides on pass 0 only so
    the merged profile counts each tick once."""
    outdirs = pass_outdirs(args.outdir, len(counter_sets))
    jobs = [
        CollectJob(
            config=CollectConfig(
                clock_profiling=args.clock == "on" and index == 0,
                counters=requests,
                name=outdir,
                watchdog_cycles=args.watchdog_cycles,
                watchdog_instructions=args.watchdog_instructions,
                engine=args.engine,
            ),
            workload=args.workload,
            trips=trips,
            seed=args.seed,
            layout=layout,
            heap_page_bytes=args.heap_page_bytes,
            save_to=outdir,
            fault_plan=args.fault_plan,
        )
        for index, (requests, outdir) in enumerate(zip(counter_sets, outdirs))
    ]
    results = collect_many(jobs, parallelism=args.jobs)
    failed = 0
    for result in results:
        if result.ok:
            print(f"experiment written: {result.outdir}")
            print(f"  {result.hwc_events} HW counter events, "
                  f"{result.clock_events} clock ticks")
            print(f"  target exit code {result.exit_code}")
            _warn_empty_counters(result.counter_events, result.totals)
        else:
            failed += 1
            print(f"collect: pass {result.index} died: {result.error}",
                  file=sys.stderr)
            print(f"partial experiment written: {result.outdir}",
                  file=sys.stderr)
            print(f"  (inspect with: repro-erprint {result.outdir} fsck)",
                  file=sys.stderr)
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
