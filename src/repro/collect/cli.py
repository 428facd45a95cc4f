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

Every run, one pass or several, is a job list for
:func:`repro.parallel.collect_many`; each pass reports through its
``JobResult`` and the directory it wrote (``-o exp`` writes ``exp.er``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as dataclass_replace

from ..config import scaled_config
from ..errors import ReproError
from ..faults import FaultPlan
from ..machine.counters import EVENTS, empty_counter_note
from ..parallel import CollectJob, check_workload, collect_many
from .collector import MULTIPLEX_QUANTUM, CollectConfig
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


def _parser() -> argparse.ArgumentParser:
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
    parser.add_argument("--multiplex-quantum", type=int, default=None,
                        metavar="N",
                        help="instructions per multiplex rotation "
                             f"(default {MULTIPLEX_QUANTUM})")
    parser.add_argument("-o", dest="outdir", default="experiment.er",
                        help="experiment directory to write (multi-pass runs "
                             "write <stem>-p<i>.er)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for multi-pass runs")
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
    return parser


def _check_multiplex_options(args) -> None:
    """Refuse, with the collector's own words, multiplexing options it
    would refuse mid-pass, whether or not the counters need rotating."""
    if args.multiplex_quantum is not None and args.multiplex_quantum < 1:
        raise ReproError("multiplex quantum must be positive")
    if args.multiplex and args.cores > 1:
        raise ReproError(
            "counter multiplexing is not supported on multi-core machines "
            "(cores > 1); run dedicated passes instead"
        )


def _plan(args, counter_sets: list) -> list:
    """The run's passes as ``(counters, multiplex_groups)`` pairs: one
    pass per scheduled counter set, one rotating pass under
    ``--multiplex``, or one counter-less pass when no ``-h`` is given."""
    requests = [request for counters in counter_sets for request in counters]
    if args.multiplex and requests:
        plan = plan_passes(requests, multiplex=True)
        if plan.multiplexed:
            return [([], plan.pass_requests())]
        # everything fits in one pass: nothing to rotate
        return [(plan.pass_requests()[0], [])]
    # several -h flags are explicit pass breaks, but each list may still
    # need splitting on its own
    passes = [
        (split, [])
        for counters in counter_sets
        for split in plan_passes(counters).pass_requests()
    ]
    return passes or [([], [])]


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(_list_counters())
        return 0

    args = _parser().parse_args(argv)
    if args.periodic != "off":
        print(
            f"collect: -S {args.periodic} is not supported: periodic "
            f"sampling is not implemented, only '-S off' is accepted",
            file=sys.stderr,
        )
        return 2

    try:
        counter_sets = [_parse_counter_list(text) for text in args.counters or []]
        if args.fault_plan:
            FaultPlan.parse(args.fault_plan)
        _check_multiplex_options(args)
        if args.schedule == "plan":
            requests = [r for counters in counter_sets for r in counters]
            print(plan_passes(requests, multiplex=args.multiplex).describe())
            return 0
        passes = _plan(args, counter_sets)
        trips, layout = _workload_options(args)
        if len(passes) > 1 and args.cores != 1:
            raise ReproError(
                "--cores is single-pass only; multi-pass runs use one core"
            )
        machine = None
        if args.cores != 1:
            machine = dataclass_replace(scaled_config(), cores=args.cores)
    except ReproError as error:
        print(f"collect: {error}", file=sys.stderr)
        return 2

    multiplexed = bool(passes[0][1])  # one pass that rotates its groups
    if len(passes) == 1 and args.jobs > 1:
        print("collect: --jobs has no effect on a single-pass run",
              file=sys.stderr)
    if args.multiplex and not multiplexed:
        print("collect: --multiplex has no effect: the counters fit in "
              "one pass", file=sys.stderr)
    if args.multiplex_quantum is not None and not multiplexed:
        print("collect: --multiplex-quantum has no effect on a run that "
              "is not multiplexed", file=sys.stderr)

    outdirs = (pass_outdirs(args.outdir, len(passes)) if len(passes) > 1
               else [args.outdir])
    jobs = [
        CollectJob(
            config=CollectConfig(
                # clock profiling rides on pass 0 only, so a merged
                # profile counts each tick once
                clock_profiling=args.clock == "on" and index == 0,
                counters=counters,
                multiplex_groups=groups,
                multiplex_quantum=args.multiplex_quantum or MULTIPLEX_QUANTUM,
                name=outdir,
                watchdog_cycles=args.watchdog_cycles,
                watchdog_instructions=args.watchdog_instructions,
            ),
            workload=args.workload,
            trips=trips,
            seed=args.seed,
            layout=layout,
            machine=machine,
            heap_page_bytes=args.heap_page_bytes,
            save_to=outdir,
            fault_plan=args.fault_plan,
        )
        for index, ((counters, groups), outdir) in enumerate(zip(passes, outdirs))
    ]
    return _run_passes(jobs, args.jobs)


def pass_outdirs(outdir: str, count: int) -> list[str]:
    """Per-pass experiment directories: exp.er -> exp-p0.er, exp-p1.er ..."""
    stem = outdir[:-3] if outdir.endswith(".er") else outdir
    return [f"{stem}-p{index}.er" for index in range(count)]


def _run_passes(jobs: list, parallelism: int) -> int:
    """Run the passes over up to ``parallelism`` worker processes and
    report each from its :class:`JobResult`: exit 3 when any pass died
    (its partial directory, if it got one, is named for ``fsck``)."""
    failed = 0
    for result in collect_many(jobs, parallelism=parallelism):
        if result.ok:
            print(f"experiment written: {result.outdir}")
            print(f"  {result.hwc_events} HW counter events, "
                  f"{result.clock_events} clock ticks")
            print(f"  target exit code {result.exit_code}")
            for name, interval, recorded in result.counter_events:
                if not recorded:
                    note = empty_counter_note(name, interval, result.totals)
                    print(f"collect: warning: {note}", file=sys.stderr)
            continue
        failed += 1
        print(f"collect: pass {result.index} died: {result.error}",
              file=sys.stderr)
        if os.path.isdir(result.outdir):
            print(f"partial experiment written: {result.outdir}",
                  file=sys.stderr)
            print(f"  (inspect with: repro-erprint {result.outdir} fsck)",
                  file=sys.stderr)
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
