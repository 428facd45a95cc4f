"""``repro-erprint`` — the command-line analyzer (the paper's ``er_print``).

Usage::

    repro-erprint <experiment.er> [<experiment2.er> ...] <command> [args]

Commands (er_print-style):

* ``overview``                      Figure 1 metrics
* ``functions``                     Figure 2 function list
* ``source <function>``             Figure 3 annotated source
* ``disasm <function>``             Figure 4 annotated disassembly
* ``pcs [metric]``                  Figure 5 PC list
* ``data_objects``                  Figure 6 data objects
* ``data_single <structure:name>``  Figure 7 member expansion
* ``callers-callees <function>``
* ``segments [metric]``     events by mapped segment
* ``pages [metric]``        hot virtual pages, with the data objects that
                            live on each page (§4)
* ``lines [metric]``        hot E$ cache lines, with the data objects and
                            structure members on each line (§4)
* ``instances [metric]``    events by heap-allocation instance (§4)
* ``latency [metric]``      sampled load-latency histogram (``ldlat``)
* ``sharing [metric]``      cache lines written by several threads —
                            false-sharing detection over the ``cohm``
                            coherence-miss counter, with the structure
                            members on each shared line (multi-core runs)
* ``header``                collection parameters + run facts (flags
                            time-multiplexed counters whose totals are
                            scaled estimates, and names each counter
                            that recorded no event)
* ``heap``                  allocation/deallocation summary by site (§2.2)
* ``fsck``                  validate the directory against its manifest and
                            report how much data is salvageable; with
                            ``--fleet`` the argument is a fleet root
                            instead and the aggregate-store invariants
                            are audited (``--repair`` fixes what is
                            mechanically safe to fix)
* ``oracle``                join the profile against the simulator's
                            ground-truth side channel (``truth.jsonl``)
                            and classify every attribution as exact /
                            wrong-pc / wrong-ea / spurious-unknown /
                            correct-unknown

Experiments are opened in salvage mode by default: damaged files are
skipped with a warning and reports carry an ``(Incomplete)`` header.
Pass ``--strict`` to fail loudly on any corruption instead.

Scaling options:

* ``--jobs N``    reduce independent experiments in N worker processes
                  (results merge in command-line order, so the report is
                  byte-identical to a sequential run)
* ``--no-cache``  ignore and do not write the per-experiment reduction
                  cache under ``<exp>.er/cache/``
"""

from __future__ import annotations

import sys

from ..errors import ReproError
from ..machine.counters import empty_counter_note
from . import reports
from .fsck import fsck_experiment
from .oracle import oracle_experiments, render_oracle
from .reduce import reduce_experiments

_COMMANDS = (
    "overview",
    "functions",
    "source",
    "disasm",
    "pcs",
    "data_objects",
    "data_single",
    "callers-callees",
    "segments",
    "pages",
    "lines",
    "instances",
    "latency",
    "sharing",
    "header",
    "heap",
    "fsck",
    "oracle",
)


def run_command(reduced, command: str, args: list) -> str:
    """Execute one er_print command against a reduction."""
    output = _run_command(reduced, command, args)
    if getattr(reduced, "incomplete", False):
        reason = reduced.incomplete_reason or "partial data"
        output = f"(Incomplete) profile from a partial run — {reason}\n\n" + output
    return output


def _run_command(reduced, command: str, args: list) -> str:
    if command == "overview":
        analysis = reports.overview_analysis(reduced)
        return (
            reports.overview(reduced)
            + "\n\n"
            + f"E$ stall fraction of run time:  {analysis['stall_fraction']:.1%}\n"
            + f"Est. DTLB miss cost:            {analysis['dtlb_cost_seconds']:.3f} s"
            f" ({analysis['dtlb_cost_fraction']:.1%})\n"
            + f"E$ read miss rate:              {analysis['ec_read_miss_rate']:.1%}"
        )
    if command == "functions":
        return reports.function_list(reduced)
    if command == "source":
        if not args:
            raise ReproError("source: function name required")
        return reports.annotated_source(reduced, args[0])
    if command == "disasm":
        if not args:
            raise ReproError("disasm: function name required")
        return reports.annotated_disassembly(reduced, args[0])
    if command == "pcs":
        metric = args[0] if args else "ecrm"
        return reports.pc_list(reduced, sort_by=metric)
    if command == "data_objects":
        return reports.data_objects(reduced)
    if command == "data_single":
        if not args:
            raise ReproError("data_single: object name required (structure:node)")
        return reports.data_object_expand(reduced, args[0])
    if command == "callers-callees":
        if not args:
            raise ReproError("callers-callees: function name required")
        return reports.callers_callees(reduced, args[0])
    if command == "segments":
        return reports.segment_report(reduced, args[0] if args else "ecrm")
    if command == "pages":
        return reports.page_report(reduced, args[0] if args else "dtlbm")
    if command == "lines":
        return reports.cache_line_report(reduced, args[0] if args else "ecrm")
    if command == "instances":
        return reports.instance_report(reduced, args[0] if args else "ecrm")
    if command == "latency":
        # an experiment without ldlat samples has no latency axis at all —
        # say so plainly (exit 0) instead of erroring out of the report
        metric = args[0] if args else "ldlat"
        if not reduced.latency_samples.get(metric):
            return (
                f"no latency data recorded — collect with a +{metric} "
                f"counter to sample per-load latencies"
            )
        return reports.latency_report(reduced, metric)
    if command == "sharing":
        # single-core runs have no thread axis: that is an answer ("no
        # sharing is possible"), not an error
        metric = args[0] if args else "cohm"
        if not reduced.cache_line_writers and not reduced.threads:
            return (
                "no sharing data recorded — single-core run or no "
                f"addressed store events (collect with --cores > 1 and a "
                f"backtracked +{metric} counter)"
            )
        return reports.sharing_report(reduced, metric)
    if command == "heap":
        return reports.heap_report(reduced)
    if command == "header":
        lines = ["Experiment header:"]
        for info in reduced.counter_info:
            plus = "+" if info.get("backtrack") else ""
            mux = ""
            if info.get("multiplexed"):
                mux = (f" [multiplexed group {info.get('group', 0)}: "
                       f"totals are estimates scaled "
                       f"x{info.get('scale', 1)}]")
            lines.append(
                f"  HW counter: {plus}{info['name']} interval={info['interval']}"
                f" (PIC{info['register']}){mux}"
            )
            if not reduced.total.get(info["name"]):
                note = empty_counter_note(info["name"], info["interval"],
                                          reduced.machine_totals)
                lines.append(f"  warning: {note}")
        for name, base, size, page in reduced.segments:
            lines.append(
                f"  segment {name:<6} base=0x{base:x} size={size} page={page}"
            )
        lines.append(f"  heap allocations recorded: {len(reduced.allocations)}")
        totals = reduced.machine_totals
        if totals:
            lines.append(f"  cycles={int(totals.get('cycles', 0))} "
                         f"instructions={int(totals.get('instructions', 0))}")
        return "\n".join(lines)
    raise ReproError(f"unknown command {command!r}; one of {', '.join(_COMMANDS)}")


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if "--fleet" in argv:
        # fleet-store audit: repro-erprint fsck --fleet <root> [--repair]
        if "fsck" not in argv:
            print("error: --fleet is only valid with fsck", file=sys.stderr)
            return 2
        from ..fleet.fsck import fsck_store

        repair = "--repair" in argv
        roots = [arg for arg in argv
                 if arg not in ("fsck", "--fleet", "--repair")]
        if not roots:
            print("error: no fleet root given", file=sys.stderr)
            return 2
        code = 0
        for root in roots:
            text, status = fsck_store(root, repair=repair)
            print(text)
            code = max(code, status)
        return code
    strict = "--strict" in argv
    use_cache = "--no-cache" not in argv
    jobs = 1
    filtered: list[str] = []
    pending = iter(argv)
    for arg in pending:
        if arg in ("--strict", "--no-cache"):
            continue
        if arg == "--jobs" or arg.startswith("--jobs="):
            value = arg.split("=", 1)[1] if "=" in arg else next(pending, "")
            try:
                jobs = int(value)
            except ValueError:
                print("error: --jobs requires an integer", file=sys.stderr)
                return 2
            continue
        filtered.append(arg)
    argv = filtered
    directories: list[str] = []
    while argv and argv[0] not in _COMMANDS:
        directories.append(argv.pop(0))
    if not directories:
        print("error: no experiment directories given", file=sys.stderr)
        return 2
    if not argv:
        print("error: no command given", file=sys.stderr)
        return 2
    command, args = argv[0], argv[1:]
    if command == "fsck":
        code = 0
        for directory in directories:
            text, status = fsck_experiment(directory)
            print(text)
            code = max(code, status)
        return code
    if command == "oracle":
        # the oracle reads the raw journals (profile + truth side channel),
        # not the reduction, so it bypasses the reduce/cache machinery
        try:
            report = oracle_experiments(directories, strict=strict)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(render_oracle(report))
        return 1 if report.unexplained else 0
    try:
        reduced = reduce_experiments(
            directories, parallelism=jobs, strict=strict, use_cache=use_cache
        )
        print(run_command(reduced, command, args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main", "run_command"]
