"""``repro-autotune`` — the closed-loop PGO search driver.

Verbs:

* ``run``    — start (or idempotently continue) a search in an output
  directory; profiles the workload, tries the advisor's candidate
  transforms, keeps measured winners, journals every step.
* ``resume`` — continue a killed search from its journal alone: the
  workload, machine and search options are rebuilt from the journal's
  meta record, completed trials are replayed without re-simulation, and
  the journal is recovered (torn tail truncated) before appending.
* ``report`` — render the journal: trial table, accepted chain, final
  speedup.  Never simulates.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from .journal import SearchJournal
from .search import AutotuneSearch, SearchOptions, search_summary
from .workloads import MACHINES, make_machine, make_workload, mcf_tunable


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("outdir", help="search output directory (journal + trial experiments)")
    parser.add_argument("--workload", default="mcf", choices=["mcf"],
                        help="tunable workload (default: mcf)")
    parser.add_argument("--trips", type=int, default=150,
                        help="MCF instance size (default: 150)")
    parser.add_argument("--seed", type=int, default=1,
                        help="MCF instance seed (default: 1)")
    parser.add_argument("--connections", type=int, default=8,
                        help="MCF arcs per trip (default: 8)")
    parser.add_argument("--machine", default="scaled",
                        choices=sorted(MACHINES),
                        help="machine configuration (default: scaled)")
    parser.add_argument("--threshold", type=float, default=0.02,
                        help="minimum fractional win to keep a transform "
                             "(default: 0.02)")
    parser.add_argument("--max-rounds", type=int, default=6,
                        help="greedy rounds before stopping (default: 6)")
    parser.add_argument("--max-structs", type=int, default=2,
                        help="hot structures to try per round (default: 2)")
    _add_exec_args(parser)


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=None,
                        help="stop after this many simulated trials "
                             "(journal total; resume continues)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel collect jobs per trial (default: 2)")


def _options_from_args(args, base: SearchOptions = None) -> SearchOptions:
    options = base or SearchOptions(
        threshold=args.threshold,
        max_rounds=args.max_rounds,
        max_structs=args.max_structs,
    )
    options.budget = args.budget
    options.jobs = args.jobs
    return options


def _print_result(result) -> None:
    if result.paused:
        print(f"search paused after {result.trials_simulated} trials "
              f"(budget) — `repro-autotune resume {result.outdir}` continues")
        return
    print(f"baseline: {result.baseline_cycles} cycles")
    print(f"best:     {result.best_cycles} cycles "
          f"({result.improvement:.1%} faster, {result.speedup:.3f}x)")
    if result.chain:
        print("winning transform chain:")
        for step, transform in enumerate(result.chain, 1):
            print(f"  {step}. {transform.describe()}")
    else:
        print("no transform beat the threshold; the baseline stands")


def _cmd_run(args) -> int:
    workload = mcf_tunable(trips=args.trips, seed=args.seed,
                           connections=args.connections)
    machine = make_machine(args.machine)
    search = AutotuneSearch(
        args.outdir, workload, machine=machine,
        options=_options_from_args(args), log=print,
    )
    result = search.run()
    _print_result(result)
    return 0


def _cmd_resume(args) -> int:
    journal = SearchJournal(args.outdir)
    records = journal.read()
    if not records or records[0].get("type") != "meta":
        print(f"{journal.path}: no search journal to resume",
              file=sys.stderr)
        return 1
    meta = records[0]
    workload = make_workload(meta["workload"])
    search_meta = meta.get("search", {})
    options = SearchOptions(
        threshold=search_meta.get("threshold", 0.02),
        page_threshold=search_meta.get("page_threshold", 0.02),
        prefetch_min_percent=search_meta.get("prefetch_min_percent", 2.0),
        prefetch_top=search_meta.get("prefetch_top", 8),
        max_structs=search_meta.get("max_structs", 2),
        max_rounds=search_meta.get("max_rounds", 6),
    )
    options = _options_from_args(args, base=options)
    machine = None
    for name in MACHINES:
        from .workloads import machine_fingerprint
        candidate = make_machine(name)
        if machine_fingerprint(candidate) == meta.get("machine"):
            machine = candidate
            break
    if machine is None:
        print(f"{journal.path}: journal machine matches no registered "
              f"configuration", file=sys.stderr)
        return 1
    search = AutotuneSearch(args.outdir, workload, machine=machine,
                            options=options, log=print)
    result = search.run()
    _print_result(result)
    return 0


def _cmd_report(args) -> int:
    journal = SearchJournal(args.outdir)
    if not journal.exists():
        print(f"{journal.path}: no search journal", file=sys.stderr)
        return 1
    summary = search_summary(journal.read())
    meta = summary["meta"] or {}
    workload = meta.get("workload", {})
    print(f"workload: {workload.get('workload', '?')} "
          f"(trips={workload.get('trips', '?')}, "
          f"seed={workload.get('seed', '?')})")
    print(f"{'trial':>5} {'round':>5} {'status':<11} {'cycles':>10}  candidate")
    for trial in summary["trials"]:
        chain = trial.get("chain") or []
        label = "baseline"
        if chain:
            from .transforms import transform_from_dict
            label = transform_from_dict(chain[-1]).describe()
        cycles = trial.get("cycles")
        print(f"{trial['id']:>5} {trial['round']:>5} "
              f"{trial['status']:<11} "
              f"{cycles if cycles is not None else '-':>10}  {label}")
        if trial.get("unmatched_hints"):
            print(f"{'':>34} (unmatched hints: "
                  f"{', '.join(trial['unmatched_hints'])})")
    final = summary["result"]
    if final is not None:
        print(f"\nbaseline: {final['baseline_cycles']} cycles")
        print(f"best:     {final['best_cycles']} cycles "
              f"({final['speedup']:.3f}x)")
        if summary["chain"]:
            print("winning transform chain:")
            for step, transform in enumerate(summary["chain"], 1):
                print(f"  {step}. {transform.describe()}")
        else:
            print("no transform beat the threshold")
    else:
        print("\nsearch incomplete — `repro-autotune resume` continues it")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-autotune",
        description="closed-loop profile-guided layout search "
                    "(profile -> advise -> rewrite -> re-profile)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="start (or continue) a search")
    _add_run_args(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser(
        "resume", help="continue a killed search from its journal"
    )
    resume.add_argument("outdir")
    _add_exec_args(resume)
    resume.set_defaults(func=_cmd_resume)

    report = sub.add_parser("report", help="render a search journal")
    report.add_argument("outdir")
    report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"repro-autotune: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
