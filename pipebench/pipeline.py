"""Workloads, output checks and metrics of the pipeline benchmark.

Every workload drives the paper's loop through the public calls the
command-line tools make, one operation at a time from one process, on
the default ``fast`` engine:

* ``mcf-profiled`` — the §3.1 pair of passes on ``MACHINES["tight"]``
  (pass 0: clock + ``+ecstall`` + ``+ecrm``; pass 1: ``+ecref`` +
  ``+dtlbm``; intervals scale as in :mod:`repro.mcf.casestudy`), each
  journaled with ``collect(..., save_to=)`` as ``repro-collect`` does.
  Then one cold ``repro-erprint`` verb and five warm ones, each a fresh
  ``reduce_experiments(dirs)`` + ``run_command``.
* ``mcf-clock`` — the same program, instances and machine with clock
  profiling only (``-p on``), then the verbs that apply to a clock
  profile.  The engine and kernel do nearly all the work, so an engine
  change shows here in full and a journal, backtrack or reduce change
  should not.
* ``fleet-ingest`` — set-up runs the ``mcf-profiled`` sequence to
  collect a corpus of saved passes; the loop submits it into two windows
  (two experiments per aggregate key, so ``ReducedData.merged_with``
  runs), then one ``drain()``, one ``query()`` and one ``diff()``, as
  ``repro-fleet`` does.  No simulation: the time goes to reading and
  reducing journals without the cache, plus WAL and commit writes.

One pass of the MCF loop runs every instance of the seed's batch
(:data:`INSTANCES` instances drawn from the seed), because the work of a
single MCF instance varies by several percent from seed to seed.

Every end-to-end metric is reported on every workload.  ``loop_s`` is
the measured pass (MCF: collect plus every verb; fleet: submit, drain,
query and diff).  ``collect_s``, ``erprint_cold_s`` and
``erprint_warm_s`` split the MCF pass; on ``fleet-ingest`` they are the
same stages of the set-up that collects the corpus.  ``attr_exact_frac``
is 1.0 on ``mcf-clock``, whose passes have nothing to attribute.  Times
are normalized for the host's speed (:mod:`hostspeed`); the per-layer
span times also contain the probes' timer interrupts, a few percent.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analyze import cache as reduction_cache
from repro.analyze import erprint
from repro.analyze import reduce as reduction
from repro.analyze.model import ReducedData
from repro.analyze.oracle import oracle_experiments
from repro.autotune.workloads import MACHINES
from repro.collect import collector
from repro.collect.collector import CollectConfig
from repro.collect.experiment import Experiment
from repro.compiler.program import Program
from repro.errors import CollectError, ReproError, WorkloadError
from repro.fleet import service as fleet_service
from repro.fleet.service import FleetService
from repro.mcf import workload as mcf_workload
from repro.mcf.instance import (
    encode_instance,
    generate_instance,
    reference_optimal_cost,
)
from repro.mcf.sources import parse_mcf_stdout

from hostspeed import HostSpeed
from spans import Tracer, accounting_errors, layer_times

WORKLOADS = ("mcf-profiled", "mcf-clock", "fleet-ingest")

#: MCF instances per loop pass (and in the fleet corpus)
INSTANCES = 4
CONNECTIONS = 8
MACHINE = MACHINES["tight"]()

#: windows the fleet corpus is submitted into
WINDOWS = ("w0", "w1")

#: engines tried by the traced run's engine ladder; those the collector
#: rejects are skipped, and the first is the journal reference
ENGINE_CANDIDATES = ("fast", "trace", "reference")

#: fewest measured passes of a run (determinism is checked from the
#: second pass on)
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "loop_s": "s",
    "collect_s": "s",
    "erprint_cold_s": "s",
    "erprint_warm_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "attr_exact_frac": "ratio",
}

LAYER_UNITS = {
    "compiler.build_s": "s",
    "kernel.load_s": "s",
    "machine.sim_s": "s",
    "machine.mips": "MIPS",
    "machine.instructions": "count",
    "machine.cycles": "count",
    "machine.ec_read_misses": "count",
    "machine.dtlb_misses": "count",
    "collect.backtrack_s": "s",
    "collect.backtrack_calls": "count",
    "collect.backtrack_found_frac": "ratio",
    "collect.journal_s": "s",
    "collect.journal_hwc_s": "s",
    "collect.journal_truth_s": "s",
    "collect.journal_clock_s": "s",
    "collect.journal_lines": "count",
    "collect.journal_bytes": "B",
    "collect.save_s": "s",
    "analyze.open_s": "s",
    "analyze.reduce_s": "s",
    "analyze.events_reduced": "count",
    "analyze.cache_load_s": "s",
    "analyze.cache_store_s": "s",
    "analyze.cache_hit_frac": "ratio",
    "analyze.program_load_s": "s",
    "analyze.merge_s": "s",
    "analyze.report_s": "s",
    "fleet.submit_s": "s",
    "fleet.ingest_s": "s",
    "fleet.wal_s": "s",
    "fleet.commit_s": "s",
    "fleet.query_s": "s",
    "fleet.diff_s": "s",
    "fleet.merged": "count",
    "fleet.quarantined": "count",
    **{f"machine.mips.{engine}": "MIPS" for engine in ENGINE_CANDIDATES},
    "tracing_overhead_frac": "ratio",
}


# ------------------------------------------------------------------ inputs

def make_instances(seed: int, trips: int) -> list:
    """The seed's batch of MCF instances (disjoint across seeds)."""
    return [
        generate_instance(trips=trips, seed=seed * INSTANCES + index,
                          connections_per_trip=CONNECTIONS)
        for index in range(INSTANCES)
    ]


def profiled_passes(instance) -> list:
    """The §3.1 pair of passes, intervals scaled as in the case study."""
    scale = max(instance.m / 7000.0, 0.02)

    def interval(base: int, floor: int) -> int:
        return max(floor, int(base * scale))

    return [
        CollectConfig(
            clock_profiling=True,
            clock_interval=interval(4999, 499),
            counters=[f"+ecstall,{interval(4999, 211)}",
                      f"+ecrm,{interval(97, 13)}"],
            name="mcf-p0",
        ),
        CollectConfig(
            clock_profiling=False,
            counters=[f"+ecref,{interval(499, 31)}",
                      f"+dtlbm,{interval(29, 5)}"],
            name="mcf-p1",
        ),
    ]


def clock_passes(instance) -> list:
    """Clock profiling only, at the ``-p on`` interval."""
    return [CollectConfig(clock_profiling=True, name="mcf-clock")]


@dataclass(frozen=True)
class Sequence:
    """The collect passes and erprint verbs run on one instance."""

    passes: object          # instance -> [CollectConfig]
    cold: tuple             # the first verb, on a fresh directory
    warm: tuple             # verbs that hit the reduction cache


PROFILED = Sequence(
    profiled_passes,
    ("functions",),
    (("data_objects",), ("data_single", "structure:node"), ("lines",),
     ("pages",), ("overview",)),
)
CLOCK = Sequence(
    clock_passes,
    ("functions",),
    (("overview",), ("pcs", "user_cpu"), ("source", "refresh_potential"),
     ("callers-callees", "primal_bea_mpp")),
)


# ------------------------------------------------------------------ checks

class Tally:
    """Attempted and failed operations and output checks, by name."""

    def __init__(self) -> None:
        #: name -> [attempted, failed, first failure]
        self.counts: dict = {}

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.counts.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail
        return ok

    @property
    def attempted(self) -> int:
        return sum(entry[0] for entry in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(entry[1] for entry in self.counts.values())

    def lines(self) -> list:
        """One line per check: passed/attempted and the first failure."""
        lines = []
        for name, (attempted, failed, detail) in sorted(self.counts.items()):
            line = f"check {name}: {attempted - failed}/{attempted} passed"
            if failed:
                line += f" (first failure: {detail})"
            lines.append(line)
        return lines


def unfired(experiment: Experiment, config: CollectConfig) -> list:
    """Requested counters (and the clock) that recorded no event."""
    counts = Counter(event.event for event in experiment.hwc_events)
    missing = [counter["name"] for counter in experiment.info.counters
               if not counts[counter["name"]]]
    if config.clock_profiling and not experiment.clock_events:
        missing.append("clock")
    return missing


def journal_entries(directory) -> dict:
    """Manifest entries (bytes, lines, sha256) of the event journals."""
    manifest = Experiment.read_manifest(directory) or {}
    return {name: entry for name, entry in manifest.get("files", {}).items()
            if name.endswith(".jsonl")}


def journal_digests(directory) -> dict:
    return {name: entry.get("sha256")
            for name, entry in journal_entries(directory).items()}


class ProcessTap:
    """Keeps the process ``collect()`` last started, so the benchmark can
    read the target's printed flow cost."""

    def __init__(self) -> None:
        self.last = None
        self._original = None

    def __enter__(self) -> "ProcessTap":
        self._original = original = collector.Process

        def process(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        collector.Process = process
        return self

    def __exit__(self, *exc) -> None:
        collector.Process = self._original

    def take_stdout(self) -> str:
        process, self.last = self.last, None
        return process.stdout if process is not None else ""


# ------------------------------------------------------------------- loops

def erprint_verb(directories, verb: tuple) -> str:
    """One ``repro-erprint <dirs> <verb>`` call, without the printing."""
    reduced = reduction.reduce_experiments(
        [str(directory) for directory in directories],
        strict=False, use_cache=True,
    )
    return erprint.run_command(reduced, verb[0], list(verb[1:]))


def _try_verb(directories, verb: tuple) -> tuple:
    """(output, "") or ("", the error the verb failed with)."""
    try:
        return erprint_verb(directories, verb), ""
    except ReproError as error:
        return "", str(error)


class McfLoop:
    """Collect and erprint every instance of a batch, checking outputs."""

    def __init__(self, sequence: Sequence, instances: list, program,
                 workdir: Path, tally: Tally, tap: ProcessTap,
                 speed: HostSpeed) -> None:
        self.sequence = sequence
        self.instances = instances
        self.program = program
        self.tally = tally
        self.tap = tap
        self.speed = speed
        self.inputs = [encode_instance(instance) for instance in instances]
        self.configs = [sequence.passes(instance) for instance in instances]
        self.dirs = [
            [workdir / f"mcf{index}-p{number}.er"
             for number in range(len(configs))]
            for index, configs in enumerate(self.configs)
        ]
        self._fingerprints: dict = {}
        self._optimum: dict = {}
        #: simulated totals and journal sizes of the last pass
        self.facts: dict = {}
        #: wall-clock seconds of the last pass's stages
        self.wall = 0.0

    def run_once(self) -> dict:
        """One pass over the batch; returns normalized seconds per stage
        (see :mod:`hostspeed`)."""
        stages = Counter({"collect": 0.0, "erprint_cold": 0.0,
                          "erprint_warm": 0.0})
        self.facts = Counter()
        self.wall = 0.0
        for index in range(len(self.instances)):
            self._run_instance(index, stages)
        return dict(stages)

    def _timed(self, stages: Counter, stage: str, work):
        result, seconds, wall = self.speed.timed(work)
        stages[stage] += seconds
        self.wall += wall
        return result

    def _run_instance(self, index: int, stages: Counter) -> None:
        """Collect every pass of one instance, then run the verbs."""
        dirs = self.dirs[index]
        complete = True
        for number, directory in enumerate(dirs):
            config = self.configs[index][number]
            try:
                experiment = self._timed(stages, "collect", lambda: (
                    collector.collect(self.program, MACHINE, config,
                                      input_longs=self.inputs[index],
                                      save_to=str(directory))))
            except ReproError as error:
                self.tap.last = None
                complete = self.tally.record(
                    "collect", False, f"{directory.name}: {error}")
                continue
            complete &= self._check_pass(index, number, config, experiment,
                                         directory)
        verbs = (self.sequence.cold, *self.sequence.warm)
        if not complete:
            for verb in verbs:
                self.tally.record("erprint", False,
                                  f"{' '.join(verb)}: a collect pass failed")
            return
        results = [self._timed(stages, "erprint_cold",
                               lambda: _try_verb(dirs, self.sequence.cold))]
        results += self._timed(stages, "erprint_warm", lambda: [
            _try_verb(dirs, verb) for verb in self.sequence.warm])
        for verb, (output, error) in zip(verbs, results):
            if not error and "(Incomplete)" in output:
                error = "printed (Incomplete)"
            self.tally.record("erprint", not error,
                              f"{' '.join(verb)}: {error}")

    def _check_pass(self, index: int, number: int, config: CollectConfig,
                    experiment: Experiment, directory: Path) -> bool:
        tally = self.tally
        ok = tally.record("collect", not experiment.incomplete,
                          f"{directory.name}: "
                          f"{experiment.incomplete_reason()}")
        missing = unfired(experiment, config)
        tally.record("counters_fired", not missing,
                     f"{directory.name}: no events from {', '.join(missing)}")
        stdout = self.tap.take_stdout()
        try:
            printed = parse_mcf_stdout(stdout)["flow_cost"]
        except WorkloadError as error:
            tally.record("flow_cost", False, f"{directory.name}: {error}")
        else:
            optimum = self._optimum.get(index)
            if optimum is None:
                optimum = self._optimum[index] = reference_optimal_cost(
                    self.instances[index])
            tally.record("flow_cost", printed == optimum,
                         f"{directory.name}: printed {printed}, "
                         f"optimum {optimum}")
        journals = journal_entries(directory)
        fingerprint = (
            dict(experiment.info.totals),
            {name: entry.get("sha256") for name, entry in journals.items()},
        )
        first = self._fingerprints.setdefault((index, number), fingerprint)
        if first is not fingerprint:
            tally.record("deterministic", fingerprint == first,
                         f"{directory.name}: totals or journals differ "
                         f"from the first pass")
        totals = experiment.info.totals
        self.facts["machine.instructions"] += totals.get("instructions", 0)
        self.facts["machine.cycles"] += totals.get("cycles", 0)
        self.facts["machine.ec_read_misses"] += totals.get("ec_read_misses", 0)
        self.facts["machine.dtlb_misses"] += totals.get("dtlb_misses", 0)
        for entry in journals.values():
            self.facts["collect.journal_lines"] += entry.get("lines", 0)
            self.facts["collect.journal_bytes"] += entry.get("bytes", 0)
        return ok

    def all_dirs(self) -> list:
        return [directory for dirs in self.dirs for directory in dirs]


class FleetLoop:
    """Submit a corpus, drain, query and diff in a fresh fleet root."""

    def __init__(self, corpus: list, keys: int, workdir: Path,
                 tally: Tally, speed: HostSpeed) -> None:
        #: (window, experiment directory) in submission order
        self.corpus = corpus
        #: aggregate keys the corpus fills (pass configs x windows)
        self.keys = keys
        self.workdir = workdir
        self.tally = tally
        self.speed = speed
        self.facts: dict = {}
        #: wall-clock seconds of the last round's stages
        self.wall = 0.0
        self._rounds = 0

    def run_once(self) -> dict:
        """One submit/drain/query/diff round; returns normalized seconds
        per stage (see :mod:`hostspeed`)."""
        root = self.workdir / f"fleet{self._rounds}"
        self._rounds += 1
        service = FleetService(root, owner="pipebench")

        def round_trip():
            marks = [time.perf_counter()]
            submitted = [service.submit(str(directory), window=window)
                         for window, directory in self.corpus]
            marks.append(time.perf_counter())
            outcomes = service.drain()
            marks.append(time.perf_counter())
            rows = service.query()
            marks.append(time.perf_counter())
            diffs = service.diff(*WINDOWS)
            marks.append(time.perf_counter())
            return submitted, outcomes, rows, diffs, marks

        result, seconds, self.wall = self.speed.timed(round_trip)
        submitted, outcomes, rows, diffs, marks = result
        factor = seconds / self.wall
        stages = {stage: (end - start) * factor for stage, start, end
                  in zip(("submit", "drain", "query", "diff"), marks,
                         marks[1:])}

        tally = self.tally
        for result in submitted:
            tally.record("fleet_submit", result.ok,
                         f"{result.sub_id}: {result.status} {result.detail}")
        for outcome in outcomes:
            tally.record(
                "fleet_entry",
                outcome.status == "merged" and not outcome.incomplete,
                f"{outcome.entry}: {outcome.status}"
                f"{' (Incomplete)' if outcome.incomplete else ''} "
                f"{outcome.reason}",
            )
        for _missing in range(len(self.corpus) - len(outcomes)):
            tally.record("fleet_entry", False, "entry never drained")
        tally.record(
            "fleet_keys",
            len(rows) == self.keys
            and all(row["experiments"] >= 2 for row in rows),
            f"{len(rows)} aggregates with "
            f"{[row['experiments'] for row in rows]} experiments",
        )
        tally.record("fleet_diff", len(diffs) * len(WINDOWS) == self.keys,
                     f"{len(diffs)} keys present in both windows")
        statuses = Counter(outcome.status for outcome in outcomes)
        self.facts = {"fleet.merged": statuses["merged"],
                      "fleet.quarantined": statuses["quarantined"]}
        shutil.rmtree(root, ignore_errors=True)
        return stages


# ----------------------------------------------------------------- tracing

class LayerTrace:
    """Spans around every layer's entry points, turned into per-layer
    metrics.  Installed only for traced passes."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._found = 0
        self._cache_hits = 0
        self._opened: list = []

    def __enter__(self) -> "LayerTrace":
        wrap = self.tracer.wrap
        wrap(mcf_workload, "build_executable", "compiler.build")
        wrap(collector, "collect", "collect")
        wrap(collector, "Process", "kernel.load")
        wrap(collector, "apropos_backtrack", "collect.backtrack",
             self._on_backtrack)
        wrap(Experiment, "record_hwc", "collect.journal_hwc")
        wrap(Experiment, "record_truth", "collect.journal_truth")
        wrap(Experiment, "record_clock", "collect.journal_clock")
        wrap(Experiment, "save", "collect.save")
        wrap(reduction, "reduce_path", "analyze.reduce")
        wrap(fleet_service, "reduce_path", "analyze.reduce")
        wrap(Experiment, "open_streaming", "analyze.open", self._opened.append)
        wrap(reduction_cache, "load", "analyze.cache_load", self._on_cache)
        wrap(reduction_cache, "store", "analyze.cache_store")
        wrap(Program, "load", "analyze.program_load")
        wrap(ReducedData, "merged_with", "analyze.merge")
        wrap(erprint, "run_command", "analyze.report")
        wrap(FleetService, "submit", "fleet.submit")
        wrap(FleetService, "ingest_entry", "fleet.ingest")
        wrap(fleet_service, "wal_append", "fleet.wal")
        wrap(fleet_service, "commit_aggregate", "fleet.commit")
        wrap(FleetService, "query", "fleet.query")
        wrap(FleetService, "diff", "fleet.diff")
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.unwrap_all()

    def _on_backtrack(self, result) -> None:
        self._found += result.status == "found"

    def _on_cache(self, cached) -> None:
        self._cache_hits += cached is not None

    def start(self) -> int:
        """Begin a traced pass: reset the counts; returns the first span."""
        self._found = 0
        self._cache_hits = 0
        self._opened.clear()
        return len(self.tracer.spans)

    def metrics(self, first: int, facts: dict, factor: float) -> dict:
        """Per-layer metrics of the spans recorded since ``first``, with
        times scaled by the host-speed ``factor``."""
        spans = self.tracer.spans
        total, own = layer_times(spans, first)
        calls = Counter(span[0] for span in spans[first:])
        metrics = {name: 0 for name in LAYER_UNITS}
        metrics.update(facts)
        journal = {kind: total.get(f"collect.journal_{kind}", 0.0)
                   for kind in ("hwc", "truth", "clock")}
        metrics.update({
            "kernel.load_s": total.get("kernel.load", 0.0),
            "machine.sim_s": own.get("collect", 0.0),
            "collect.backtrack_s": total.get("collect.backtrack", 0.0),
            "collect.backtrack_calls": calls["collect.backtrack"],
            "collect.backtrack_found_frac": _ratio(
                self._found, calls["collect.backtrack"]),
            "collect.journal_s": sum(journal.values()),
            "collect.journal_hwc_s": journal["hwc"],
            "collect.journal_truth_s": journal["truth"],
            "collect.journal_clock_s": journal["clock"],
            "collect.save_s": total.get("collect.save", 0.0),
            "analyze.open_s": total.get("analyze.open", 0.0),
            "analyze.reduce_s": own.get("analyze.reduce", 0.0),
            "analyze.events_reduced": sum(
                stats.lines_kept
                for experiment in self._opened
                for name, stats in experiment.salvage.files.items()
                if name != "truth.jsonl"
            ),
            "analyze.cache_load_s": total.get("analyze.cache_load", 0.0),
            "analyze.cache_store_s": total.get("analyze.cache_store", 0.0),
            "analyze.cache_hit_frac": _ratio(
                self._cache_hits, calls["analyze.cache_load"]),
            "analyze.program_load_s": total.get("analyze.program_load", 0.0),
            "analyze.merge_s": total.get("analyze.merge", 0.0),
            "analyze.report_s": total.get("analyze.report", 0.0),
            "fleet.submit_s": total.get("fleet.submit", 0.0),
            "fleet.ingest_s": own.get("fleet.ingest", 0.0),
            "fleet.wal_s": total.get("fleet.wal", 0.0),
            "fleet.commit_s": total.get("fleet.commit", 0.0),
            "fleet.query_s": total.get("fleet.query", 0.0),
            "fleet.diff_s": total.get("fleet.diff", 0.0),
        })
        for name, unit in LAYER_UNITS.items():
            if unit == "s":
                metrics[name] *= factor
        metrics["machine.mips"] = _ratio(
            metrics["machine.instructions"], metrics["machine.sim_s"] * 1e6)
        return metrics

    def span_durations(self, name: str) -> list:
        return [end - start for span_name, start, end, _parent
                in self.tracer.spans if span_name == name]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_ladder(program, inputs, configs, workdir: Path, tally: Tally,
                  layers: LayerTrace, speed: HostSpeed) -> dict:
    """MIPS of every accepted engine over one instance's passes; journals
    must match the first engine's byte for byte."""
    mips = {}
    reference = None
    for engine in ENGINE_CANDIDATES:
        try:
            collector.Collector(program, MACHINE,
                                replace(configs[0], engine=engine))
        except CollectError:
            continue  # not an engine this collector has
        first = layers.start()
        runs, seconds, wall = speed.timed(lambda: [
            _ladder_pass(program, replace(config, engine=engine), inputs,
                         workdir / f"ladder-{engine}-p{number}.er")
            for number, config in enumerate(configs)
        ])
        _total, own = layer_times(layers.tracer.spans, first)
        instructions = 0
        for experiment, directory, error in runs:
            if error:
                tally.record("collect", False, f"{directory.name}: {error}")
                continue
            tally.record("collect", not experiment.incomplete,
                         f"{directory.name}: "
                         f"{experiment.incomplete_reason()}")
            instructions += experiment.info.instructions
        digests = [journal_digests(directory) for _exp, directory, _err
                   in runs]
        sim_s = own.get("collect", 0.0) * seconds / wall
        mips[engine] = _ratio(instructions, sim_s * 1e6)
        if reference is None:
            reference = (engine, digests)
        else:
            tally.record("engines_identical", digests == reference[1],
                         f"{engine} journals differ from {reference[0]}'s")
    return mips


def _ladder_pass(program, config: CollectConfig, inputs, directory: Path):
    """(experiment, directory, "") or (None, directory, the error)."""
    try:
        return (collector.collect(program, MACHINE, config,
                                  input_longs=inputs, save_to=str(directory)),
                directory, "")
    except ReproError as error:
        return None, directory, str(error)


# ------------------------------------------------------------------- bench

@dataclass
class Context:
    """What every workload of one run shares."""

    seed: int
    trips: int
    workdir: Path
    tally: Tally
    tap: ProcessTap
    speed: HostSpeed

    def mcf_loop(self, sequence: Sequence) -> McfLoop:
        """Compile MCF and generate the seed's instances: the set-up."""
        program = mcf_workload.build_mcf(hwcprof=True, use_cache=False)
        return McfLoop(sequence, make_instances(self.seed, self.trips),
                       program, self.workdir, self.tally, self.tap,
                       self.speed)


class McfBench:
    """``mcf-profiled`` and ``mcf-clock``: the loop is the sequence."""

    setup_reps = 3

    def __init__(self, context: Context, sequence: Sequence) -> None:
        self.context = context
        self.sequence = sequence
        self.loop = None

    def setup(self) -> float:
        """Compile and generate the instances; returns normalized seconds."""
        self.loop, seconds, _wall = self.context.speed.timed(
            lambda: self.context.mcf_loop(self.sequence))
        return seconds

    def producer_stages(self, measured: list) -> list:
        return measured

    def oracle_dirs(self) -> list:
        return self.loop.all_dirs()

    def ladder(self, layers: LayerTrace) -> dict:
        loop, context = self.loop, self.context
        return engine_ladder(loop.program, loop.inputs[0], loop.configs[0],
                             context.workdir, context.tally, layers,
                             context.speed)


class FleetBench:
    """``fleet-ingest``: set-up collects the corpus, the loop ingests it."""

    #: the corpus is collected twice, so that the producer-side stage
    #: metrics are the mean of two passes rather than one
    setup_reps = 2

    def __init__(self, context: Context) -> None:
        self.context = context
        self.corpus_stages: list = []
        self.producer = None
        self.loop = None

    def setup(self) -> float:
        """Compile, generate the instances and collect the corpus with an
        ``mcf-profiled`` pass; returns normalized seconds."""
        context = self.context
        self.producer, seconds, _wall = context.speed.timed(
            lambda: context.mcf_loop(PROFILED))
        stages = self.producer.run_once()
        self.corpus_stages.append(stages)
        corpus = [
            (WINDOWS[index * len(WINDOWS) // INSTANCES], directory)
            for index, dirs in enumerate(self.producer.dirs)
            for directory in dirs
        ]
        keys = len(self.producer.dirs[0]) * len(WINDOWS)
        self.loop = FleetLoop(corpus, keys, context.workdir, context.tally,
                              context.speed)
        return seconds + sum(stages.values())

    def producer_stages(self, measured: list) -> list:
        return self.corpus_stages

    def oracle_dirs(self) -> list:
        return self.producer.all_dirs()

    def ladder(self, layers: LayerTrace) -> dict:
        return {}


def make_bench(workload: str, context: Context):
    if workload == "mcf-profiled":
        return McfBench(context, PROFILED)
    if workload == "mcf-clock":
        return McfBench(context, CLOCK)
    if workload == "fleet-ingest":
        return FleetBench(context)
    raise ValueError(f"unknown workload {workload!r}")


def attribution_exact_frac(directories) -> float:
    """Oracle exact-PC share over every backtracked event; 1.0 when the
    passes recorded none (a clock profile has nothing to attribute)."""
    report = oracle_experiments([str(d) for d in directories])
    events = sum(counts.events for counts in report.by_event.values())
    exact = sum(counts.exact_pc for counts in report.by_event.values())
    return exact / events if events else 1.0


def _median_stage(stages: list, name: str) -> float:
    return statistics.median(stage[name] for stage in stages)


def run(workload: str, seed: int, seconds: float, trace: bool, trips: int,
        workdir: Path, import_s: float, speed: HostSpeed,
        spans_path=None) -> tuple:
    """Run one workload; returns (tally, metrics as {name: value}).

    Every time is in normalized seconds (see :mod:`hostspeed`);
    ``import_s`` is the already normalized import time.
    """
    tally = Tally()
    layers = LayerTrace() if trace else None
    with ProcessTap() as tap:
        bench = make_bench(workload, Context(seed, trips, workdir, tally, tap,
                                             speed))
        setups = []
        for _rep in range(bench.setup_reps):
            if layers is None:
                setups.append(bench.setup())
            else:
                with layers:
                    setups.append(bench.setup())

        untraced, traced, per_layer = [], [], []
        begin = time.perf_counter()
        for rounds in itertools.count(1):
            untraced.append(_measure(bench))
            if layers is not None:
                with layers:
                    first = layers.start()
                    stages = _measure(bench)
                traced.append(stages)
                per_layer.append(layers.metrics(
                    first, bench.loop.facts,
                    stages["loop"] / bench.loop.wall))
                errors = accounting_errors(
                    layers.tracer.spans, ("collect", "analyze.reduce"), first)
                tally.record("span_accounting", not errors,
                             errors[0] if errors else "")
            # stop before a round that would overrun the measuring time
            elapsed = time.perf_counter() - begin
            passes = len(untraced) + len(traced)
            if passes >= MIN_PASSES and elapsed * (1 + 1 / rounds) > seconds:
                break

        if layers is not None:
            with layers:
                mips = bench.ladder(layers)
            metrics = {name: statistics.median(values[name]
                                               for values in per_layer)
                       for name in LAYER_UNITS}
            metrics["compiler.build_s"] = statistics.median(
                layers.span_durations("compiler.build")
            ) * statistics.median(speed.factors)
            for engine in ENGINE_CANDIDATES:
                metrics[f"machine.mips.{engine}"] = mips.get(engine, 0.0)
            metrics["tracing_overhead_frac"] = (
                _median_stage(traced, "loop")
                / _median_stage(untraced, "loop") - 1)
            if spans_path is not None:
                layers.tracer.write(spans_path)
            return tally, metrics

        producer = bench.producer_stages(untraced)
        exact = attribution_exact_frac(bench.oracle_dirs())
        attempted = tally.attempted
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "loop_s": _median_stage(untraced, "loop"),
            "collect_s": _median_stage(producer, "collect"),
            "erprint_cold_s": _median_stage(producer, "erprint_cold"),
            "erprint_warm_s": _median_stage(producer, "erprint_warm"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - tally.failed) / attempted,
            "attr_exact_frac": exact,
        }
        return tally, metrics


def _measure(bench) -> dict:
    """One measured pass of the loop, with its total as ``loop``."""
    stages = bench.loop.run_once()
    stages["loop"] = sum(stages.values())
    return stages
