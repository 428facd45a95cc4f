"""Data reduction: profile events -> attributed metrics (paper §2.3).

This is where the candidate trigger PC recorded at collection time is
**validated**: if any branch target lies in ``(candidate_pc, trap_pc]``
the analysis cannot know how execution reached the trap, so the events are
attributed to an artificial ``<branch target>`` PC and the data object
becomes ``(Unresolvable)``.  Events in modules compiled without hwcprof
become ``(Unascertainable)``; compiler temporaries ``(Unidentified)``;
memops the compiler left unannotated ``(Unspecified)``; modules with
memop info but no branch-target table ``(Unverifiable)``.

Scaling (§4 of the paper, "aggregating by cache line and page"):

* the reducer is a **streaming** pass — it folds the experiment's event
  rows, one event at a time, into weight sums per distinct attribution
  key and then attributes each key once, so a saved experiment opened
  with :meth:`Experiment.open_streaming` is never held in memory whole.
  The fold keeps one entry per distinct key, callstack included, beside
  the result tables and the per-event sample lists: at most one per
  event, and far fewer when callstacks repeat (30% of the clock ticks
  and 12% of the counter events of a profiled MCF run, DESIGN §8).  A
  key is converted to ints once, and each call path feeds the
  inclusive and caller/callee tables once;
* events with a recomputed effective address are additionally aggregated
  by **cache line** (the collecting machine's E$ line geometry) and by
  **virtual page** (each segment's page size), with per-line/per-page
  attribution back to the data objects and members that live there;
* :func:`reduce_experiments` fans independent saved experiments out over
  ``repro.parallel`` worker processes and merges the shards
  deterministically in job order — byte-identical to a sequential
  reduce — and consults the persistent per-directory reduction cache
  (:mod:`repro.analyze.cache`) so unchanged experiments skip the pass
  entirely.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple, Optional

from ..compiler import debuginfo
from ..compiler.program import Program
from ..errors import AnalysisError
from ..collect.experiment import Experiment, int_array
from ..isa.instructions import is_store
from ..parallel import parallel_map
from . import cache as reduction_cache
from .metrics import metric_sort_key
from .model import (
    DataObjectKey,
    ReducedData,
    SCALARS,
    UNASCERTAINABLE,
    UNIDENTIFIED,
    UNRESOLVABLE,
    UNSPECIFIED,
    UNVERIFIABLE,
)

#: segment bucket for effective addresses outside every mapped segment
UNMAPPED_SEGMENT = "<unmapped>"

#: page size assumed for unmapped addresses (matches the paper machine)
DEFAULT_PAGE_BYTES = 8192

#: E$ line size assumed for experiments recorded before the geometry was
#: saved in info.json (the paper machine's line size)
DEFAULT_LINE_BYTES = 512


class _Verdict(NamedTuple):
    """What a found event's (candidate PC, trap PC) pair decides."""

    blocker: Optional[int]         # branch target between them, else None
    object_class: str
    key: Optional[DataObjectKey]   # member row, for struct and scalar memops
    label: str                     # the data-space label: object[.member]
    store: bool                    # the candidate instruction is a store


class _Reducer:
    def __init__(self, experiment: Experiment) -> None:
        if experiment.program is None:
            raise AnalysisError("experiment has no program image")
        self.experiment = experiment
        self.program: Program = experiment.program
        info = experiment.info
        clock_hz = info.clock_hz or 900e6
        self.reduced = ReducedData(self.program, clock_hz)
        self.branch_targets = sorted(self.program.branch_targets)
        self._func_cache: dict[int, Optional[str]] = {}
        self._verdicts: dict[tuple, _Verdict] = {}
        #: (metric, leaf function, callstack) -> weight not yet fed to the
        #: call-path tables (see :meth:`_flush_call_paths`)
        self._call_paths: dict[tuple, float] = {}
        #: callstack -> the names of its callers
        self._callers: dict[tuple, list] = {}
        # data-space geometry: E$ line size from the collecting machine,
        # page size per segment from the loadobject map
        self.line_bytes = info.ecache_line_bytes or DEFAULT_LINE_BYTES
        self.reduced.line_bytes = self.line_bytes
        self._segments = sorted(
            (tuple(seg) for seg in info.segments), key=lambda seg: seg[1]
        )
        self._segment_bases = [seg[1] for seg in self._segments]
        #: multi-core experiments carry a thread axis; single-core ones
        #: don't, and their reductions must stay identical to pre-thread
        #: reductions (modulo the payload version)
        self.multi_core = getattr(info, "cores", 1) > 1

    # ------------------------------------------------------------- helpers

    def _function_name(self, pc: int) -> Optional[str]:
        if pc in self._func_cache:
            return self._func_cache[pc]
        func = self.program.function_at(pc)
        name = func.name if func else None
        self._func_cache[pc] = name
        return name

    def _branch_target_in(self, lo_exclusive: int, hi_inclusive: int) -> Optional[int]:
        """Highest branch target t with lo < t <= hi (nearest to the trap)."""
        targets = self.branch_targets
        idx = bisect_right(targets, hi_inclusive) - 1
        if idx >= 0 and targets[idx] > lo_exclusive:
            return targets[idx]
        return None

    def _attribute(self, metric_id: str, weight: float, pc: int,
                   callstack: tuple, artificial: bool = False) -> None:
        """Feed the per-PC tables now; the call-path tables (``total``,
        ``functions_incl``, ``caller_callee``) get the weight when
        :meth:`_flush_call_paths` runs, once per (metric, leaf function,
        callstack)."""
        reduced = self.reduced
        record = reduced.record_pc(pc)
        record.metrics.add(metric_id, weight)
        if artificial:
            record.is_branch_target_artifact = True
        func_name = self._function_name(pc)
        leaf = func_name or f"<unknown 0x{pc:x}>"
        reduced.functions[leaf].add(metric_id, weight)
        instr = self.program.instr_at(pc)
        if instr is not None and func_name is not None:
            reduced.lines[(func_name, instr.line)].add(metric_id, weight)
        paths = self._call_paths
        path = (metric_id, leaf, callstack)
        paths[path] = paths.get(path, 0.0) + weight

    def _flush_call_paths(self) -> None:
        """Feed the call-path tables from the groups :meth:`_attribute`
        collected, in first-occurrence order (DESIGN §8): inclusive
        metrics per function and caller/callee pairs along the recorded
        callstack."""
        reduced = self.reduced
        for (metric_id, leaf, callstack), weight in self._call_paths.items():
            reduced.total.add(metric_id, weight)
            chain = self._callers.get(callstack)
            if chain is None:
                chain = [self._function_name(call_site)
                         or f"<unknown 0x{call_site:x}>"
                         for call_site in callstack]
                self._callers[callstack] = chain
            chain = [*chain, leaf]
            # first-seen order: a set's order would follow string hashing
            for name in dict.fromkeys(chain):
                reduced.functions_incl[name].add(metric_id, weight)
            for caller, callee in zip(chain, chain[1:]):
                reduced.caller_callee[(caller, callee)].add(metric_id, weight)
        self._call_paths.clear()

    def _data_object_for(self, pc: int):
        """(object class, member key or None) for the instruction at pc."""
        instr = self.program.instr_at(pc)
        memop = instr.memop if instr is not None else None
        if memop is None:
            if self.program.hwcprof_enabled(pc):
                return UNSPECIFIED, None
            return UNASCERTAINABLE, None
        if memop.category == debuginfo.STRUCT:
            key = DataObjectKey(
                memop.object_class, memop.offset, memop.member, memop.member_type
            )
            return memop.object_class, key
        if memop.category == debuginfo.SCALAR:
            key = DataObjectKey(SCALARS, 0, memop.object_class, memop.object_class)
            return SCALARS, key
        # temporaries and named locals: the paper's compiler-temporary bucket
        return UNIDENTIFIED, None

    def _account_data_object(self, metric_id: str, weight: float,
                             object_class: str, key) -> None:
        self.reduced.data_objects[object_class].add(metric_id, weight)
        if key is not None:
            self.reduced.data_members[key].add(metric_id, weight)

    def _verdict(self, candidate, trap_pc) -> _Verdict:
        """Validate a found candidate and classify its data object.

        Both depend on nothing but the (candidate, trap PC) pair, so each
        pair is decided once per reduction, whether it is given as ints
        or as a journal row's digits.
        """
        pair = (candidate, trap_pc)
        verdict = self._verdicts.get(pair)
        if verdict is None:
            verdict = self._verdicts[pair] = self._decide(int(candidate),
                                                          int(trap_pc))
        return verdict

    def _decide(self, candidate: int, trap_pc: int) -> _Verdict:
        program = self.program
        blocker, key = None, None
        if program.has_branch_info(candidate):
            blocker = self._branch_target_in(candidate, trap_pc)
            if blocker is not None:
                object_class = UNRESOLVABLE
            else:
                object_class, key = self._data_object_for(candidate)
        elif program.hwcprof_enabled(candidate):
            # memop info exists but validation is impossible
            object_class = UNVERIFIABLE
        else:
            object_class = UNASCERTAINABLE
        label = f"{object_class}.{key.member}" if key is not None else object_class
        instr = program.instr_at(candidate)
        return _Verdict(blocker, object_class, key, label,
                        instr is not None and is_store(instr))

    # ------------------------------------------------------ data-space axes

    def _page_of(self, ea: int) -> tuple[str, int]:
        """(segment name, page base address) of one effective address."""
        idx = bisect_right(self._segment_bases, ea) - 1
        if idx >= 0:
            name, base, size, page_bytes = self._segments[idx][:4]
            if base <= ea < base + size:
                return name, base + ((ea - base) // page_bytes) * page_bytes
        return UNMAPPED_SEGMENT, (ea // DEFAULT_PAGE_BYTES) * DEFAULT_PAGE_BYTES

    def _account_data_space(self, metric_id: str, weight: float, ea: int,
                            label: str, writer: Optional[int]) -> None:
        """Aggregate one addressed event by cache line and virtual page,
        remembering which data object/member the address belonged to."""
        reduced = self.reduced
        line_base = (ea // self.line_bytes) * self.line_bytes
        reduced.cache_lines[line_base].add(metric_id, weight)
        segment, page_base = self._page_of(ea)
        reduced.pages[(segment, page_base)].add(metric_id, weight)
        reduced.cache_line_objects[(line_base, label)].add(metric_id, weight)
        reduced.page_objects[(segment, page_base, label)].add(metric_id, weight)
        if writer is not None:
            # write-side sharing axis: an addressed event whose validated
            # trigger is a *store* marks its thread as a writer of the
            # cache line — two or more distinct writer threads on one line
            # is the false-sharing signature
            reduced.cache_line_writers[(line_base, writer)].add(metric_id, weight)

    # --------------------------------------------------------------- passes

    def run(self) -> ReducedData:
        """Execute the pass over the whole unit and return the result.

        Each journal is folded in one streaming pass into weight sums per
        distinct key, and each key is then attributed once, in
        first-occurrence order — the tables come out as a per-event pass
        would leave them (DESIGN §8).
        """
        experiment = self.experiment
        info = experiment.info
        reduced = self.reduced

        # fold the events first: for open_streaming experiments the
        # salvage tallies (and hence the incomplete flag recorded below)
        # are only final once the iterators are exhausted
        clock_weight = info.clock_interval_cycles
        for (pc, callstack, thread), ticks in self._fold_clock().items():
            weight = clock_weight * ticks
            self._attribute("user_cpu", weight, pc, callstack)
            if self.multi_core:
                reduced.threads[thread].add("user_cpu", weight)
        self._flush_call_paths()
        for key, weight in self._fold_hwc().items():
            self._reduce_hwc(key, weight)
        self._flush_call_paths()

        reduced.machine_totals = dict(info.totals)
        reduced.segments = [tuple(seg) for seg in info.segments]
        reduced.allocations = [tuple(a) for a in info.allocations]
        reduced.counter_info = list(info.counters)
        reduced.incomplete = experiment.incomplete
        reduced.incomplete_reason = experiment.incomplete_reason()

        present = {m for m in reduced.total}
        reduced.metric_ids = sorted(present, key=metric_sort_key)
        return reduced

    # The folds read event rows (``Experiment.iter_*_rows``): a field is
    # its value, or a canonical journal line's text of it, which int()
    # reads alike; None stands for null or a field the line left off.
    # Each distinct key is folded as read and converted to ints once, at
    # the end.  A key read as text and the same key read as values (a
    # line off the canonical form) convert to one int key; its weight is
    # the exact sum of both, since every weight is an integer, and it
    # keeps the place of its first line.

    def _fold_clock(self) -> dict:
        """(pc, callstack, thread) -> ticks over the clock journal."""
        multi_core = self.multi_core
        read: dict = {}
        for pc, _cycle, callstack, _core, thread in \
                self.experiment.iter_clock_rows():
            key = (pc, callstack, thread if multi_core else None)
            read[key] = read.get(key, 0) + 1
        ticks: dict = {}
        for (pc, callstack, thread), count in read.items():
            key = (int(pc), int_array(callstack),
                   0 if thread is None else int(thread))
            ticks[key] = ticks.get(key, 0) + count
        return ticks

    def _fold_hwc(self) -> dict:
        """(event, status, candidate PC, trap PC, callstack, thread) ->
        summed weight over the counter journals.  The sample lists and the
        data-space tables of addressed events that pass validation are
        fed here, per event, in stream order."""
        reduced = self.reduced
        multi_core = self.multi_core
        verdict = self._verdict
        account_data_space = self._account_data_space
        latency_samples = reduced.latency_samples
        address_samples = reduced.address_samples
        read: dict = {}
        for (_counter, metric_id, weight, trap_pc, candidate, ea, status,
             _reason, _cycle, callstack, _coalesced, latency, scale, _core,
             thread) in self.experiment.iter_hwc_rows():
            # a time-multiplexed counter was live for 1/scale of the run, so
            # each sample stands for scale times its weight (an estimate —
            # the journal header carries the multiplexed flag)
            weight = float(weight)
            if scale is not None:
                weight *= int(scale)
            if latency is not None:
                latency_samples[metric_id].append((int(latency), weight))
            if status == "found" and candidate is not None:
                if ea is not None:
                    blocker, _cls, _key, label, store = verdict(candidate,
                                                                trap_pc)
                    if blocker is None:
                        ea = int(ea)
                        address_samples[metric_id].append((ea, weight))
                        account_data_space(
                            metric_id, weight, ea, label,
                            (0 if thread is None else int(thread))
                            if multi_core and store else None,
                        )
            else:
                # a disabled or failed search is charged to the trap PC:
                # its key drops the candidate
                status = "disabled" if status == "disabled" else "not_found"
                candidate = None
            key = (metric_id, status, candidate, trap_pc, callstack,
                   thread if multi_core else None)
            read[key] = read.get(key, 0.0) + weight
        attribution: dict = {}
        for (metric_id, status, candidate, trap_pc, callstack, thread), \
                weight in read.items():
            key = (metric_id, status,
                   None if candidate is None else int(candidate),
                   int(trap_pc), int_array(callstack),
                   0 if thread is None else int(thread))
            attribution[key] = attribution.get(key, 0.0) + weight
        return attribution

    def _reduce_hwc(self, key: tuple, weight: float) -> None:
        """Attribute one attribution key's summed counter weight."""
        metric_id, status, candidate, trap_pc, callstack, thread = key
        if self.multi_core:
            self.reduced.threads[thread].add(metric_id, weight)

        if status == "disabled":
            # no backtracking requested: raw skidded PC, no data objects
            self._attribute(metric_id, weight, trap_pc, callstack)
            return

        if candidate is None:
            # collector walked back and found nothing
            self._attribute(metric_id, weight, trap_pc, callstack)
            self._account_data_object(metric_id, weight, UNRESOLVABLE, None)
            return

        blocker, object_class, member, _label, _store = self._verdict(
            candidate, trap_pc
        )
        if blocker is not None:
            # validation failed: artificial <branch target> PC
            self._attribute(metric_id, weight, blocker, callstack,
                            artificial=True)
            self._account_data_object(metric_id, weight, UNRESOLVABLE, None)
            return
        self._attribute(metric_id, weight, candidate, callstack)
        self._account_data_object(metric_id, weight, object_class, member)

        # annotate the PC record with its data object (for the PC report)
        record = self.reduced.pcs[candidate]
        if not record.data_object:
            object_class, member = self._data_object_for(candidate)
            record.data_object = object_class
            if member is not None:
                record.member = member.member


def reduce_experiment(experiment: Experiment) -> ReducedData:
    """Reduce one experiment to attributed metrics."""
    return _Reducer(experiment).run()


def reduce_path(directory, strict: bool = False,
                use_cache: bool = True) -> ReducedData:
    """Reduce one *saved* experiment directory, streaming and cached.

    The journal is parsed one event at a time (bounded memory); with
    ``use_cache`` the persistent per-directory cache is consulted first
    and refreshed afterwards — a complete, undamaged experiment is only
    ever reduced once until its contents change.

    The result is always **detached** (no program image), whether it
    came from the cache or a fresh pass: a cache hit never unpickles
    ``program.pkl``.  :func:`reduce_experiments` points the merged
    result at one directory's image, which is unpickled only when a
    report reads :attr:`ReducedData.program`.
    """
    path = Path(directory)
    if use_cache:
        cached = reduction_cache.load(path)
        if cached is not None:
            return cached
    experiment = Experiment.open_streaming(path, strict=strict)
    reduced = _Reducer(experiment).run()
    if use_cache:
        reduction_cache.store(path, reduced)
    return reduced.detach()


def _reduce_path_task(task) -> ReducedData:
    """Worker-process entry: reduce one directory (detached, so it ships
    back without the program image)."""
    directory, strict, use_cache = task
    return reduce_path(directory, strict=strict, use_cache=use_cache)


def reduce_experiments(experiments, parallelism: Optional[int] = None,
                       strict: bool = False,
                       use_cache: bool = True) -> ReducedData:
    """Reduce and merge several experiments over the same program (the
    paper's case study merges two collect runs).

    Items may be :class:`Experiment` objects or paths to saved experiment
    directories.  Saved directories reduce via the streaming, cached path
    and — when ``parallelism`` allows — are fanned out over
    ``repro.parallel`` worker processes; shards are merged in item order,
    so the result is byte-identical to a sequential reduce regardless of
    worker scheduling.
    """
    items = list(experiments)
    if not items:
        raise AnalysisError("no experiments to reduce")
    reduced_by_index: dict[int, ReducedData] = {}
    path_tasks: list[tuple[int, str]] = []
    for index, item in enumerate(items):
        if isinstance(item, (str, os.PathLike)):
            path_tasks.append((index, os.fspath(item)))
        else:
            reduced_by_index[index] = reduce_experiment(item)
    if path_tasks:
        shards = parallel_map(
            _reduce_path_task,
            [(path, strict, use_cache) for _index, path in path_tasks],
            parallelism=parallelism if parallelism is not None else 1,
        )
        for (index, _path), shard in zip(path_tasks, shards):
            reduced_by_index[index] = shard
    # every shard is a fresh reduction this call owns: fold the rest into
    # the first in place instead of copying both sides of each merge
    merged = reduced_by_index[0]
    for index in range(1, len(items)):
        merged.absorb(reduced_by_index[index])
    if len(path_tasks) == len(items):
        # saved shards come back detached: the first directory's image,
        # unpickled only if a report reads it
        merged.attach(Path(path_tasks[0][1]) / "program.pkl")
    return merged


def merge_reduced(shards) -> ReducedData:
    """Fold reductions together in iteration order, leaving each shard as
    it was (:meth:`ReducedData.merged_with`).

    Shards may be detached (program-less); mixing reductions of
    different programs raises ``ValueError``.
    """
    merged: Optional[ReducedData] = None
    for shard in shards:
        merged = shard if merged is None else merged.merged_with(shard)
    if merged is None:
        raise AnalysisError("no reductions to merge")
    return merged


__all__ = [
    "merge_reduced",
    "reduce_experiment",
    "reduce_experiments",
    "reduce_path",
    "DEFAULT_LINE_BYTES",
    "DEFAULT_PAGE_BYTES",
    "UNMAPPED_SEGMENT",
]
