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

* the reducer is a **streaming** pass — it consumes the experiment's
  event iterators one event at a time, so a saved experiment opened with
  :meth:`Experiment.open_streaming` reduces in memory bounded by the
  result tables, not the journal size;
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
from typing import Optional

from ..compiler import debuginfo
from ..compiler.program import Program
from ..errors import AnalysisError
from ..collect.experiment import Experiment
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
        reduced = self.reduced
        reduced.total.add(metric_id, weight)
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
        # inclusive + caller/callee attribution via the recorded callstack
        chain: list[str] = []
        for call_site in callstack:
            caller = self._function_name(call_site)
            chain.append(caller or f"<unknown 0x{call_site:x}>")
        chain.append(leaf)
        for name in set(chain):
            reduced.functions_incl[name].add(metric_id, weight)
        for caller, callee in zip(chain, chain[1:]):
            reduced.caller_callee[(caller, callee)].add(metric_id, weight)

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
                            object_class: str, key) -> None:
        """Aggregate one addressed event by cache line and virtual page,
        remembering which data object/member the address belonged to."""
        reduced = self.reduced
        line_base = (ea // self.line_bytes) * self.line_bytes
        reduced.cache_lines[line_base].add(metric_id, weight)
        segment, page_base = self._page_of(ea)
        reduced.pages[(segment, page_base)].add(metric_id, weight)
        label = f"{object_class}.{key.member}" if key is not None else object_class
        reduced.cache_line_objects[(line_base, label)].add(metric_id, weight)
        reduced.page_objects[(segment, page_base, label)].add(metric_id, weight)

    # --------------------------------------------------------------- passes

    def run(self) -> ReducedData:
        """Execute the pass over the whole unit and return the result."""
        experiment = self.experiment
        info = experiment.info
        reduced = self.reduced

        # stream the events first: for open_streaming experiments the
        # salvage tallies (and hence the incomplete flag recorded below)
        # are only final once the iterators are exhausted
        clock_weight = info.clock_interval_cycles
        for event in experiment.iter_clock_events():
            self._attribute("user_cpu", clock_weight, event.pc, event.callstack)
            if self.multi_core:
                reduced.threads[event.thread].add("user_cpu", clock_weight)
        for event in experiment.iter_hwc_events():
            self._reduce_hwc(event)

        reduced.machine_totals = dict(info.totals)
        reduced.segments = [tuple(seg) for seg in info.segments]
        reduced.allocations = [tuple(a) for a in info.allocations]
        reduced.counter_info = list(info.counters)
        reduced.incomplete = experiment.incomplete
        reduced.incomplete_reason = experiment.incomplete_reason()

        present = {m for m in reduced.total}
        reduced.metric_ids = sorted(present, key=metric_sort_key)
        return reduced

    def _reduce_hwc(self, event) -> None:
        metric_id = event.event
        # a time-multiplexed counter was live for 1/scale of the run, so
        # each sample stands for scale times its weight (an estimate —
        # the journal header carries the multiplexed flag)
        weight = float(event.weight) * event.scale
        program = self.program

        if self.multi_core:
            self.reduced.threads[event.thread].add(metric_id, weight)

        if event.latency is not None:
            self.reduced.latency_samples[metric_id].append(
                (event.latency, weight)
            )

        if event.status == "disabled":
            # no backtracking requested: raw skidded PC, no data objects
            self._attribute(metric_id, weight, event.trap_pc, event.callstack)
            return

        if event.status != "found" or event.candidate_pc is None:
            # collector walked back and found nothing
            self._attribute(metric_id, weight, event.trap_pc, event.callstack)
            self._account_data_object(metric_id, weight, UNRESOLVABLE, None)
            return

        candidate = event.candidate_pc
        if program.has_branch_info(candidate):
            blocker = self._branch_target_in(candidate, event.trap_pc)
            if blocker is not None:
                # validation failed: artificial <branch target> PC
                self._attribute(metric_id, weight, blocker, event.callstack,
                                artificial=True)
                self._account_data_object(metric_id, weight, UNRESOLVABLE, None)
                return
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = self._data_object_for(candidate)
        elif program.hwcprof_enabled(candidate):
            # memop info exists but validation is impossible
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = UNVERIFIABLE, None
        else:
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = UNASCERTAINABLE, None
        self._account_data_object(metric_id, weight, object_class, key)

        if event.effective_address is not None:
            self.reduced.address_samples[metric_id].append(
                (event.effective_address, weight)
            )
            self._account_data_space(
                metric_id, weight, event.effective_address, object_class, key
            )
            if self.multi_core:
                # write-side sharing axis: an addressed event whose
                # validated trigger is a *store* marks its thread as a
                # writer of the cache line — two or more distinct writer
                # threads on one line is the false-sharing signature
                instr = program.instr_at(candidate)
                if instr is not None and is_store(instr):
                    line_base = (
                        event.effective_address // self.line_bytes
                    ) * self.line_bytes
                    self.reduced.cache_line_writers[
                        (line_base, event.thread)
                    ].add(metric_id, weight)

        # annotate the PC record with its data object (for the PC report)
        record = self.reduced.pcs.get(candidate)
        if record is not None and not record.data_object:
            object_class, key = self._data_object_for(candidate)
            record.data_object = object_class
            if key is not None:
                record.member = key.member


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
    ``program.pkl``, and callers attach one shared image via
    :meth:`ReducedData.attach` when a report needs it.
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
    back cheaply and the parent attaches its own program image)."""
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
        # every shard comes back detached: attach one image to all of them
        program = next(
            (loaded.program for loaded in reduced_by_index.values()), None
        )
        if program is None:
            program = Program.load(Path(path_tasks[0][1]) / "program.pkl")
        for (index, _path), shard in zip(path_tasks, shards):
            reduced_by_index[index] = shard.attach(program)
    return merge_reduced(reduced_by_index[index] for index in range(len(items)))


def merge_reduced(shards) -> ReducedData:
    """Fold reductions together in iteration order.

    The shared merge tail of :func:`reduce_experiments` and the fleet
    aggregate store.  Shards may be detached (program-less); mixing
    reductions of different programs raises ``ValueError`` via
    :meth:`ReducedData.merged_with`.
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
