"""The PGO search driver: profile -> propose -> apply -> re-profile.

This closes the loop the paper left to a human (§3.3/§4): the advisor
reads a data-space profile and proposes transforms; the driver applies
each candidate through the compiler (source rewriting, prefetch
feedback) and the collector (heap page size), re-profiles over parallel
collect jobs, and greedily keeps the candidate with the best measured
cycle win above a configurable threshold — then re-profiles the winner
and asks the advisor again, until no candidate wins, the round limit is
reached, or the trial budget runs out.

Every trial is a full multi-pass profile (the same two counter passes as
the paper's MCF case study) run through
:func:`repro.parallel.collect_many` and saved under
``<outdir>/trials/``; scoring refuses trials whose experiments came back
damaged or ``(Incomplete)`` — partial counter data is not ground truth
(see :mod:`repro.layoutopt.advisor`'s estimate marking).

Determinism is the load-bearing property: the simulator is
deterministic, candidate generation is a pure function of the profile,
and the journal records are canonical — so a search killed at any trial
and resumed (``repro-autotune resume``) re-derives the identical
candidate sequence, reuses every journaled trial without re-simulating,
and appends byte-for-byte what an uninterrupted search would have
written (see :mod:`repro.autotune.journal`).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from ..analyze.feedback import PrefetchHint, make_prefetch_feedback, unmatched_feedback
from ..analyze.reduce import reduce_experiments
from ..collect.collector import CollectConfig
from ..compiler.program import build_executable
from ..config import MachineConfig, scaled_config
from ..errors import AutotuneError, ReproError, UnsupportedTransform
from ..layoutopt.advisor import LayoutAdvisor
from ..parallel import CollectJob, collect_many
from .journal import SearchJournal
from .rewrite import apply_transforms
from .transforms import (
    PageSize,
    Prefetch,
    StructReorder,
    StructSplit,
    transform_from_dict,
    transform_key,
    transform_to_dict,
)
from .workloads import TunableWorkload, machine_fingerprint

META_VERSION = 1


@dataclass
class SearchOptions:
    """Search-space and execution knobs.

    The first group defines the search (journaled in the meta record;
    resume refuses a mismatch); ``budget``/``jobs`` are execution knobs
    that cannot change the result — the budget only decides where the
    search pauses, and profiles are bit-identical across parallelism.
    """

    #: minimum fractional cycle win for a candidate to be kept
    threshold: float = 0.02
    #: DTLB cost fraction above which big pages are proposed
    page_threshold: float = 0.02
    #: prefetch-feedback selection (see make_prefetch_feedback)
    prefetch_min_percent: float = 2.0
    prefetch_top: int = 8
    #: how many hot structures get reorder candidates per round
    max_structs: int = 2
    max_rounds: int = 6

    #: global cap on *simulated* trials (journaled trials count; resume
    #: with a larger budget continues where the smaller one paused)
    budget: Optional[int] = None
    #: collect/reduce parallelism (passes per trial run concurrently)
    jobs: int = 2

    def meta(self) -> dict:
        return {
            "threshold": self.threshold,
            "page_threshold": self.page_threshold,
            "prefetch_min_percent": self.prefetch_min_percent,
            "prefetch_top": self.prefetch_top,
            "max_structs": self.max_structs,
            "max_rounds": self.max_rounds,
        }


@dataclass
class SearchResult:
    """What the search found (or where it paused)."""

    outdir: str
    baseline_cycles: int = 0
    best_cycles: int = 0
    chain: list = field(default_factory=list)
    rounds: int = 0
    trials_simulated: int = 0
    paused: bool = False
    complete: bool = False

    @property
    def speedup(self) -> float:
        if not self.best_cycles:
            return 1.0
        return self.baseline_cycles / self.best_cycles

    @property
    def improvement(self) -> float:
        if not self.baseline_cycles:
            return 0.0
        return (self.baseline_cycles - self.best_cycles) / self.baseline_cycles


class _BudgetExhausted(Exception):
    """Internal: the trial budget ran out; pause the search."""


class AutotuneSearch:
    """One resumable search over a workload's transform space."""

    def __init__(
        self,
        outdir,
        workload: TunableWorkload,
        machine: Optional[MachineConfig] = None,
        options: Optional[SearchOptions] = None,
        log=None,
    ) -> None:
        self.outdir = Path(outdir)
        self.workload = workload
        self.machine = machine or scaled_config()
        self.options = options or SearchOptions()
        self.journal = SearchJournal(self.outdir)
        self._log = log or (lambda message: None)
        # replay state, filled by run()
        self._trials_by_id: dict[int, dict] = {}
        self._accepts_by_round: dict[int, dict] = {}
        self._result_record: Optional[dict] = None
        self._simulated = 0

    # ------------------------------------------------------------- meta

    def _meta_record(self) -> dict:
        return {
            "type": "meta",
            "version": META_VERSION,
            "workload": dict(self.workload.meta),
            "machine": machine_fingerprint(self.machine),
            "search": self.options.meta(),
        }

    def _load_journal(self) -> None:
        records = self.journal.recover()
        self._trials_by_id = {}
        self._accepts_by_round = {}
        self._result_record = None
        if not records:
            self.journal.append(self._meta_record())
            return
        head, want = records[0], self._meta_record()
        if head.get("type") != "meta":
            raise AutotuneError(f"{self.journal.path}: first record is not meta")
        if head != want:
            for key in ("workload", "machine", "search", "version"):
                if head.get(key) != want.get(key):
                    raise AutotuneError(
                        f"{self.journal.path}: journal {key} does not match "
                        f"this search — resume with the original configuration"
                    )
            raise AutotuneError(f"{self.journal.path}: meta mismatch")
        for record in records[1:]:
            kind = record.get("type")
            if kind == "trial":
                self._trials_by_id[record["id"]] = record
            elif kind == "accept":
                self._accepts_by_round[record["round"]] = record
            elif kind == "result":
                self._result_record = record
            else:
                raise AutotuneError(
                    f"{self.journal.path}: unknown record type {kind!r}"
                )

    # ------------------------------------------------------------ trials

    def _pass_configs(self, trial_id: int) -> list:
        return [
            CollectConfig(
                clock_profiling=False,
                counters=list(counters),
                name=f"autotune-t{trial_id:04d}-p{index}",
            )
            for index, counters in enumerate(self.workload.counter_passes)
        ]

    def _trial_dir(self, trial_id: int, pass_index: int) -> Path:
        return self.outdir / "trials" / f"t{trial_id:04d}-p{pass_index}.er"

    def _build(self, trial_id: int, transforms):
        """(program, heap_page_bytes, unmatched_hint_names) for a chain."""
        source, heap_page_bytes, hint_triples = apply_transforms(
            self.workload.source, transforms
        )
        hints = [
            PrefetchHint(function, object_class, member, 0.0)
            for function, object_class, member in hint_triples
        ]
        program = build_executable(
            source,
            name=f"{self.workload.name}_t{trial_id:04d}",
            hwcprof=True,
            prefetch_feedback=hints or None,
        )
        unmatched = [
            f"{hint.function}:{hint.member}"
            for hint in unmatched_feedback(hints, program)
        ]
        return program, heap_page_bytes, unmatched

    def _simulate(self, trial_id: int, transforms):
        """Run the profile passes for one chain into its trial directories.

        Returns ``(status, cycles, unmatched)``: the passes report through
        their :class:`repro.parallel.JobResult` and saved directories.
        """
        program, heap_page_bytes, unmatched = self._build(trial_id, transforms)
        configs = self._pass_configs(trial_id)
        for index in range(len(configs)):
            # a killed run can leave a partial trial directory behind
            shutil.rmtree(self._trial_dir(trial_id, index), ignore_errors=True)
        (self.outdir / "trials").mkdir(parents=True, exist_ok=True)
        jobs = [
            CollectJob(
                config=config,
                program=program,
                input_longs=list(self.workload.input_longs),
                machine=self.machine,
                heap_page_bytes=heap_page_bytes,
                save_to=str(self._trial_dir(trial_id, index)),
            )
            for index, config in enumerate(configs)
        ]
        results = collect_many(jobs, parallelism=self.options.jobs)
        if any(not result.ok or result.incomplete for result in results):
            # partial DTLB/member data is not ground truth: refuse to score
            return "damaged", None, unmatched
        cycles = int(results[0].totals.get("cycles", 0))
        if not cycles:
            return "damaged", None, unmatched
        return "ok", cycles, unmatched

    def _trial(self, trial_id: int, transforms, round_no: int) -> dict:
        """Execute (or replay) one trial; returns its journal record."""
        chain = [transform_to_dict(t) for t in transforms]
        replayed = self._trials_by_id.get(trial_id)
        if replayed is not None:
            if replayed.get("chain") != chain:
                raise AutotuneError(
                    f"journal trial {trial_id} tried a different chain — "
                    f"the journal does not match this search configuration"
                )
            if replayed["status"] in ("ok", "damaged"):
                self._simulated += 1
            return replayed

        if self._budget_left() <= 0:
            raise _BudgetExhausted()
        record = {
            "type": "trial",
            "id": trial_id,
            "round": round_no,
            "chain": chain,
            "status": "ok",
            "cycles": None,
        }
        try:
            status, cycles, unmatched = self._simulate(trial_id, transforms)
            record["status"] = status
            record["cycles"] = cycles
            if unmatched:
                record["unmatched_hints"] = unmatched
            self._simulated += 1
        except UnsupportedTransform as error:
            record["status"] = "unsupported"
            record["detail"] = str(error)
        self.journal.append(record)
        self._trials_by_id[trial_id] = record
        label = transforms[-1].describe() if transforms else "baseline"
        self._log(
            f"trial {trial_id}: {label} -> "
            + (f"{record['cycles']} cycles" if record["cycles"]
               else record["status"])
        )
        return record

    def _budget_left(self) -> int:
        if self.options.budget is None:
            return 1 << 30
        return self.options.budget - self._simulated

    def _reduced_for(self, trial_id: int, transforms):
        """The merged reduction of one completed trial's experiments.

        Reads the saved trial directories (fast on resume, cached); when
        one is missing or damaged, the trial is re-simulated into them,
        which is bit-identical by construction, and they are read again.
        """
        passes = len(self.workload.counter_passes)
        directories = [self._trial_dir(trial_id, i) for i in range(passes)]
        if all(d.exists() for d in directories):
            try:
                reduced = reduce_experiments(
                    directories, parallelism=self.options.jobs, strict=True,
                )
                if not reduced.incomplete:
                    return reduced
            except ReproError:
                pass
        status, _cycles, _unmatched = self._simulate(trial_id, transforms)
        if status != "ok":
            raise AutotuneError(
                f"trial {trial_id} re-profiled damaged; cannot derive "
                f"candidates from a partial profile"
            )
        reduced = reduce_experiments(
            directories, parallelism=self.options.jobs, strict=True,
        )
        if reduced.incomplete:
            raise AutotuneError(
                f"trial {trial_id}: profile is (Incomplete); refusing to "
                f"advise from partial data"
            )
        return reduced

    # -------------------------------------------------------- candidates

    def _hot_structs(self, reduced) -> list:
        weights: dict[str, float] = {}
        for object_class, vector in reduced.data_objects.items():
            if not object_class.startswith("structure:"):
                continue
            if object_class.split(":", 1)[-1] not in reduced.program.structs:
                continue
            weight = 0.0
            for metric, factor in LayoutAdvisor.METRIC_WEIGHTS.items():
                weight += factor * reduced.percent(metric, vector.get(metric, 0.0))
            if weight > 0:
                weights[object_class] = weight
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        return [object_class for object_class, _ in
                ranked[: self.options.max_structs]]

    def generate_candidates(self, reduced, chain) -> list:
        """Deterministic candidate transforms for the current best chain."""
        if getattr(reduced, "incomplete", False):
            raise AutotuneError(
                "refusing to derive candidates from an (Incomplete) profile"
            )
        advisor = LayoutAdvisor(
            reduced,
            dcache_line=self.machine.dcache.line_bytes,
            ecache_line=self.machine.ecache.line_bytes,
            dtlb_cost_cycles=self.machine.dtlb.miss_cycles,
        )
        touched_structs = {
            t.struct for t in chain if isinstance(t, (StructReorder, StructSplit))
        }
        has_prefetch = any(isinstance(t, Prefetch) for t in chain)
        chain_keys_set = {transform_key(t) for t in chain}
        candidates: list = []
        for object_class in self._hot_structs(reduced):
            struct_name = object_class.split(":", 1)[-1]
            if struct_name in touched_structs:
                continue
            advice = advisor.advise_struct(object_class)
            pad_to = (
                advice.proposed_size
                if advice.proposed_size != advice.current_size
                else 0
            )
            stride = advice.proposed_size
            align = (
                stride
                if stride and self.machine.ecache.line_bytes % stride == 0
                else 0
            )
            candidates.append(
                StructReorder(
                    struct=struct_name,
                    order=tuple(advice.proposed_order),
                    pad_to=pad_to,
                    align=align,
                )
            )
            hot = advice.hot_line_members
            if hot and 3 * len(hot) <= len(advice.proposed_order):
                candidates.append(
                    StructSplit(struct=struct_name, hot=tuple(hot))
                )
        page = advisor.advise_page_size(threshold=self.options.page_threshold)
        if page is not None and not page.estimate:
            candidates.append(PageSize(bytes_=page.recommended_page_bytes))
        if not has_prefetch:
            hints = make_prefetch_feedback(
                reduced,
                min_percent=self.options.prefetch_min_percent,
                top=self.options.prefetch_top,
            )
            if hints:
                candidates.append(
                    Prefetch(
                        hints=tuple(sorted(
                            (h.function, h.object_class, h.member)
                            for h in hints
                        ))
                    )
                )
        unique: list = []
        seen: set = set()
        for candidate in candidates:
            key = transform_key(candidate)
            if key in seen or key in chain_keys_set:
                continue
            seen.add(key)
            unique.append(candidate)
        return unique

    # -------------------------------------------------------------- run

    def run(self) -> SearchResult:
        """Run (or resume) the search to completion or budget pause."""
        self._load_journal()
        self._simulated = 0
        result = SearchResult(outdir=str(self.outdir))

        try:
            baseline = self._trial(0, [], 0)
        except _BudgetExhausted:
            result.paused = True
            return result
        if baseline["status"] != "ok":
            raise AutotuneError(
                f"baseline profile is {baseline['status']}; the search "
                f"cannot score against a damaged baseline"
            )
        result.baseline_cycles = baseline["cycles"]
        result.best_cycles = baseline["cycles"]

        chain: list = []
        best_trial_id = 0
        next_trial_id = 1
        try:
            for round_no in range(1, self.options.max_rounds + 1):
                reduced = self._reduced_for(best_trial_id,
                                            list(chain))
                candidates = self.generate_candidates(reduced, chain)
                if not candidates:
                    break
                round_records = []
                for candidate in candidates:
                    record = self._trial(
                        next_trial_id, chain + [candidate], round_no
                    )
                    round_records.append((next_trial_id, candidate, record))
                    next_trial_id += 1
                best = None
                for trial_id, candidate, record in round_records:
                    if record["status"] != "ok":
                        continue
                    improvement = (
                        (result.best_cycles - record["cycles"])
                        / result.best_cycles
                    )
                    if improvement < self.options.threshold:
                        continue
                    if best is None or record["cycles"] < best[2]["cycles"]:
                        best = (trial_id, candidate, record)
                if best is None:
                    break
                trial_id, candidate, record = best
                improvement = (
                    (result.best_cycles - record["cycles"])
                    / result.best_cycles
                )
                accept = {
                    "type": "accept",
                    "round": round_no,
                    "trial": trial_id,
                    "cycles": record["cycles"],
                    "improvement": round(improvement, 6),
                }
                replayed = self._accepts_by_round.get(round_no)
                if replayed is not None:
                    if replayed != accept:
                        raise AutotuneError(
                            f"journal accept for round {round_no} does not "
                            f"match the replayed search"
                        )
                else:
                    self.journal.append(accept)
                    self._accepts_by_round[round_no] = accept
                chain.append(candidate)
                best_trial_id = trial_id
                result.best_cycles = record["cycles"]
                result.rounds = round_no
                self._log(
                    f"round {round_no}: kept {candidate.describe()} "
                    f"({improvement:.1%} win, {record['cycles']} cycles)"
                )
        except _BudgetExhausted:
            result.paused = True
            result.chain = list(chain)
            result.trials_simulated = self._simulated
            self._log("budget exhausted — resume to continue the search")
            return result

        result.chain = list(chain)
        result.trials_simulated = self._simulated
        result.complete = True
        final = {
            "type": "result",
            "baseline_cycles": result.baseline_cycles,
            "best_cycles": result.best_cycles,
            "best_trial": best_trial_id,
            "chain": [transform_to_dict(t) for t in chain],
            "rounds": result.rounds,
            "speedup": round(result.speedup, 6),
        }
        if self._result_record is not None:
            if self._result_record != final:
                raise AutotuneError(
                    "journal result record does not match the replayed search"
                )
        else:
            self.journal.append(final)
            self._result_record = final
        return result


def search_summary(records) -> dict:
    """Digest a journal's records for reporting (no simulation).

    Returns ``{meta, trials, accepts, result, baseline_cycles,
    best_cycles, chain}`` where ``chain`` is the accepted transform list
    (rebuilt objects)."""
    meta = None
    trials: list = []
    accepts: list = []
    final = None
    for record in records:
        kind = record.get("type")
        if kind == "meta":
            meta = record
        elif kind == "trial":
            trials.append(record)
        elif kind == "accept":
            accepts.append(record)
        elif kind == "result":
            final = record
    baseline = next(
        (t["cycles"] for t in trials if t["id"] == 0 and t["status"] == "ok"),
        None,
    )
    by_id = {t["id"]: t for t in trials}
    chain = []
    best_cycles = baseline
    for accept in accepts:
        trial = by_id.get(accept["trial"])
        if trial and trial.get("chain"):
            chain.append(transform_from_dict(trial["chain"][-1]))
        best_cycles = accept["cycles"]
    return {
        "meta": meta,
        "trials": trials,
        "accepts": accepts,
        "result": final,
        "baseline_cycles": baseline,
        "best_cycles": best_cycles,
        "chain": chain,
    }


__all__ = [
    "AutotuneSearch",
    "SearchOptions",
    "SearchResult",
    "search_summary",
]
