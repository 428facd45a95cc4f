"""Parallel collection driver: independent collect passes in worker
processes.

The simulated machine has two PIC registers, so a full profile of a
workload takes several *passes* (the paper ran MCF twice: clock + ecstall
+ ecrm, then ecref + dtlbm).  Each pass is an independent deterministic
simulation — same program, same input, its own machine seeded from the
machine config — which makes the workload embarrassingly parallel.

:class:`CollectJob` describes one pass declaratively (every field is
picklable; the program can be rebuilt in the worker from the workload
name, or shipped explicitly).  :func:`collect_many` fans the jobs out
over a process pool and returns :class:`JobResult` objects **in job
order**, so the merged output is byte-for-byte independent of worker
scheduling.  With ``parallelism=1`` — or when the host cannot fork — the
jobs run sequentially in-process with identical results.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .collect.collector import RECOVERABLE_FAULTS, CollectConfig, collect
from .collect.experiment import Experiment, experiment_dir
from .config import MachineConfig, scaled_config
from .errors import ReproError, WorkloadError


@dataclass
class CollectJob:
    """One collect pass, described so it can cross a process boundary."""

    config: CollectConfig
    #: workload to build in the worker ("mcf" or "commercial") ...
    workload: str = "mcf"
    trips: int = 150
    seed: int = 1
    layout: str = "baseline"
    #: ... or an explicit pre-built image + input, which wins when set
    program: Optional[object] = None
    input_longs: Sequence[int] = ()
    #: machine configuration (default: the scaled reproduction machine)
    machine: Optional[MachineConfig] = None
    heap_page_bytes: Optional[int] = None
    #: experiment directory to journal/save to (None = in-memory only)
    save_to: Optional[str] = None
    #: fault-injection spec for FaultPlan.parse, e.g. "seed=7,kill_at=5000"
    fault_plan: Optional[str] = None


@dataclass
class JobResult:
    """Outcome of one pass, picklable and small: the events themselves
    stay in the pass's saved directory."""

    index: int
    name: str
    #: the experiment directory the pass writes (``save_to`` with its
    #: ``.er`` suffix), None for an in-memory pass
    outdir: Optional[str] = None
    hwc_events: int = 0
    clock_events: int = 0
    exit_code: int = 0
    incomplete: bool = False
    #: non-empty when the pass died (partial experiment may still exist)
    error: str = ""
    #: ``counter_events(experiment)`` and the run's machine totals
    counter_events: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the pass ran to completion."""
        return not self.error


def check_workload(workload: str, trips: int, seed: int) -> None:
    """Raise :class:`WorkloadError` for options :func:`build_workload`
    cannot honour.  Cheap, so a caller can run it before any pass starts."""
    if workload == "mcf" and trips < 2:
        raise WorkloadError(f"mcf needs at least 2 trips, got {trips}")
    if workload == "commercial" and seed < 1:
        raise WorkloadError(f"commercial needs a seed >= 1, got {seed}")


def build_workload(workload: str, trips: int, seed: int, layout: str):
    """(program, input_longs) for a named workload: ``mcf`` (``trips``
    and ``layout`` apply) or ``commercial``."""
    check_workload(workload, trips, seed)
    if workload == "mcf":
        from .mcf.instance import encode_instance, generate_instance
        from .mcf.sources import LayoutVariant
        from .mcf.workload import build_mcf

        instance = generate_instance(trips=trips, seed=seed)
        return build_mcf(LayoutVariant(layout)), encode_instance(instance)
    if workload == "commercial":
        from .workloads import build_commercial, commercial_input

        return build_commercial(), commercial_input(seed=seed)
    raise ReproError(f"unknown workload {workload!r}")


def counter_events(experiment: Experiment) -> list:
    """``(event, interval, events recorded)`` for each counter the run
    watched, in ``info.counters`` order."""
    recorded = Counter(
        (event.counter, event.event) for event in experiment.hwc_events
    )
    return [
        (spec["name"], spec["interval"],
         recorded[spec["register"], spec["name"]])
        for spec in experiment.info.counters
    ]


def run_job(job: CollectJob, index: int = 0) -> JobResult:
    """Execute one pass (in whatever process this is called from)."""
    result = JobResult(index=index, name=job.config.name)
    if job.save_to is not None:
        result.outdir = str(experiment_dir(job.save_to))
    try:
        fault_plan = None
        if job.fault_plan:
            from .faults import FaultPlan

            fault_plan = FaultPlan.parse(job.fault_plan)
        if job.program is not None:
            program, input_longs = job.program, list(job.input_longs)
        else:
            program, input_longs = build_workload(
                job.workload, job.trips, job.seed, job.layout
            )
        experiment = collect(
            program,
            job.machine or scaled_config(),
            job.config,
            input_longs=input_longs,
            heap_page_bytes=job.heap_page_bytes,
            save_to=job.save_to,
            fault_plan=fault_plan,
        )
    except RECOVERABLE_FAULTS as error:
        result.error = f"{type(error).__name__}: {error}"
        result.incomplete = True
        return result
    result.hwc_events = len(experiment.hwc_events)
    result.clock_events = len(experiment.clock_events)
    result.exit_code = experiment.info.exit_code
    result.incomplete = experiment.incomplete
    result.counter_events = counter_events(experiment)
    result.totals = dict(experiment.info.totals)
    return result


def _run_indexed(pair) -> JobResult:
    index, job = pair
    return run_job(job, index)


#: worker-death resubmission defaults: a job whose worker process dies is
#: retried this many times in fresh pools (with exponential backoff)
#: before the final in-process attempt
WORKER_RETRIES = 2
WORKER_RETRY_BACKOFF = 0.1


def parallel_map(fn, items: Sequence, parallelism: Optional[int] = None,
                 worker_retries: int = WORKER_RETRIES,
                 retry_backoff: float = WORKER_RETRY_BACKOFF,
                 sleep=time.sleep) -> list:
    """Apply a picklable ``fn`` to every item, results in item order.

    The deterministic fan-out primitive shared by collection and
    reduction: ``parallelism`` caps the worker count (default:
    one per item up to the host CPU count); 1 — or a host where worker
    processes cannot be spawned — degrades to a sequential in-process
    loop with identical output, because results always come back in item
    order regardless of worker scheduling.

    A worker process dying (OOM kill, segfault, ``os._exit``) no longer
    fails the whole batch: items already completed keep their results,
    and only the items in flight when the pool broke are resubmitted to
    a fresh pool — up to ``worker_retries`` times with exponential
    backoff — before a final in-process attempt.  Exceptions *raised by*
    ``fn`` itself still propagate unchanged (callers like
    :func:`run_job` catch their own recoverable faults).
    """
    items = list(items)
    if not items:
        return []
    if parallelism is None:
        parallelism = os.cpu_count() or 1
    parallelism = max(1, min(parallelism, len(items)))
    if parallelism == 1:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    pending = list(range(len(items)))
    for attempt in range(worker_retries + 1):
        pending = _pool_round(fn, items, results, pending, parallelism)
        if not pending:
            return results
        # a worker died (or no pool could be built); back off before the
        # resubmission so a transiently overloaded host gets air
        if attempt < worker_retries:
            sleep(retry_backoff * (2 ** attempt))
    # final attempt: in-process, where nothing can kill the worker but us
    for index in pending:
        results[index] = fn(items[index])
    return results


def _pool_round(fn, items: Sequence, results: list, pending: list,
                parallelism: int) -> list:
    """One process-pool pass over ``pending`` indices.

    Fills ``results`` for every item that completed and returns the
    indices whose workers died (``BrokenExecutor``) — or all of
    ``pending`` when no pool could be built on this host.
    """
    try:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        workers = max(1, min(parallelism, len(pending)))
        broken: list = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for index in pending:
                try:
                    futures.append((index, pool.submit(fn, items[index])))
                except BrokenExecutor:
                    broken.append(index)
            for index, future in futures:
                try:
                    results[index] = future.result()
                except BrokenExecutor:
                    broken.append(index)
        return sorted(broken)
    except (OSError, PermissionError):
        # no usable process pool (restricted host): leave everything
        # pending; the caller's final attempt runs it in-process
        return list(pending)


def collect_many(
    jobs: Sequence[CollectJob], parallelism: Optional[int] = None
) -> list[JobResult]:
    """Run every collect job; results come back in job order.

    Each pass simulates its own machine with its own seeded RNG, so the
    merged output never depends on scheduling (see :func:`parallel_map`).
    """
    return parallel_map(_run_indexed, list(enumerate(jobs)), parallelism)


__all__ = [
    "CollectJob", "JobResult", "build_workload", "check_workload",
    "collect_many", "counter_events", "parallel_map", "run_job",
]
