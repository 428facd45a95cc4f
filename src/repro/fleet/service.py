"""The fleet ingestion service: spool -> reduce -> merge -> aggregate.

:class:`FleetService` is the consumer side of the fleet protocol.  One
``drain()`` call recovers any interrupted ingests from the WAL, then
walks the spool in deterministic order, ingesting each entry through a
fixed step sequence::

    claim -> read submission -> dedup check -> WAL begin -> reduce
          -> key lock -> re-check ledger -> merge -> commit (rename)
          -> WAL commit -> remove entry -> WAL done -> release

Robustness properties, each exercised by the recovery-matrix tests:

* **exactly-once** — the submission ledger inside the aggregate file is
  re-checked under the merge lock, so duplicates (retried producers,
  injected aliases, two racing workers) merge exactly once;
* **kill-anywhere** — every step is journaled or idempotent; a worker
  killed at any step leaves state the next ``drain()`` resolves to the
  same bytes a clean sequential ingest produces;
* **transient-fault absorption** — filesystem steps run under
  :func:`~repro.fleet.retry.call_with_retries`; only exhausted retries
  quarantine the input (reason ``io-error``);
* **graceful degradation** — damaged-but-salvageable experiments ingest
  via the ``strict=False`` open and carry an ``(Incomplete)`` provenance
  tag in the ledger; unusable ones land in quarantine with a
  machine-readable reason code instead of wedging the drain loop.

Injected :class:`~repro.errors.SimulatedCrash` is *never* absorbed: it
unwinds the whole service, leaving claims, locks, and the WAL exactly as
a killed process would — which is what the recovery tests restart from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..analyze.model import ReducedData
from ..analyze.reduce import reduce_path
from ..errors import (
    AnalysisError,
    ExperimentError,
    IngestTimeout,
    RetriesExhausted,
    SimulatedCrash,
    SpoolError,
    StoreCorrupt,
)
from . import spool
from .retry import Deadline, RetryPolicy, call_with_retries
from .spool import (
    DEFAULT_CLAIM_TTL,
    EXPERIMENT_DIR,
    FleetPaths,
    QUARANTINE_BAD_SUBMISSION,
    QUARANTINE_IO_ERROR,
    QUARANTINE_PROGRAM_MISMATCH,
    QUARANTINE_TIMEOUT,
    QUARANTINE_UNDECODABLE,
)
from .store import (
    DEFAULT_LOCK_TTL,
    AggregateKey,
    KeyLock,
    commit_aggregate,
    ledger_has,
    list_aggregates,
    load_aggregate,
    stale_locks,
    wal_append,
    wal_checkpoint,
    wal_pending,
)


@dataclass
class IngestOutcome:
    """What happened to one spool entry."""

    entry: str
    sub_id: str = ""
    status: str = "merged"   # merged / duplicate / quarantined
    reason: str = ""         # quarantine reason code when quarantined
    detail: str = ""
    key_token: str = ""
    incomplete: bool = False


@dataclass
class DiffRow:
    """One data object's movement between two windows."""

    data_object: str
    share_a: float
    share_b: float

    @property
    def delta(self) -> float:
        return self.share_b - self.share_a


@dataclass
class KeyDiff:
    """Cross-window comparison for one (program, workload, counters)."""

    program: str
    workload: str
    counters: str
    window_a: str
    window_b: str
    metric: str
    rows: list = field(default_factory=list)


class FleetService:
    """One worker over one fleet root.  Every clock, sleep, and RNG is
    injectable so faults, timeouts, and backoff replay deterministically
    in tests."""

    def __init__(self, root, owner: str = "worker",
                 retry_policy: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 fault_plan=None,
                 claim_ttl: float = DEFAULT_CLAIM_TTL,
                 lock_ttl: float = DEFAULT_LOCK_TTL,
                 sleep=time.sleep, clock=time.monotonic,
                 now=time.time, rng=None) -> None:
        self.paths = FleetPaths(root).ensure()
        self.owner = owner
        self.retry_policy = retry_policy or RetryPolicy()
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.claim_ttl = claim_ttl
        self.lock_ttl = lock_ttl
        self._sleep = sleep
        self._clock = clock
        self._now = now
        self._rng = rng

    # ------------------------------------------------------------ plumbing

    def _step(self, label: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.ingest_step(label)

    def _eio(self, label: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.maybe_eio(label)

    def _retry(self, fn, describe: str):
        return call_with_retries(
            fn, policy=self.retry_policy, describe=describe,
            sleep=self._sleep, rng=self._rng,
        )

    def _wal(self, record: dict, fault_label: Optional[str] = None) -> None:
        def _append():
            if fault_label:
                self._eio(fault_label)
            wal_append(self.paths, record)
        self._retry(_append, f"appending WAL record {record.get('op')}")

    # ------------------------------------------------------------- intake

    def submit(self, experiment_dir, window: str = "all",
               workload: Optional[str] = None,
               program: Optional[str] = None) -> spool.SubmitResult:
        """Producer-side entry point (see :func:`repro.fleet.spool.submit`)."""
        return spool.submit(
            self.paths.root, experiment_dir, window=window,
            workload=workload, program=program, fault_plan=self.fault_plan,
        )

    # ----------------------------------------------------------- recovery

    def recover(self) -> list:
        """Resolve every interrupted ingest the WAL remembers.

        For each ``begin`` without a terminal record: if the submission
        id made it into its key's ledger the commit rename happened — the
        worker died during cleanup, so finish the cleanup and log
        ``done``; if the spool entry still exists the merge never
        committed — leave it for the drain loop, whose ledger check makes
        the re-ingest exactly-once.  Stale merge locks (holder died
        mid-critical-section) are broken here; stale *claims* are broken
        lazily by :func:`repro.fleet.spool.claim` itself.
        """
        actions = []
        for entry, begin in sorted(wal_pending(self.paths).items()):
            sub_id = begin.get("sub", "")
            token = begin.get("key", "")
            try:
                record = load_aggregate(self.paths, token) if token else None
            except StoreCorrupt:
                record = None
            if record is not None and sub_id in record["experiments"]:
                spool.complete(self.paths, entry)
                wal_append(self.paths, {
                    "op": "done", "entry": entry, "sub": sub_id,
                    "key": token, "recovered": True,
                })
                actions.append(f"{entry}: committed before the crash; "
                               "finished its cleanup")
            elif (self.paths.incoming / entry).is_dir():
                actions.append(f"{entry}: crash before commit; "
                               "left for re-ingest")
            else:
                wal_append(self.paths, {
                    "op": "done", "entry": entry, "sub": sub_id,
                    "key": token, "recovered": True, "vanished": True,
                })
                actions.append(f"{entry}: spool entry gone without a "
                               "commit; closed in the WAL")
        for lock in stale_locks(self.paths, self.lock_ttl, now=self._now):
            lock.unlink(missing_ok=True)
            actions.append(f"broke stale merge lock {lock.name}")
        wal_checkpoint(self.paths)
        return actions

    # -------------------------------------------------------------- drain

    def drain(self, max_entries: Optional[int] = None) -> list:
        """Recover, then ingest every pending spool entry.

        Returns the :class:`IngestOutcome` per entry this worker handled
        (entries claimed by other live workers are skipped silently).
        """
        self.recover()
        outcomes: list = []
        seen: set = set()
        while True:
            entries = [e for e in spool.pending(self.paths) if e not in seen]
            if not entries:
                break
            for entry in entries:
                seen.add(entry)
                if max_entries is not None and len(outcomes) >= max_entries:
                    return outcomes
                outcome = self.ingest_entry(entry)
                if outcome is not None:
                    outcomes.append(outcome)
        wal_checkpoint(self.paths)
        return outcomes

    def ingest_entry(self, entry: str) -> Optional[IngestOutcome]:
        """Ingest one spool entry end to end; None when not ours to do.

        All quarantine decisions happen here; :class:`SimulatedCrash`
        and :class:`StoreCorrupt` always propagate (the former models a
        dead worker, the latter needs ``fsck``, not a quarantined
        input).
        """
        if not spool.claim(self.paths, entry, self.owner,
                           claim_ttl=self.claim_ttl, now=self._now):
            return None
        self._step("claim")
        deadline = Deadline(self.timeout, clock=self._clock)
        outcome = IngestOutcome(entry=entry)
        try:
            return self._ingest_claimed(entry, outcome, deadline)
        except IngestTimeout as error:
            return self._quarantine(outcome, QUARANTINE_TIMEOUT, str(error))
        except RetriesExhausted as error:
            return self._quarantine(outcome, QUARANTINE_IO_ERROR, str(error))

    def _ingest_claimed(self, entry: str, outcome: IngestOutcome,
                        deadline: Deadline) -> IngestOutcome:
        def _read():
            self._eio("read-submission")
            return spool.read_submission(self.paths, entry)

        try:
            record = self._retry(_read, f"reading {entry} submission")
        except SpoolError as error:
            return self._quarantine(
                outcome, QUARANTINE_BAD_SUBMISSION, str(error))
        outcome.sub_id = sub_id = record["id"]
        key = AggregateKey.from_submission(record)
        outcome.key_token = token = key.token()
        self._step("read-submission")
        deadline.check(f"{entry}: reading the submission record")

        # cheap dedup before any WAL traffic; authoritative check is
        # under the key lock below
        if ledger_has(self.paths, key, sub_id):
            return self._finish_duplicate(outcome, "already in the ledger")

        self._wal({"op": "begin", "entry": entry, "sub": sub_id,
                   "key": token}, fault_label="wal-begin")
        self._step("wal-begin")
        deadline.check(f"{entry}: journaling the ingest")

        def _reduce():
            self._eio("reduce")
            return reduce_path(
                self.paths.incoming / entry / EXPERIMENT_DIR,
                strict=False, use_cache=False,
            )

        try:
            reduced = self._retry(_reduce, f"reducing {entry}")
        except (ExperimentError, AnalysisError) as error:
            return self._quarantine(
                outcome, QUARANTINE_UNDECODABLE, str(error))
        outcome.incomplete = reduced.incomplete
        self._step("reduce")
        deadline.check(f"{entry}: reducing the experiment")

        lock = KeyLock(
            self.paths, token, self.owner, ttl=self.lock_ttl,
            sleep=self._sleep, now=self._now,
        )
        lock.__enter__()
        try:
            self._step("lock")
            result = self._merge_locked(
                entry, outcome, record, key, reduced, deadline)
        except SimulatedCrash:
            raise  # a dead worker leaves its lock behind
        except BaseException:
            lock.__exit__(None, None, None)
            raise
        lock.__exit__(None, None, None)

        if result is not None:
            return result
        self._wal({"op": "commit", "entry": entry, "sub": sub_id,
                   "key": token}, fault_label="wal-commit")
        spool.complete(self.paths, entry)
        self._wal({"op": "done", "entry": entry, "sub": sub_id,
                   "key": token})
        self._step("done")
        outcome.status = "merged"
        return outcome

    def _merge_locked(self, entry: str, outcome: IngestOutcome,
                      record: dict, key: AggregateKey,
                      reduced: ReducedData,
                      deadline: Deadline) -> Optional[IngestOutcome]:
        """The critical section: returns an outcome to short-circuit with
        (duplicate/quarantine), or None after a successful commit."""
        sub_id = record["id"]
        existing = load_aggregate(self.paths, key.token())
        if existing is not None and sub_id in existing["experiments"]:
            return self._finish_duplicate(
                outcome, "raced another worker to the merge")
        experiments = dict(existing["experiments"]) if existing else {}
        try:
            if existing is None:
                merged = reduced
            else:
                merged = ReducedData.from_payload(
                    existing["payload"]).merged_with(reduced)
        except ValueError as error:
            return self._quarantine(
                outcome, QUARANTINE_PROGRAM_MISMATCH, str(error))
        name = str(record.get("name", "")) or entry
        experiments[sub_id] = {
            "name": f"{name} (Incomplete)" if reduced.incomplete else name,
            "incomplete": bool(reduced.incomplete),
        }
        payload = merged.canonical_payload()
        deadline.check(f"{entry}: merging into aggregate")
        self._step("merge-commit")  # kill here: merge never becomes visible

        def _commit():
            self._eio("commit")
            commit_aggregate(self.paths, key, experiments, payload)

        self._retry(_commit, f"committing aggregate {key.token()}")
        self._step("committed")  # kill here: committed, cleanup pending
        return None

    # ---------------------------------------------------- terminal states

    def _finish_duplicate(self, outcome: IngestOutcome,
                          detail: str) -> IngestOutcome:
        wal_append(self.paths, {
            "op": "duplicate", "entry": outcome.entry, "sub": outcome.sub_id,
        })
        spool.complete(self.paths, outcome.entry)
        outcome.status = "duplicate"
        outcome.detail = detail
        return outcome

    def _quarantine(self, outcome: IngestOutcome, reason: str,
                    detail: str) -> IngestOutcome:
        if not outcome.sub_id:
            # quarantined before the submission record was read (e.g.
            # retries exhausted on the very first step): a best-effort,
            # fault-free read keeps the reason record diagnosable
            try:
                outcome.sub_id = spool.read_submission(
                    self.paths, outcome.entry)["id"]
            except (SpoolError, OSError):
                pass
        spool.quarantine_entry(
            self.paths, outcome.entry, reason, detail=detail,
            sub_id=outcome.sub_id,
        )
        wal_append(self.paths, {
            "op": "quarantine", "entry": outcome.entry,
            "sub": outcome.sub_id, "reason": reason,
        })
        outcome.status = "quarantined"
        outcome.reason = reason
        outcome.detail = detail
        return outcome

    # -------------------------------------------------------------- serve

    def serve(self, poll_interval: float = 0.5,
              max_cycles: Optional[int] = None) -> int:
        """Drain repeatedly (the long-running daemon mode).

        Returns the number of entries ingested.  ``max_cycles`` bounds
        the loop for tests and batch callers; without it the loop only
        ends when a cycle finds nothing to do *and* the spool is empty.
        """
        ingested = 0
        cycles = 0
        while True:
            outcomes = self.drain()
            ingested += len(outcomes)
            cycles += 1
            if max_cycles is not None and cycles >= max_cycles:
                return ingested
            if not outcomes and not spool.pending(self.paths):
                return ingested
            self._sleep(poll_interval)

    # -------------------------------------------------------------- query

    def query(self) -> list:
        """Summaries of every aggregate, sorted by key."""
        rows = []
        for token, record in list_aggregates(self.paths):
            key = record["key"]
            experiments = record["experiments"]
            payload = record["payload"]
            rows.append({
                "token": token,
                "program": key["program"],
                "workload": key["workload"],
                "counters": key["counters"],
                "window": key["window"],
                "experiments": len(experiments),
                "incomplete": sum(
                    1 for meta in experiments.values()
                    if meta.get("incomplete")
                ),
                "total": dict(payload.get("total", {})),
            })
        return rows

    def diff(self, window_a: str, window_b: str, metric: str = "ecstall",
             top: int = 10, program: Optional[str] = None,
             workload: Optional[str] = None) -> list:
        """Cross-window movement: for every key present in both windows,
        the top data objects by absolute change in *share* of ``metric``.
        """
        by_base: dict = {}
        for _token, record in list_aggregates(self.paths):
            key = record["key"]
            if program is not None and key["program"] != program:
                continue
            if workload is not None and key["workload"] != workload:
                continue
            base = (key["program"], key["workload"], key["counters"])
            by_base.setdefault(base, {})[key["window"]] = record
        diffs = []
        for base in sorted(by_base):
            windows = by_base[base]
            if window_a not in windows or window_b not in windows:
                continue
            rows = _object_share_diff(
                windows[window_a]["payload"], windows[window_b]["payload"],
                metric,
            )
            rows.sort(key=lambda row: (-abs(row.delta), row.data_object))
            diffs.append(KeyDiff(
                program=base[0], workload=base[1], counters=base[2],
                window_a=window_a, window_b=window_b, metric=metric,
                rows=rows[:top],
            ))
        return diffs


def _object_share_diff(payload_a: dict, payload_b: dict,
                       metric: str) -> list:
    """Per-data-object share of one metric, in A and in B."""
    def shares(payload: dict) -> dict:
        total = float(payload.get("total", {}).get(metric, 0.0))
        out = {}
        for name, metrics in payload.get("data_objects", []):
            value = float(metrics.get(metric, 0.0))
            out[name] = (value / total) if total else 0.0
        return out

    shares_a = shares(payload_a)
    shares_b = shares(payload_b)
    return [
        DiffRow(name, shares_a.get(name, 0.0), shares_b.get(name, 0.0))
        for name in sorted(set(shares_a) | set(shares_b))
    ]


__all__ = [
    "DiffRow",
    "FleetService",
    "IngestOutcome",
    "KeyDiff",
]
