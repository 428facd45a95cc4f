"""WAL-backed aggregate store: versioned, mergeable reductions per key.

One aggregate per ``(program, workload, counter-set, window)`` key holds
the canonical merged :class:`~repro.analyze.model.ReducedData` payload
of every experiment ingested for that key, plus the **ledger** — the
sorted set of submission ids already merged in.  The ledger lives
*inside* the aggregate file, so the single atomic rename that commits a
merge also commits the fact that the experiment is ingested: there is no
window in which the data and the dedup record disagree.

Commit protocol for one merge (the service drives it; this module owns
the mechanics)::

    WAL append  {"op": "begin",  "entry": e, "sub": id, "key": token}
    write aggregates/<token>.json.<unique>.tmp     (canonical bytes)
    os.replace -> aggregates/<token>.json          <- THE commit point
    WAL append  {"op": "commit", ...}
    remove spool entry, release claim
    WAL append  {"op": "done",   "entry": e}

Recovery replays the WAL: a ``begin`` without a terminal record means
the worker died mid-ingest.  If the submission id is in the key's ledger
the rename happened — finish the cleanup and log ``done``; if the spool
entry still exists the merge never committed — leave it, the next drain
re-ingests it and the ledger guarantees exactly-once; both paths
converge on the same final bytes because aggregate payloads are
*canonical* (order-independent serialization, see
:meth:`ReducedData.canonical_payload`).

Every aggregate records its format versions; a version mismatch is
surfaced as :class:`~repro.errors.StoreCorrupt` instead of being merged
into silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import ioutil
from ..analyze.model import ReducedData
from ..errors import StoreCorrupt
from .retry import RetryPolicy, call_with_retries
from .spool import FleetPaths

#: version stamp of the aggregate record format
AGGREGATE_VERSION = 1

#: WAL ops that resolve an entry (nothing left to recover)
TERMINAL_OPS = ("done", "quarantine", "duplicate")

#: default lease on a merge lock before another worker may break it
DEFAULT_LOCK_TTL = 600.0


@dataclass(frozen=True)
class AggregateKey:
    """Identity of one rolling aggregate."""

    program: str
    workload: str
    counters: str
    window: str

    def token(self) -> str:
        """Filesystem-safe digest naming this key's aggregate file."""
        basis = ioutil.canonical_json(
            [self.program, self.workload, self.counters, self.window]
        )
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def base(self) -> tuple:
        """The window-independent part (what ``diff`` pairs across)."""
        return (self.program, self.workload, self.counters)

    @classmethod
    def from_submission(cls, record: dict) -> "AggregateKey":
        return cls(
            program=str(record.get("program", "unknown")),
            workload=str(record.get("workload", "unknown")),
            counters=str(record.get("counters", "none")),
            window=str(record.get("window", "all")),
        )


def aggregate_path(paths: FleetPaths, token: str) -> Path:
    return paths.aggregates / f"{token}.json"


def serialize_aggregate(key: AggregateKey, experiments: dict,
                        payload: dict) -> bytes:
    """Canonical bytes of one aggregate record.

    ``sort_keys`` plus the canonical payload ordering make the bytes a
    pure function of (key, experiment set) — the property the crash-
    recovery matrix asserts.
    """
    record = {
        "aggregate_version": AGGREGATE_VERSION,
        "payload_version": ReducedData.PAYLOAD_VERSION,
        "key": {
            "program": key.program,
            "workload": key.workload,
            "counters": key.counters,
            "window": key.window,
        },
        "experiments": {k: experiments[k] for k in sorted(experiments)},
        "payload": payload,
    }
    return ioutil.canonical_json(record).encode()


def load_aggregate(paths: FleetPaths, token: str) -> Optional[dict]:
    """Parsed aggregate record for one key token, or None when absent.

    Damage — undecodable JSON, a record written by a newer format, a
    payload the current reducer cannot rebuild — raises
    :class:`StoreCorrupt` so the caller refuses to merge on top of it.
    """
    file = aggregate_path(paths, token)
    if not file.exists():
        return None
    try:
        record = json.loads(file.read_text(errors="replace"))
    except ValueError as error:
        raise StoreCorrupt(f"aggregate {token}: undecodable: {error}") from error
    if not isinstance(record, dict):
        raise StoreCorrupt(f"aggregate {token}: not an object")
    version = record.get("aggregate_version")
    if version != AGGREGATE_VERSION:
        raise StoreCorrupt(
            f"aggregate {token}: format v{version} != v{AGGREGATE_VERSION}"
        )
    if record.get("payload_version") != ReducedData.PAYLOAD_VERSION:
        raise StoreCorrupt(
            f"aggregate {token}: payload v{record.get('payload_version')} != "
            f"v{ReducedData.PAYLOAD_VERSION} (re-ingest to rebuild)"
        )
    if not isinstance(record.get("experiments"), dict):
        raise StoreCorrupt(f"aggregate {token}: ledger missing")
    return record


def commit_aggregate(paths: FleetPaths, key: AggregateKey,
                     experiments: dict, payload: dict) -> Path:
    """Atomically publish one aggregate state (THE commit point)."""
    file = aggregate_path(paths, key.token())
    file.parent.mkdir(parents=True, exist_ok=True)
    ioutil.atomic_write_bytes(
        file, serialize_aggregate(key, experiments, payload), durable=True
    )
    return file


def list_aggregates(paths: FleetPaths) -> list:
    """(token, record) for every readable aggregate, sorted by key."""
    rows = []
    if not paths.aggregates.is_dir():
        return rows
    for file in sorted(paths.aggregates.glob("*.json")):
        token = file.stem
        record = load_aggregate(paths, token)
        if record is not None:
            rows.append((token, record))
    rows.sort(key=lambda pair: (
        pair[1]["key"]["program"], pair[1]["key"]["workload"],
        pair[1]["key"]["counters"], pair[1]["key"]["window"],
    ))
    return rows


def ledger_has(paths: FleetPaths, key: AggregateKey, sub_id: str) -> bool:
    """Is this submission already merged into its key's aggregate?"""
    try:
        record = load_aggregate(paths, key.token())
    except StoreCorrupt:
        return False
    return record is not None and sub_id in record["experiments"]


def window_ledger_has(paths: FleetPaths, sub_id: str, window: str) -> bool:
    """Submit-time dedup sweep: is the id in *any* aggregate of this
    window?  (Merge-time dedup under the key lock stays authoritative.)"""
    if not paths.aggregates.is_dir():
        return False
    for file in paths.aggregates.glob("*.json"):
        try:
            record = load_aggregate(paths, file.stem)
        except StoreCorrupt:
            continue
        if (record is not None
                and record["key"].get("window") == window
                and sub_id in record["experiments"]):
            return True
    return False


# --------------------------------------------------------------------- WAL

#: a WAL line is a JSON object naming its ``op``
_parse_wal = ioutil.record_parser("op")


def wal_append(paths: FleetPaths, record: dict) -> None:
    """Durably append one WAL record (single O_APPEND write + fsync)."""
    paths.store.mkdir(parents=True, exist_ok=True)
    ioutil.append_line(paths.wal, ioutil.canonical_json(record), durable=True)


def wal_records(paths: FleetPaths) -> tuple:
    """(parsed records, torn/undecodable line count).

    Read in salvage mode: several drain workers append to the WAL, so a
    torn line — a crash mid-append — may sit anywhere in it.  Torn lines
    are skipped and counted, never fatal: the WAL is there to recover
    *from* crashes, so it must itself tolerate them.
    """
    stats = ioutil.ScanStats()
    records = list(ioutil.scan_jsonl(paths.wal, _parse_wal, stats, strict=False))
    return records, stats.lines_skipped


def wal_recover(paths: FleetPaths) -> dict:
    """Drop torn lines and end the file with a newline, so the next append
    cannot land on a fragment; returns :func:`pending_entries`' map."""
    return pending_entries(
        ioutil.recover_jsonl(paths.wal, _parse_wal, strict=False))


def pending_entries(records: list) -> dict:
    """entry -> latest ``begin`` record, for entries of the WAL
    ``records`` with no terminal op."""
    state: dict = {}
    for record in records:
        entry = record.get("entry")
        if not entry:
            continue
        if record["op"] == "begin":
            state[entry] = record
        elif record["op"] in TERMINAL_OPS:
            state.pop(entry, None)
    return state


def wal_checkpoint(paths: FleetPaths) -> int:
    """Compact the WAL down to its unresolved entries; returns records
    dropped.  Always leaves a (possibly empty) WAL file, atomically."""
    records, torn = wal_records(paths)
    pending = pending_entries(records)
    keep = [record for record in records if record.get("entry") in pending]
    ioutil.rewrite_jsonl(paths.wal, keep)
    return len(records) - len(keep) + torn


# ------------------------------------------------------------- merge locks

class KeyLock:
    """Create-exclusive per-key mutex for the merge critical section.

    A lease, like the spool claims: a worker that dies mid-merge leaves
    a stale lock file that the next worker breaks after ``ttl`` seconds.
    """

    def __init__(self, paths: FleetPaths, token: str, owner: str,
                 ttl: float = DEFAULT_LOCK_TTL,
                 policy: Optional[RetryPolicy] = None,
                 sleep=time.sleep, now=time.time) -> None:
        self.file = paths.locks / f"{token}.lock"
        self.owner = owner
        self.ttl = ttl
        self.policy = policy or RetryPolicy(attempts=8, base_delay=0.02)
        self._sleep = sleep
        self._now = now
        self._held = False

    def _try_acquire(self) -> None:
        try:
            fd = os.open(self.file, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = self._now() - self.file.stat().st_mtime
            except OSError:
                raise OSError(f"lock {self.file.name}: contended") from None
            if age > self.ttl:
                self.file.unlink(missing_ok=True)  # break the stale lease
            raise OSError(f"lock {self.file.name}: contended")
        with os.fdopen(fd, "w") as stream:
            stream.write(json.dumps(
                {"owner": self.owner, "pid": os.getpid(), "time": self._now()}
            ))
        self._held = True

    def __enter__(self) -> "KeyLock":
        self.file.parent.mkdir(parents=True, exist_ok=True)
        call_with_retries(
            self._try_acquire, policy=self.policy,
            describe=f"acquiring merge lock {self.file.name}",
            sleep=self._sleep,
        )
        return self

    def __exit__(self, *exc) -> None:
        if self._held:
            self.file.unlink(missing_ok=True)
            self._held = False


def stale_locks(paths: FleetPaths, ttl: float, now=time.time) -> list:
    """Lock files older than their lease (their holders died)."""
    if not paths.locks.is_dir():
        return []
    out = []
    for file in sorted(paths.locks.glob("*.lock")):
        try:
            if now() - file.stat().st_mtime > ttl:
                out.append(file)
        except OSError:
            continue
    return out


__all__ = [
    "AGGREGATE_VERSION",
    "AggregateKey",
    "DEFAULT_LOCK_TTL",
    "KeyLock",
    "TERMINAL_OPS",
    "aggregate_path",
    "commit_aggregate",
    "ledger_has",
    "list_aggregates",
    "load_aggregate",
    "pending_entries",
    "serialize_aggregate",
    "stale_locks",
    "wal_append",
    "wal_checkpoint",
    "wal_records",
    "wal_recover",
    "window_ledger_has",
]
