"""``repro-fleet fsck`` / ``repro-erprint fsck --fleet`` — store checker.

Audits every invariant the fleet protocol maintains, and (with
``repair=True``) fixes the ones that are safe to fix mechanically:

* **WAL** — readable, no torn lines, no ``begin`` without a terminal
  record (repair: run recovery, then checkpoint);
* **claims** — every claim file names a live spool entry (repair: drop
  orphans whose entry is gone);
* **locks** — no merge lock older than its lease (repair: break them);
* **staging** — no abandoned submissions in ``spool/tmp`` (a producer
  that died before its publishing rename; repair: sweep);
* **quarantine** — every entry carries a readable ``reason.json`` with a
  known reason code; entries whose submission id *did* later make it
  into an aggregate ledger are flagged stale (repair: retire them);
* **aggregates** — every aggregate parses, carries the current format
  and payload versions, its payload rebuilds into a
  :class:`~repro.analyze.model.ReducedData`, and its on-disk bytes equal
  the canonical re-serialization (the crash-recovery invariant; damage
  here is reported, never "repaired" — the data cannot be invented).

Exit codes: 0 = clean (or everything repaired), 1 = problems remain,
2 = not a fleet root.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from ..analyze.model import ReducedData
from ..errors import StoreCorrupt
from .spool import REASON_CODES, FleetPaths, quarantined
from .store import (
    DEFAULT_LOCK_TTL,
    AggregateKey,
    list_aggregates,
    load_aggregate,
    pending_entries,
    serialize_aggregate,
    stale_locks,
    wal_checkpoint,
    wal_records,
)

FSCK_OK = 0
FSCK_PROBLEMS = 1
FSCK_NO_FLEET = 2


def fsck_store(root, repair: bool = False,
               lock_ttl: float = DEFAULT_LOCK_TTL) -> tuple:
    """Audit one fleet root; returns (report text, exit code)."""
    paths = FleetPaths(root)
    lines = [f"fleet fsck {paths.root}:"]
    if not paths.root.is_dir() or not (
            paths.spool.is_dir() or paths.store.is_dir()):
        lines.append("  not a fleet root (no spool/ or store/)")
        return "\n".join(lines), FSCK_NO_FLEET
    problems = 0

    problems += _check_wal(paths, lines, repair)
    problems += _check_claims(paths, lines, repair)
    problems += _check_locks(paths, lines, repair, lock_ttl)
    problems += _check_staging(paths, lines, repair)
    problems += _check_quarantine(paths, lines, repair)
    problems += _check_aggregates(paths, lines)

    if problems == 0:
        lines.append("  clean")
    return "\n".join(lines), FSCK_OK if problems == 0 else FSCK_PROBLEMS


def _check_wal(paths: FleetPaths, lines: list, repair: bool) -> int:
    records, torn = wal_records(paths)
    pending = pending_entries(records)
    lines.append(f"  wal: {len(records)} records, {len(pending)} unresolved")
    if repair and (torn or pending):
        from .service import FleetService  # late import: avoid the cycle

        for action in FleetService(paths.root).recover():
            lines.append(f"  wal: repaired: {action}")
        records, torn = wal_records(paths)
        pending = pending_entries(records)
    problems = 0
    if torn:
        problems += 1
        lines.append(f"  wal: {torn} torn/undecodable lines")
    for entry, begin in sorted(pending.items()):
        sub_id = begin.get("sub", "")
        token = begin.get("key", "")
        try:
            record = load_aggregate(paths, token) if token else None
        except StoreCorrupt:
            record = None
        if record is not None and sub_id in record["experiments"]:
            state = "committed, cleanup pending"
        elif (paths.incoming / entry).is_dir():
            state = "awaiting re-ingest (run drain)"
        else:
            state = "entry VANISHED without a commit"
        lines.append(f"  wal: unresolved {entry}: {state}")
        problems += 1
    return problems


def _check_claims(paths: FleetPaths, lines: list, repair: bool) -> int:
    problems = 0
    if not paths.claims.is_dir():
        return 0
    for claim_file in sorted(paths.claims.glob("*.claim")):
        entry = claim_file.name[: -len(".claim")]
        if not (paths.incoming / entry).is_dir():
            problems += 1
            if repair:
                claim_file.unlink(missing_ok=True)
                lines.append(f"  claims: dropped orphan {claim_file.name}")
                problems -= 1
            else:
                lines.append(
                    f"  claims: {claim_file.name} has no spool entry")
    return problems


def _check_locks(paths: FleetPaths, lines: list, repair: bool,
                 lock_ttl: float) -> int:
    problems = 0
    for lock in stale_locks(paths, lock_ttl):
        problems += 1
        if repair:
            lock.unlink(missing_ok=True)
            lines.append(f"  locks: broke stale {lock.name}")
            problems -= 1
        else:
            lines.append(f"  locks: {lock.name} is past its lease")
    return problems


def _check_staging(paths: FleetPaths, lines: list, repair: bool) -> int:
    problems = 0
    if not paths.tmp.is_dir():
        return 0
    for staging in sorted(paths.tmp.iterdir()):
        problems += 1
        if repair:
            if staging.is_dir():
                shutil.rmtree(staging, ignore_errors=True)
            else:
                staging.unlink(missing_ok=True)
            lines.append(f"  staging: swept {staging.name}")
            problems -= 1
        else:
            lines.append(
                f"  staging: abandoned submission {staging.name} "
                "(producer died before publish)")
    return problems


def _check_quarantine(paths: FleetPaths, lines: list, repair: bool) -> int:
    problems = 0
    ingested = set()
    for _token, record in _safe_aggregates(paths):
        ingested.update(record["experiments"])
    for entry, code, _detail, sub_id in quarantined(paths):
        if code not in REASON_CODES:
            problems += 1
            lines.append(
                f"  quarantine: {entry}: missing/unknown reason "
                f"code {code!r}")
            continue
        if sub_id and sub_id in ingested:
            problems += 1
            if repair:
                shutil.rmtree(paths.quarantine / entry, ignore_errors=True)
                lines.append(f"  quarantine: retired stale {entry} "
                             "(its data was ingested elsewhere)")
                problems -= 1
            else:
                lines.append(
                    f"  quarantine: {entry} is stale — submission "
                    f"{sub_id} is in an aggregate ledger")
    return problems


def _safe_aggregates(paths: FleetPaths) -> list:
    try:
        return list_aggregates(paths)
    except StoreCorrupt:
        rows = []
        if paths.aggregates.is_dir():
            for file in sorted(paths.aggregates.glob("*.json")):
                try:
                    record = load_aggregate(paths, file.stem)
                except StoreCorrupt:
                    continue
                if record is not None:
                    rows.append((file.stem, record))
        return rows


def _check_aggregates(paths: FleetPaths, lines: list) -> int:
    problems = 0
    count = 0
    if not paths.aggregates.is_dir():
        return 0
    for file in sorted(paths.aggregates.glob("*.json")):
        count += 1
        token = file.stem
        try:
            record = load_aggregate(paths, token)
        except StoreCorrupt as error:
            problems += 1
            lines.append(f"  aggregates: {token}: CORRUPT: {error}")
            continue
        if record is None:
            continue
        try:
            rebuilt = ReducedData.from_payload(record["payload"])
        except (KeyError, TypeError, ValueError) as error:
            problems += 1
            lines.append(
                f"  aggregates: {token}: payload does not rebuild: {error}")
            continue
        key = AggregateKey(**record["key"])
        if key.token() != token:
            problems += 1
            lines.append(
                f"  aggregates: {token}: key hashes to {key.token()} "
                "(file renamed or key tampered)")
            continue
        expected = serialize_aggregate(
            key, record["experiments"], rebuilt.canonical_payload())
        if Path(file).read_bytes() != expected:
            problems += 1
            lines.append(
                f"  aggregates: {token}: bytes are not canonical "
                "(non-canonical write or silent corruption)")
    lines.append(f"  aggregates: {count} checked")
    return problems


__all__ = ["FSCK_NO_FLEET", "FSCK_OK", "FSCK_PROBLEMS", "fsck_store"]
