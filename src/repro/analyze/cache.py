"""Persistent reduction cache: ``<stem>.er/cache/reduced.json``.

Re-running ``repro-erprint`` on an unchanged experiment skips the
reduction pass entirely — the analyzer stores the full
:class:`~repro.analyze.model.ReducedData` payload next to the raw
journals, keyed by the manifest checksums the crash-safe recorder writes
when it seals a directory.

Keying and invalidation rules:

* the **cache key** hashes the manifest's per-file checksum table, its
  format version, and the reduction payload version — re-collecting into
  the directory, touching any journal, or upgrading the reducer all
  change the key and orphan the cached entry;
* a cache hit additionally **re-verifies the journal checksums** against
  the manifest, because corruption after the cache was written leaves
  the manifest (and so the key) unchanged — a stale entry must never be
  served for data ``fsck`` would flag;
* **incomplete experiments are never cached**: a crashed run or a
  salvage-mode open with damage bypasses the cache on both store and
  load, so ``(Incomplete)`` analyses are always recomputed from the
  journals that actually survive;
* detected mismatches delete the cached entry (*invalidate cleanly*),
  so a later repair or re-collection starts from a blank slate.

The cached payload deliberately lives in a subdirectory the manifest
does not cover: writing it never reseals or perturbs the experiment the
way touching ``manifest.json`` would.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Optional

from ..collect.experiment import CACHE_DIR_NAME, Experiment
from ..ioutil import atomic_write_text, canonical_json
from .model import ReducedData

#: the single cache artifact inside ``<exp>.er/cache/``
CACHE_FILE_NAME = "reduced.json"


def cache_path(directory) -> Path:
    """Where the cached reduction for one experiment directory lives."""
    return Path(directory) / CACHE_DIR_NAME / CACHE_FILE_NAME


def cache_key(manifest: dict) -> str:
    """Deterministic key for a sealed experiment's current contents."""
    basis = canonical_json({
        "format_version": manifest.get("format_version", 0),
        "files": manifest.get("files", {}),
        "payload_version": ReducedData.PAYLOAD_VERSION,
    })
    return hashlib.sha256(basis.encode()).hexdigest()


def invalidate(directory) -> bool:
    """Drop any cached reduction; returns True when something was removed."""
    cache_dir = Path(directory) / CACHE_DIR_NAME
    if cache_dir.is_dir():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return True
    return False


def load(directory) -> Optional[ReducedData]:
    """The cached reduction for an unchanged, healthy experiment — or None.

    The returned reduction is **detached** (no program image): a hit
    never unpickles ``program.pkl``.
    Any detected staleness deletes the cache entry before returning None.
    """
    path = Path(directory)
    file = cache_path(path)
    if not file.exists():
        return None
    manifest = Experiment.read_manifest(path)
    if manifest is None or not manifest.get("complete", True):
        # unsealed or known-partial data must always re-reduce
        invalidate(path)
        return None
    try:
        record = json.loads(file.read_text(errors="replace"))
        if not isinstance(record, dict):
            raise ValueError("cache entry is not an object")
        if record.get("key") != cache_key(manifest):
            raise ValueError("experiment changed since the cache was written")
        # corruption leaves the manifest — and therefore the key —
        # unchanged, so the key alone cannot be trusted
        if Experiment.verify_manifest(path, manifest):
            raise ValueError("experiment corrupt (checksum mismatch)")
        return ReducedData.from_payload(record["payload"])
    except (ValueError, KeyError, TypeError):
        invalidate(path)
        return None


def store(directory, reduced: ReducedData) -> bool:
    """Cache a reduction; returns True when written.

    Refuses to cache partial data: no manifest (unsealed directory), a
    manifest recorded as incomplete, or a reduction flagged
    ``(Incomplete)`` (crashed run or salvage damage) all bypass the
    cache — those analyses must be recomputed every time so a later
    repair is picked up.
    """
    path = Path(directory)
    if reduced.incomplete:
        invalidate(path)
        return False
    manifest = Experiment.read_manifest(path)
    if manifest is None or not manifest.get("complete", True):
        invalidate(path)
        return False
    file = cache_path(path)
    file.parent.mkdir(parents=True, exist_ok=True)
    record = {"key": cache_key(manifest), "payload": reduced.to_payload()}
    # same crash-safe discipline as the journals: unique temp file,
    # fsync, rename — a kill mid-write leaves the old entry (or none),
    # never a truncated payload, and concurrent analyzers cannot tear
    # each other's writes
    atomic_write_text(file, json.dumps(record, separators=(",", ":")),
                      durable=True)
    return True


__all__ = ["cache_key", "cache_path", "invalidate", "load", "store"]
