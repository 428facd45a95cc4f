"""``repro-fleet fsck``: every invariant check and every safe repair."""

import json
from pathlib import Path

from repro import ioutil
from repro.fleet import FleetService
from repro.fleet.fsck import (
    FSCK_NO_FLEET,
    FSCK_OK,
    FSCK_PROBLEMS,
    fsck_store,
)
from repro.fleet.spool import FleetPaths, QUARANTINE_IO_ERROR
from repro.fleet.store import aggregate_path, wal_append


def _ingested_root(fleet_root, fresh_experiments, names=("a",)):
    service = FleetService(fleet_root, owner="w1")
    for name in names:
        service.submit(fresh_experiments[name])
    service.drain()
    return FleetPaths(fleet_root)


class TestFsckStore:
    def test_not_a_fleet_root(self, tmp_path):
        _text, code = fsck_store(tmp_path / "nothing-here")
        assert code == FSCK_NO_FLEET

    def test_healthy_store_is_clean(self, fleet_root, fresh_experiments):
        _ingested_root(fleet_root, fresh_experiments)
        text, code = fsck_store(fleet_root)
        assert code == FSCK_OK
        assert "clean" in text

    def test_wal_is_scanned_once(self, fleet_root, fresh_experiments,
                                 monkeypatch):
        """The pending map comes from the records already read."""
        paths = _ingested_root(fleet_root, fresh_experiments)
        wal_append(paths, {"op": "begin", "entry": "lost-entry",
                           "sub": "s", "key": ""})
        scanned = []
        original = ioutil.scan_jsonl

        def counting(path, *args, **kwargs):
            scanned.append(Path(path).name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(ioutil, "scan_jsonl", counting)
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS and "unresolved lost-entry" in text
        assert scanned.count(paths.wal.name) == 1

    def test_orphan_claim_is_reported_and_repaired(self, fleet_root,
                                                   fresh_experiments):
        paths = _ingested_root(fleet_root, fresh_experiments)
        (paths.claims / "ghost-entry.claim").write_text("{}")
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert "ghost-entry" in text
        _text, code = fsck_store(fleet_root, repair=True)
        assert code == FSCK_OK
        assert not (paths.claims / "ghost-entry.claim").exists()

    def test_unresolved_wal_entry_is_reported_and_repaired(
            self, fleet_root, fresh_experiments):
        paths = _ingested_root(fleet_root, fresh_experiments)
        # a begin whose entry vanished: the classic die-between-rename-
        # and-cleanup leftover, pointing at the committed aggregate
        token = next(paths.aggregates.glob("*.json")).stem
        record = json.loads(aggregate_path(paths, token).read_text())
        (sub_id,) = record["experiments"]
        wal_append(paths, {"op": "begin", "entry": "lost-entry",
                           "sub": sub_id, "key": token})
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert "unresolved lost-entry" in text
        _text, code = fsck_store(fleet_root, repair=True)
        assert code == FSCK_OK

    def test_stale_quarantine_entry_is_retired(self, fleet_root,
                                               fresh_experiments):
        from repro.fleet.spool import quarantine_entry

        paths = _ingested_root(fleet_root, fresh_experiments)
        token = next(paths.aggregates.glob("*.json")).stem
        record = json.loads(aggregate_path(paths, token).read_text())
        (sub_id,) = record["experiments"]
        # quarantined once upon a time, but the same data later made it
        # in from another copy: the quarantine entry is stale
        quarantine_entry(paths, "old-copy", QUARANTINE_IO_ERROR,
                         detail="transient", sub_id=sub_id)
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert "stale" in text
        _text, code = fsck_store(fleet_root, repair=True)
        assert code == FSCK_OK
        assert not (paths.quarantine / "old-copy").exists()

    def test_corrupt_aggregate_is_reported_not_repaired(
            self, fleet_root, fresh_experiments):
        paths = _ingested_root(fleet_root, fresh_experiments)
        file = next(paths.aggregates.glob("*.json"))
        file.write_text(file.read_text()[:100])  # truncate mid-record
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert "CORRUPT" in text
        # repair cannot invent data back; still a problem afterwards
        _text, code = fsck_store(fleet_root, repair=True)
        assert code == FSCK_PROBLEMS

    def test_non_canonical_bytes_are_detected(self, fleet_root,
                                              fresh_experiments):
        paths = _ingested_root(fleet_root, fresh_experiments)
        file = next(paths.aggregates.glob("*.json"))
        # semantically identical, byte-different (re-dump with indent)
        file.write_text(json.dumps(json.loads(file.read_text()), indent=1,
                                   sort_keys=True))
        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert "not canonical" in text
