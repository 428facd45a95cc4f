"""Aggregate store: canonical bytes, versioning, WAL, and merge locks."""

import json

import pytest

from repro.analyze.reduce import merge_reduced, reduce_path
from repro.errors import StoreCorrupt
from repro.fleet.spool import FleetPaths
from repro.fleet.store import (
    AGGREGATE_VERSION,
    AggregateKey,
    KeyLock,
    aggregate_path,
    commit_aggregate,
    ledger_has,
    load_aggregate,
    pending_entries,
    serialize_aggregate,
    wal_append,
    wal_checkpoint,
    wal_records,
    window_ledger_has,
)

KEY = AggregateKey(program="abc123", workload="mcf", counters="clock",
                   window="all")


@pytest.fixture
def paths(fleet_root):
    return FleetPaths(fleet_root).ensure()


class TestAggregates:
    def test_round_trip(self, paths, fresh_experiments):
        payload = reduce_path(fresh_experiments["a"],
                              use_cache=False).canonical_payload()
        commit_aggregate(paths, KEY, {"sub1": {"name": "run"}}, payload)
        record = load_aggregate(paths, KEY.token())
        assert record["key"]["workload"] == "mcf"
        assert record["payload"] == payload
        assert ledger_has(paths, KEY, "sub1")
        assert not ledger_has(paths, KEY, "sub2")
        assert window_ledger_has(paths, "sub1", "all")
        assert not window_ledger_has(paths, "sub1", "other-window")

    def test_merge_order_does_not_change_bytes(self, paths,
                                               fresh_experiments):
        """The invariant the recovery matrix rests on."""
        a = reduce_path(fresh_experiments["a"], use_cache=False).detach()
        b = reduce_path(fresh_experiments["b"], use_cache=False).detach()
        ledger = {"s1": {"name": "a"}, "s2": {"name": "b"}}
        ab = serialize_aggregate(
            KEY, ledger, merge_reduced([a, b]).canonical_payload())
        ba = serialize_aggregate(
            KEY, dict(reversed(list(ledger.items()))),
            merge_reduced([b, a]).canonical_payload())
        assert ab == ba

    def test_version_mismatch_is_store_corrupt(self, paths):
        commit_aggregate(paths, KEY, {}, {"total": {}})
        file = aggregate_path(paths, KEY.token())
        record = json.loads(file.read_text())
        record["aggregate_version"] = AGGREGATE_VERSION + 1
        file.write_text(json.dumps(record))
        with pytest.raises(StoreCorrupt):
            load_aggregate(paths, KEY.token())

    def test_undecodable_aggregate_is_store_corrupt(self, paths):
        file = aggregate_path(paths, KEY.token())
        file.write_text('{"aggregate_version": 1, "experi')
        with pytest.raises(StoreCorrupt):
            load_aggregate(paths, KEY.token())

    def test_missing_aggregate_is_none(self, paths):
        assert load_aggregate(paths, "feedfacedeadbeef") is None


class TestWal:
    def test_append_scan_pending_checkpoint(self, paths):
        wal_append(paths, {"op": "begin", "entry": "e1", "sub": "s1"})
        wal_append(paths, {"op": "begin", "entry": "e2", "sub": "s2"})
        wal_append(paths, {"op": "done", "entry": "e1"})
        records, torn = wal_records(paths)
        assert len(records) == 3 and torn == 0
        assert list(pending_entries(records)) == ["e2"]

        wal_checkpoint(paths)
        records, _torn = wal_records(paths)
        assert [r["entry"] for r in records] == ["e2"]  # e1 resolved away
        assert list(pending_entries(records)) == ["e2"]

    def test_torn_tail_is_tolerated(self, paths):
        wal_append(paths, {"op": "begin", "entry": "e1", "sub": "s1"})
        with open(paths.wal, "a") as stream:
            stream.write('{"op": "done", "ent')  # the crash mid-append
        records, torn = wal_records(paths)
        assert len(records) == 1 and torn == 1
        assert list(pending_entries(records)) == ["e1"]
        wal_checkpoint(paths)  # compaction drops the torn line
        _records, torn = wal_records(paths)
        assert torn == 0


class TestKeyLock:
    def test_exclusion_and_release(self, paths):
        with KeyLock(paths, "tok", "w1", sleep=lambda _s: None):
            contender = KeyLock(paths, "tok", "w2", sleep=lambda _s: None)
            with pytest.raises(Exception) as exc:
                contender.__enter__()
            assert "contended" in str(exc.value)
        # released: the contender can have it now
        with KeyLock(paths, "tok", "w2", sleep=lambda _s: None):
            pass

    def test_stale_lock_is_broken(self, paths):
        import time

        clock = [time.time()]
        dead = KeyLock(paths, "tok", "dead", sleep=lambda _s: None,
                       now=lambda: clock[0])
        dead.__enter__()  # never exits: the worker died
        clock[0] += 1e6
        with KeyLock(paths, "tok", "heir", ttl=600.0,
                     sleep=lambda _s: None, now=lambda: clock[0]):
            pass
