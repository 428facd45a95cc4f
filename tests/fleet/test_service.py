"""The ingest service: exactly-once merging, degradation, quarantine,
timeouts, transient-fault absorption, and cross-window queries."""

import threading

import pytest

from repro.analyze.model import ReducedData
from repro.analyze.reduce import merge_reduced, reduce_path
from repro.faults import FaultPlan
from repro.fleet import FleetService
from repro.fleet.retry import RetryPolicy
from repro.fleet.spool import (
    QUARANTINE_IO_ERROR,
    QUARANTINE_TIMEOUT,
    QUARANTINE_UNDECODABLE,
)
from repro.fleet.store import (
    AggregateKey,
    commit_aggregate,
    pending_entries,
    wal_append,
    wal_records,
)

from .conftest import quarantine_facts


class TestIngest:
    def test_two_experiments_merge_into_one_aggregate(self, fleet_root,
                                                      fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        for name in ("a", "b"):
            assert service.submit(fresh_experiments[name]).ok
        outcomes = service.drain()
        assert [o.status for o in outcomes] == ["merged", "merged"]

        rows = service.query()
        assert len(rows) == 1
        assert rows[0]["experiments"] == 2
        assert rows[0]["incomplete"] == 0

        # the aggregate equals an offline merge of the same reductions
        expected = merge_reduced([
            reduce_path(fresh_experiments["a"], use_cache=False).detach(),
            reduce_path(fresh_experiments["b"], use_cache=False).detach(),
        ]).canonical_payload()
        from repro.fleet.store import list_aggregates

        ((_token, record),) = list_aggregates(service.paths)
        assert record["payload"] == expected
        # drain leaves no unresolved WAL state behind
        records, torn = wal_records(service.paths)
        assert records == [] and torn == 0

    def test_injected_duplicate_alias_merges_exactly_once(
            self, fleet_root, fresh_experiments):
        plan = FaultPlan(seed=1, duplicate_submit_prob=1.0)
        service = FleetService(fleet_root, owner="w1", fault_plan=plan)
        service.submit(fresh_experiments["a"])
        plan.duplicate_submit_prob = 0.0  # only the first submit forks

        outcomes = FleetService(fleet_root, owner="w2").drain()
        assert sorted(o.status for o in outcomes) == ["duplicate", "merged"]
        rows = FleetService(fleet_root).query()
        assert rows[0]["experiments"] == 1

    def test_killed_experiment_degrades_to_incomplete(self, fleet_root,
                                                      fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["killed"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        assert outcome.incomplete

        rows = service.query()
        assert rows[0]["incomplete"] == 1
        from repro.fleet.store import list_aggregates

        ((_token, record),) = list_aggregates(service.paths)
        (meta,) = record["experiments"].values()
        assert meta["incomplete"]
        assert meta["name"].endswith("(Incomplete)")
        rebuilt = ReducedData.from_payload(record["payload"])
        assert rebuilt.incomplete
        assert "SimulatedCrash" in rebuilt.incomplete_reason

    def test_undecodable_experiment_is_quarantined_not_fatal(
            self, fleet_root, fresh_experiments):
        (fresh_experiments["b"] / "program.pkl").unlink()
        service = FleetService(fleet_root, owner="w1")
        good = service.submit(fresh_experiments["a"])
        bad = service.submit(fresh_experiments["b"])
        outcomes = {o.sub_id: o for o in service.drain()}

        assert outcomes[good.sub_id].status == "merged"
        assert outcomes[bad.sub_id].status == "quarantined"
        assert outcomes[bad.sub_id].reason == QUARANTINE_UNDECODABLE
        assert quarantine_facts(fleet_root) == {
            (bad.sub_id, QUARANTINE_UNDECODABLE)
        }
        assert FleetService(fleet_root).query()[0]["experiments"] == 1

    def test_deadline_quarantines_with_timeout_code(self, fleet_root,
                                                    fresh_experiments):
        clock = [0.0]

        def ticking():
            clock[0] += 10.0  # every step-boundary check burns 10s
            return clock[0]

        service = FleetService(fleet_root, owner="w1", timeout=5.0,
                               clock=ticking)
        result = service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "quarantined"
        assert outcome.reason == QUARANTINE_TIMEOUT
        assert quarantine_facts(fleet_root) == {
            (result.sub_id, QUARANTINE_TIMEOUT)
        }

    def test_transient_eio_is_retried_through(self, fleet_root,
                                              fresh_experiments):
        sleeps = []
        plan = FaultPlan(seed=1, transient_eio_prob=1.0)
        service = FleetService(fleet_root, owner="w1", fault_plan=plan,
                               sleep=sleeps.append)
        service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        assert plan.stats["eio_faults"] > 0  # faults fired...
        assert sleeps                        # ...and were backed off past

    def test_exhausted_retries_quarantine_as_io_error(self, fleet_root,
                                                      fresh_experiments):
        plan = FaultPlan(seed=1, transient_eio_prob=1.0)
        service = FleetService(
            fleet_root, owner="w1", fault_plan=plan,
            retry_policy=RetryPolicy(attempts=1),  # no second chances
        )
        result = service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "quarantined"
        assert outcome.reason == QUARANTINE_IO_ERROR
        assert quarantine_facts(fleet_root) == {
            (result.sub_id, QUARANTINE_IO_ERROR)
        }


class TestRecoverTornWal:
    def test_done_record_does_not_land_on_a_torn_tail(self, fleet_root):
        """A worker killed after its commit rename leaves a ``begin``; a
        second crash mid-append leaves an unterminated fragment after it.
        Recovery's ``done`` for the committed entry must survive."""
        service = FleetService(fleet_root, owner="w1")
        key = AggregateKey("prog", "mcf", "ecrm", "w1")
        commit_aggregate(service.paths, key,
                         {"sub1": {"name": "a", "incomplete": False}}, {})
        wal_append(service.paths, {"op": "begin", "entry": "e1",
                                   "sub": "sub1", "key": key.token()})
        with open(service.paths.wal, "a") as stream:
            stream.write('{"op":"done","ent')

        assert service.recover() == [
            "e1: committed before the crash; finished its cleanup"]
        assert pending_entries(wal_records(service.paths)[0]) == {}
        assert wal_records(service.paths) == ([], 0)


class TestConcurrency:
    def test_concurrent_producers_dedup_to_one_ingest(self, fleet_root,
                                                      fresh_experiments):
        """Many producers racing the same experiment: at most one copy
        spools, and exactly one ingests."""
        results = []

        def producer():
            service = FleetService(fleet_root, owner="producer")
            results.append(service.submit(fresh_experiments["a"]))

        threads = [threading.Thread(target=producer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        submitted = [r for r in results if r.status == "submitted"]
        duplicates = [r for r in results if r.status == "duplicate"]
        assert len(submitted) == 1
        assert len(duplicates) == 5

        outcomes = FleetService(fleet_root, owner="w1").drain()
        assert [o.status for o in outcomes] == ["merged"]
        assert FleetService(fleet_root).query()[0]["experiments"] == 1

    def test_racing_workers_never_double_ingest(self, fleet_root,
                                                fresh_experiments):
        service = FleetService(fleet_root, owner="seed")
        for name in ("a", "b", "killed"):
            service.submit(fresh_experiments[name])

        all_outcomes = []
        lock = threading.Lock()

        def worker(name):
            outcomes = FleetService(fleet_root, owner=name).drain()
            with lock:
                all_outcomes.extend(outcomes)

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        merged = [o for o in all_outcomes if o.status == "merged"]
        assert len(merged) + sum(
            1 for o in all_outcomes if o.status == "duplicate") >= 3
        rows = FleetService(fleet_root).query()
        assert rows[0]["experiments"] == 3  # every experiment exactly once


class TestQueryAndDiff:
    def test_cross_window_diff_ranks_share_movement(self, fleet_root,
                                                    fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"], window="2026-07")
        service.submit(fresh_experiments["b"], window="2026-08")
        service.drain()

        (diff,) = service.diff("2026-07", "2026-08", metric="ecstall",
                               top=5)
        assert diff.rows and len(diff.rows) <= 5
        deltas = [abs(row.delta) for row in diff.rows]
        assert deltas == sorted(deltas, reverse=True)  # ranked by |delta|
        for row in diff.rows:
            assert 0.0 <= row.share_a <= 1.0
            assert 0.0 <= row.share_b <= 1.0

    def test_diff_requires_both_windows(self, fleet_root,
                                        fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"], window="only")
        service.drain()
        assert service.diff("only", "missing") == []

    def test_serve_drains_until_idle(self, fleet_root, fresh_experiments):
        service = FleetService(fleet_root, owner="w1",
                               sleep=lambda _s: None)
        service.submit(fresh_experiments["a"])
        service.submit(fresh_experiments["b"])
        assert service.serve(poll_interval=0.0) == 2
        assert service.serve(poll_interval=0.0) == 0  # idle now
