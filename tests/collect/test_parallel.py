"""Tests for the parallel collection driver (repro.parallel)."""

import pytest

from repro.collect.cli import main, pass_outdirs
from repro.collect.collector import CollectConfig
from repro.collect.experiment import Experiment
from repro.errors import CollectError
from repro.parallel import CollectJob, JobResult, collect_many, run_job


def _mcf_job(counters, name, save_to=None, clock=False, **kwargs):
    return CollectJob(
        config=CollectConfig(
            clock_profiling=clock,
            clock_interval=499,
            counters=counters,
            name=name,
        ),
        workload="mcf",
        trips=15,
        seed=3,
        save_to=save_to,
        **kwargs,
    )


def _fingerprint(result: JobResult):
    return (
        result.index,
        result.name,
        result.hwc_events,
        result.clock_events,
        result.exit_code,
        result.incomplete,
        result.error,
    )


class TestCollectMany:
    def test_results_come_back_in_job_order(self):
        jobs = [
            _mcf_job(["+ecstall,97", "+ecrm,29"], "p0"),
            _mcf_job(["+ecref,53", "+dtlbm,11"], "p1"),
        ]
        results = collect_many(jobs, parallelism=2)
        assert [r.name for r in results] == ["p0", "p1"]
        assert all(r.ok for r in results)
        assert all(r.hwc_events > 0 for r in results)

    def test_parallel_identical_to_sequential(self):
        def jobs():
            return [
                _mcf_job(["+ecstall,97", "+ecrm,29"], "p0"),
                _mcf_job(["+ecref,53", "+dtlbm,11"], "p1"),
            ]

        sequential = collect_many(jobs(), parallelism=1)
        parallel = collect_many(jobs(), parallelism=2)
        assert list(map(_fingerprint, sequential)) == list(
            map(_fingerprint, parallel)
        )

    def test_empty_job_list(self):
        assert collect_many([], parallelism=4) == []

    def test_unknown_workload_is_a_bug_not_a_run_fault(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown workload"):
            run_job(CollectJob(config=CollectConfig(counters=[]),
                               workload="nosuch"))

    def test_bad_counter_is_a_recoverable_job_error(self):
        result = run_job(_mcf_job(["+bogus,97"], "bad"), index=7)
        assert not result.ok
        assert result.index == 7
        assert result.incomplete
        assert "CollectError" in result.error


def _die_once_then_square(task):
    """Kill the worker process the first time each item is seen.

    The marker file records that this item already claimed its victim,
    so the resubmitted attempt succeeds — exactly the OOM-killer /
    segfault recovery shape.  Only pool workers ever die: a broken pool
    cancels not-yet-started futures, so an unlucky schedule can hand an
    unseen item straight to the final in-process pass, and ``os._exit``
    there would kill the test runner itself.
    """
    import os
    from pathlib import Path

    marker_dir, parent_pid, value = task
    marker = Path(marker_dir) / f"seen-{value}"
    if not marker.exists() and os.getpid() != parent_pid:
        marker.write_text("dying now")
        os._exit(13)  # hard kill: no exception, no cleanup
    return value * value


class TestWorkerDeathResubmission:
    def test_dead_workers_jobs_are_resubmitted(self, tmp_path):
        import os

        from repro.parallel import parallel_map

        sleeps = []
        tasks = [(str(tmp_path), os.getpid(), value) for value in range(6)]
        results = parallel_map(
            _die_once_then_square, tasks, parallelism=2,
            sleep=sleeps.append,
        )
        assert results == [0, 1, 4, 9, 16, 25]
        assert sleeps, "recovery must back off before resubmitting"
        # exponential: each backoff doubles the previous one
        assert all(b == sleeps[0] * 2 ** i for i, b in enumerate(sleeps))

    def test_completed_items_survive_a_broken_pool(self, tmp_path):
        """Items finished before the pool broke keep their results."""
        import os

        from repro.parallel import parallel_map

        tasks = [(str(tmp_path), os.getpid(), value) for value in (7,)]
        assert parallel_map(
            _die_once_then_square, tasks, parallelism=2,
            sleep=lambda _s: None,
        ) == [49]

    def test_final_attempt_runs_in_process(self, tmp_path):
        """A job that kills every worker lands in the caller's process —
        where ``os._exit`` would kill the test itself, so use a fn that
        only misbehaves under a pool-worker pid."""
        import os

        from repro.parallel import parallel_map

        parent = os.getpid()
        calls = []

        def local_only(value):
            calls.append(value)
            assert os.getpid() == parent
            return value + 1

        # parallelism=1 short-circuits to the sequential path: the same
        # code the final attempt uses for still-pending items
        assert parallel_map(local_only, [1, 2], parallelism=1) == [2, 3]
        assert calls == [1, 2]


class TestCliMultiPass:
    def test_pass_outdirs(self):
        assert pass_outdirs("exp.er", 2) == ["exp-p0.er", "exp-p1.er"]
        assert pass_outdirs("exp", 2) == ["exp-p0.er", "exp-p1.er"]

    def test_two_passes_written(self, tmp_path, capsys):
        outdir = str(tmp_path / "multi.er")
        code = main([
            "-p", "on",
            "-h", "+ecstall,97,+ecrm,29",
            "-h", "+ecref,53,+dtlbm,11",
            "-o", outdir, "--jobs", "2",
            "--workload", "mcf", "--trips", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("experiment written") == 2
        exp0 = Experiment.open(str(tmp_path / "multi-p0.er"))
        exp1 = Experiment.open(str(tmp_path / "multi-p1.er"))
        # clock profiling rides on pass 0 only
        assert exp0.clock_events
        assert not exp1.clock_events
        assert {e.event for e in exp0.hwc_events} <= {"ecstall", "ecrm"}
        assert {e.event for e in exp1.hwc_events} <= {"ecref", "dtlbm"}
        assert exp0.hwc_events and exp1.hwc_events

    def test_multi_pass_pass0_matches_single_pass(self, tmp_path, capsys):
        single = str(tmp_path / "single.er")
        multi = str(tmp_path / "multi.er")
        common = ["--workload", "mcf", "--trips", "15"]
        assert main(["-p", "on", "-h", "+ecstall,97,+ecrm,29",
                     "-o", single] + common) == 0
        assert main(["-p", "on",
                     "-h", "+ecstall,97,+ecrm,29",
                     "-h", "+ecref,53,+dtlbm,11",
                     "-o", multi, "--jobs", "2"] + common) == 0
        capsys.readouterr()
        exp_single = Experiment.open(single)
        exp_p0 = Experiment.open(str(tmp_path / "multi-p0.er"))
        assert [
            (e.event, e.weight, e.trap_pc, e.cycle)
            for e in exp_single.hwc_events
        ] == [
            (e.event, e.weight, e.trap_pc, e.cycle)
            for e in exp_p0.hwc_events
        ]

    def test_reduce_merges_pass_directories(self, tmp_path, capsys):
        from repro.analyze.reduce import reduce_experiments

        outdir = str(tmp_path / "merge.er")
        assert main([
            "-p", "off",
            "-h", "+ecstall,97,+ecrm,29",
            "-h", "+ecref,53,+dtlbm,3",
            "-o", outdir, "--jobs", "2",
            "--workload", "mcf", "--trips", "15",
        ]) == 0
        capsys.readouterr()
        reduced = reduce_experiments(
            [str(tmp_path / "merge-p0.er"), str(tmp_path / "merge-p1.er")]
        )
        # ecrm may not reach its interval on so small an instance
        assert {"ecstall", "ecref", "dtlbm"} <= set(reduced.metric_ids)


class TestPlusPrefixHarmonized:
    """Satellite (d): '+' handling agrees across every entry point."""

    def test_cli_rejects_double_plus(self):
        from repro.collect.cli import _parse_counter_list
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="at most one"):
            _parse_counter_list("++ecstall,lo")

    def test_request_parser_rejects_double_plus(self):
        from repro.collect.collector import parse_counter_requests

        with pytest.raises(CollectError, match="at most one"):
            parse_counter_requests(["++ecstall,on"])

    def test_spec_parse_rejects_double_plus(self):
        from repro.machine.counters import CounterSpec

        with pytest.raises(CollectError, match="at most one"):
            CounterSpec.parse("++ecstall,on", register=0)

    def test_single_plus_still_means_backtracking(self):
        from repro.collect.collector import parse_counter_requests

        [spec] = parse_counter_requests(["+ecstall,97"])
        assert spec.backtrack
