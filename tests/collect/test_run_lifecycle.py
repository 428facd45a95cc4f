"""What a finished collect run leaves behind.

A returned (or raised) ``collect()`` must leave nothing alive but its
experiment: with the cyclic garbage collector disabled, the run's
``Process`` and its ``Memory`` arena die by reference counting as soon
as the caller drops the result.  A journaled run keeps its truth rows
only in ``truth.jsonl``; ``iter_truth_events()`` reads them back from
there.
"""

import dataclasses
import gc
import weakref

import pytest

from repro import build_executable, tiny_config
from repro.analyze.oracle import oracle_experiments, render_oracle
from repro.collect import collector
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import Experiment, TruthEvent
from repro.errors import SimulatedCrash
from repro.faults import FaultPlan
from tests.conftest import THREADED_MCF_SRC

SRC = """
struct rec { long a; long b; long c; long d; };
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(1024 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 1024; i++) arr[i].a = i;
        for (i = 0; i < 1024; i++) s = s + arr[i].c;
    }
    return s & 255;
}
"""

COUNTERS = ["+ecrm,13", "+ecstall,59"]


def _config(**kwargs):
    kwargs.setdefault("counters", COUNTERS)
    return CollectConfig(clock_interval=211, **kwargs)


@pytest.fixture(scope="module")
def program():
    return build_executable(SRC, name="lifecycle")


@pytest.fixture(scope="module")
def threaded_program():
    return build_executable(THREADED_MCF_SRC, name="tmcf-lifecycle")


@pytest.fixture
def runs(monkeypatch):
    """Weak references to each (Process, Memory) the collector builds,
    taken with the cyclic collector off, so only reference counting can
    free them."""
    refs = []
    build = collector.Process

    def process(*args, **kwargs):
        built = build(*args, **kwargs)
        refs.append((weakref.ref(built), weakref.ref(built.machine.memory)))
        return built

    monkeypatch.setattr(collector, "Process", process)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield refs
    if enabled:
        gc.enable()


def _assert_freed(refs):
    assert len(refs) == 1, "expected exactly one run"
    process, memory = refs[0]
    assert process() is None, "the Process outlived its run"
    assert memory() is None, "the Memory arena outlived its run"


class TestRunTeardown:
    def test_journaled_run_is_freed(self, program, runs, tmp_path):
        experiment = collect(program, tiny_config(), _config(),
                             save_to=tmp_path / "run")
        assert experiment.hwc_events
        del experiment
        _assert_freed(runs)

    def test_in_memory_run_is_freed(self, program, runs):
        experiment = collect(program, tiny_config(), _config())
        assert experiment.hwc_events
        del experiment
        _assert_freed(runs)

    def test_multiplexed_run_is_freed(self, program, runs):
        config = _config(counters=(), multiplex_groups=[["+ecrm,13"],
                                                        ["+ecstall,59"]],
                         multiplex_quantum=5000)
        experiment = collect(program, tiny_config(), config)
        assert experiment.hwc_events
        del experiment
        _assert_freed(runs)

    def test_threaded_two_core_run_is_freed(self, threaded_program, runs):
        machine = dataclasses.replace(tiny_config(), cores=2,
                                      thread_quantum=211)
        experiment = collect(threaded_program, machine,
                             _config(counters=["+ecstall,59", "+cohm,23"]))
        assert {event.core for event in experiment.hwc_events} == {0, 1}
        del experiment
        _assert_freed(runs)

    def test_killed_run_is_freed(self, program, runs, tmp_path):
        try:
            collect(program, tiny_config(), _config(),
                    save_to=tmp_path / "killed",
                    fault_plan=FaultPlan.parse("seed=7,kill_at=20000"))
        except SimulatedCrash:
            pass
        else:
            pytest.fail("the fault plan did not kill the run")
        # the partial experiment was still finalized and sealed
        assert Experiment.open(tmp_path / "killed.er").incomplete
        _assert_freed(runs)


class TestTruthRowsOnDisk:
    @pytest.fixture(scope="class")
    def journaled(self, program, tmp_path_factory):
        target = tmp_path_factory.mktemp("truth") / "run"
        experiment = collect(program, tiny_config(), _config(),
                             save_to=target)
        return experiment, target.with_suffix(".er")

    def test_no_rows_in_memory(self, program, tmp_path):
        before = _live_truth_events()
        experiment = collect(program, tiny_config(), _config(),
                             save_to=tmp_path / "run")
        assert experiment.truth_events == []
        # nothing the live experiment reaches is a truth row
        assert _live_truth_events() == before

    def test_rows_read_back_from_the_journal(self, journaled):
        experiment, directory = journaled
        rows = list(experiment.iter_truth_events())
        assert rows
        assert rows == list(Experiment.open(directory).iter_truth_events())

    def test_oracle_sees_the_same_rows(self, journaled):
        experiment, directory = journaled
        report = render_oracle(oracle_experiments([experiment]))
        assert report == render_oracle(oracle_experiments([directory]))
        assert "0 unexplained" in report

    def test_save_elsewhere_writes_the_same_truth_journal(self, journaled,
                                                          tmp_path):
        experiment, directory = journaled
        copy = experiment.save(tmp_path / "copy")
        assert ((copy / "truth.jsonl").read_bytes()
                == (directory / "truth.jsonl").read_bytes())

    def test_in_memory_collect_keeps_rows(self, program):
        experiment = collect(program, tiny_config(), _config())
        assert experiment.truth_events
        assert list(experiment.iter_truth_events()) == experiment.truth_events


def _live_truth_events() -> int:
    """TruthEvent objects still alive after a full collection."""
    gc.collect()
    return sum(isinstance(obj, TruthEvent) for obj in gc.get_objects())
