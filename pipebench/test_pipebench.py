"""Self-tests of the pipeline benchmark's output checks.

Run from the repository root::

    python3 -m pytest pipebench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from repro.collect.collector import CollectConfig  # noqa: E402

#: small enough to run in seconds, large enough that every counter fires
TINY_TRIPS = 20


@pytest.fixture
def context(tmp_path):
    with pipeline.ProcessTap() as tap:
        yield pipeline.Context(seed=1, trips=TINY_TRIPS, workdir=tmp_path,
                               tally=pipeline.Tally(), tap=tap,
                               speed=HostSpeed())


def test_a_counter_that_cannot_fire_fails_the_fired_check(context):
    # coherence misses need a second core; the tight machine has one
    sequence = pipeline.Sequence(
        lambda instance: [CollectConfig(clock_profiling=False,
                                        counters=["+cohm,1"], name="cohm")],
        cold=("functions",), warm=(),
    )
    context.mcf_loop(sequence).run_once()
    attempted, failed, detail = context.tally.counts["counters_fired"]
    assert failed == attempted == pipeline.INSTANCES
    assert "cohm" in detail


def test_a_corrupted_corpus_journal_is_a_failure(context):
    bench = pipeline.FleetBench(context)
    bench.setup()
    bench.loop.run_once()
    assert context.tally.counts["fleet_entry"][1] == 0

    _window, victim = bench.loop.corpus[0]
    journal = victim / "hwc0.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    lines[len(lines) // 2] = "{not json\n"
    journal.write_text("".join(lines))
    before = context.tally.failed
    bench.loop.run_once()
    assert context.tally.counts["fleet_entry"][1] == 1
    assert context.tally.failed > before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", pipeline.WORKLOADS)
def test_a_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
         "--trips", str(TINY_TRIPS)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], run.stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {metric["name"]: metric["unit"]
                for metric in declared["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
