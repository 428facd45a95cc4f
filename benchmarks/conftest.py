"""Shared fixtures for the figure-regeneration benchmarks.

The two profiled MCF runs (the paper's §3.1 command lines) execute once
per pytest session and are shared by every figure benchmark; the
benchmarked payload is the figure regeneration itself.

Environment knobs:

* ``REPRO_BENCH_TRIPS``  — instance size (default 500; 800 matches the
  paper's shape best but doubles the wall time);
* ``REPRO_BENCH_SEED``   — instance seed (default 1).
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.config import scaled_config
from repro.mcf.casestudy import default_instance, run_case_study
from repro.mcf.instance import generate_instance

BENCH_TRIPS = int(os.environ.get("REPRO_BENCH_TRIPS", "500"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


def pytest_configure(config):
    config.addinivalue_line("markers", "figure: paper figure reproduction")


@pytest.fixture(scope="session")
def bench_instance():
    return default_instance(trips=BENCH_TRIPS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def machine_config():
    return scaled_config()


def unfired(study) -> list:
    """Requested counters of either pass, and the first pass's clock, that
    recorded no event."""
    missing = []
    for experiment in (study.experiment1, study.experiment2):
        counts = Counter(event.event for event in experiment.hwc_events)
        missing += [counter["name"] for counter in experiment.info.counters
                    if not counts[counter["name"]]]
    if not study.experiment1.clock_events:
        missing.append("clock")
    return missing


@pytest.fixture(scope="session")
def case_study(bench_instance, machine_config):
    """The paper's two collect runs + merged reduction (runs once).

    Fails when a requested counter recorded no event: a figure column
    built from no samples checks nothing.
    """
    study = run_case_study(bench_instance, machine_config)
    missing = unfired(study)
    if missing:
        pytest.fail(f"no events from {', '.join(missing)} on "
                    f"{BENCH_TRIPS} trips (REPRO_BENCH_TRIPS)")
    return study


@pytest.fixture(scope="session")
def reduced(case_study):
    return case_study.reduced
