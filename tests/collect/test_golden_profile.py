"""Golden-profile test: the predecoded dispatch-table interpreter writes
byte-identical experiment journals to the per-instruction reference
interpreter on a fixed-seed MCF run.

This is the contract the fast engine lives under: batched countdown,
predecoded dispatch and the MRU fast paths may change *how fast* the
simulation runs, never *what it observes* — same RNG draw order, same
skid landing sites, same trap delivery cycles, same journal bytes.

The scaled-machine arms journal no ``ecrm`` or ``dtlbm`` events; the
``tight``-machine arms run a larger instance where every requested
counter journals events, so the comparison covers all four.
"""

import json
from collections import Counter

import pytest

from repro.autotune.workloads import MACHINES
from repro.collect.collector import CollectConfig, collect
from repro.config import scaled_config
from repro.mcf.instance import encode_instance, generate_instance
from repro.mcf.sources import LayoutVariant
from repro.mcf.workload import build_mcf


#: the paper's §3.1 pass pair
PASS_PAIR = [
    (["+ecstall,97", "+ecrm,29"], True, "stall"),
    (["+ecref,53", "+dtlbm,11"], False, "ref"),
]


@pytest.fixture(scope="module")
def workload():
    instance = generate_instance(trips=15, seed=9)
    return build_mcf(LayoutVariant.BASELINE), encode_instance(instance)


@pytest.fixture(scope="module")
def tight_workload():
    instance = generate_instance(trips=30, seed=9)
    return build_mcf(LayoutVariant.BASELINE), encode_instance(instance)


def _journal_bytes(tmp_path, workload, engine, counters, clock, tag,
                   machine=None):
    program, input_longs = workload
    outdir = tmp_path / f"{tag}-{engine}"
    collect(
        program,
        machine or scaled_config(),
        CollectConfig(
            clock_profiling=clock,
            clock_interval=499,
            counters=counters,
            name=f"{tag}-{engine}",
            engine=engine,
        ),
        input_longs=input_longs,
        save_to=str(outdir),
    )
    saved = outdir.with_suffix(".er") if outdir.suffix != ".er" else outdir
    files = sorted(p for p in saved.iterdir() if p.suffix == ".jsonl")
    assert files, f"no journal files in {saved}"
    return {p.name: p.read_bytes() for p in files}


@pytest.mark.parametrize("counters,clock,tag", PASS_PAIR)
def test_fast_engine_journal_is_byte_identical(tmp_path, workload,
                                               counters, clock, tag):
    fast = _journal_bytes(tmp_path, workload, "fast", counters, clock, tag)
    ref = _journal_bytes(tmp_path, workload, "reference", counters, clock, tag)
    assert fast.keys() == ref.keys()
    for name in fast:
        assert fast[name] == ref[name], f"{name} diverged between engines"


@pytest.mark.parametrize("counters,clock,tag", PASS_PAIR)
def test_fast_engine_journal_is_byte_identical_on_tight_machine(
        tmp_path, tight_workload, counters, clock, tag):
    machine = MACHINES["tight"]()
    fast = _journal_bytes(tmp_path, tight_workload, "fast", counters, clock,
                          tag, machine)
    ref = _journal_bytes(tmp_path, tight_workload, "reference", counters,
                         clock, tag, machine)
    assert fast.keys() == ref.keys()
    for name in fast:
        assert fast[name] == ref[name], f"{name} diverged between engines"
    fired = Counter(
        json.loads(line)["event"]
        for name, body in fast.items() if name.startswith("hwc")
        for line in body.splitlines()
    )
    for request in counters:
        event = request.lstrip("+").split(",")[0]
        assert fired[event] > 0, f"{event} journaled no events"


@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize("engine", ["fast"])
def test_threaded_journal_is_byte_identical(tmp_path, engine, cores):
    """The multi-core contract: with the round-robin scheduler slicing
    threads across cores, the fast engine must still write the
    byte-identical journal the reference interpreter writes —
    including the ``cohm`` coherence events and their core/thread axes."""
    import dataclasses

    from repro import build_executable, tiny_config
    from tests.conftest import THREADED_MCF_SRC

    program = build_executable(THREADED_MCF_SRC, name="tmcf-golden")

    def journals(eng):
        outdir = tmp_path / f"tmcf-c{cores}-{eng}"
        collect(
            program,
            dataclasses.replace(tiny_config(), cores=cores,
                                thread_quantum=211),
            CollectConfig(
                clock_profiling=True,
                clock_interval=97,
                counters=["+ecstall,59", "+cohm,23"],
                name=f"tmcf-c{cores}-{eng}",
                engine=eng,
            ),
            save_to=str(outdir),
        )
        saved = outdir.with_suffix(".er")
        return {p.name: p.read_bytes()
                for p in sorted(saved.iterdir()) if p.suffix == ".jsonl"}

    got, ref = journals(engine), journals("reference")
    assert got.keys() == ref.keys()
    for name in got:
        assert got[name] == ref[name], (
            f"{name} diverged ({engine} vs reference) at cores={cores}")
    # the run actually exercised coherence: cohm events were journaled
    assert any(b'"event": "cohm"' in body or b'"cohm"' in body
               for name, body in ref.items() if name.startswith("hwc"))


def test_unknown_engine_rejected(workload):
    from repro.errors import CollectError

    program, input_longs = workload
    for engine in ("turbo", "trace"):
        with pytest.raises(CollectError, match="unknown engine"):
            collect(
                program,
                scaled_config(),
                CollectConfig(counters=[], engine=engine),
                input_longs=input_longs,
            )
