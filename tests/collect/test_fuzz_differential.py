"""Differential fuzzing: random programs, every engine, identical journals.

The generator (:mod:`tests.fuzz`) emits seeded random mini-C
programs that are valid and terminating by construction.  Each one is
compiled once and collected under both interpreter engines; the
experiment journals must match byte for byte — predecoding, batched
countdown and MRU fast paths may never change what the profiler
observes.

Shrinking is by construction: a failing ``(seed, size)`` case minimises
by re-running the same seed at smaller sizes (each step removes exactly
one trailing statement), so the assertion message names both numbers.

Tier-1 runs a small seed budget; the ``slow`` marker gates the wide
sweep for the nightly/manual CI job (``pytest -m slow``).
"""

import dataclasses

import pytest

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, collect
from tests.fuzz import (
    INPUT_LEN,
    generate_source,
    generate_threaded_source,
    shrink_sizes,
)

INPUT = [((k * 37) ^ 11) & 1023 for k in range(INPUT_LEN)]


DEFAULT_COUNTERS = ["+ecstall,31", "+ecrm,13"]

#: extended-taxonomy counter sets (bandwidth / branch / latency events):
#: the branch counters exercise the BTFN predictor model in both engines
EXTENDED_COUNTER_SETS = [
    ["+ldbytes,31", "brm,13"],
    ["+ldlat,17", "br,31"],
    ["+stbytes,7", "+dcrm,17"],
]


def _journals(tmp_path, program, engine, tag, counters=None):
    outdir = tmp_path / f"{tag}-{engine}"
    collect(
        program,
        tiny_config(),
        CollectConfig(
            clock_profiling=True,
            clock_interval=97,
            counters=DEFAULT_COUNTERS if counters is None else counters,
            name=f"{tag}-{engine}",
            engine=engine,
        ),
        input_longs=INPUT,
        save_to=str(outdir),
    )
    saved = outdir.with_suffix(".er")
    files = sorted(p for p in saved.iterdir() if p.suffix == ".jsonl")
    assert files, f"no journal files in {saved}"
    return {p.name: p.read_bytes() for p in files}


def _assert_engines_agree(tmp_path, seed, size, counters=None):
    program = build_executable(generate_source(seed, size), name=f"fuzz{seed}")
    ref = _journals(tmp_path, program, "reference", f"s{seed}n{size}",
                    counters=counters)
    got = _journals(tmp_path, program, "fast", f"s{seed}n{size}",
                    counters=counters)
    assert got.keys() == ref.keys(), (
        f"journal sets differ for seed={seed} size={size}; "
        f"shrink with generate_source({seed}, k) for k in {size - 1}..0"
    )
    for name in got:
        assert got[name] == ref[name], (
            f"{name} differs (fast vs reference) for seed={seed} "
            f"size={size}; shrink with generate_source({seed}, k) "
            f"for k in {size - 1}..0"
        )


class TestGenerator:
    def test_deterministic(self):
        assert generate_source(5, 7) == generate_source(5, 7)

    def test_shrinking_removes_one_trailing_statement(self):
        # size k is a literal prefix of size k+1 (minus the epilogue), so
        # walking shrink_sizes() minimises without any search
        big = generate_source(4, 6).splitlines()
        for size in shrink_sizes(6):
            small = generate_source(4, size).splitlines()
            assert small[:-2] == big[: len(small) - 2]
            big = small

    def test_generated_programs_compile_and_run(self, tmp_path):
        for seed in range(3):
            program = build_executable(generate_source(seed, 4))
            exp = collect(
                program,
                tiny_config(),
                CollectConfig(clock_profiling=True, clock_interval=211,
                              counters=[]),
                input_longs=INPUT,
            )
            assert exp.info.exit_code >= 0


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_vs_reference_short_budget(self, tmp_path, seed):
        _assert_engines_agree(tmp_path, seed, size=5)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", list(range(3, 23)))
    def test_fast_vs_reference_long_budget(self, tmp_path, seed):
        _assert_engines_agree(tmp_path, seed, size=12)


#: threaded runs pair the coherence-miss counter (PIC1) with a stall
#: counter (PIC0); fine prime intervals keep small programs observable
THREADED_COUNTERS = ["+ecstall,31", "+cohm,7"]


def _threaded_journals(tmp_path, program, engine, tag, cores):
    outdir = tmp_path / f"{tag}-{engine}"
    machine = dataclasses.replace(tiny_config(), cores=cores,
                                  thread_quantum=97)
    collect(
        program,
        machine,
        CollectConfig(
            clock_profiling=True,
            clock_interval=97,
            counters=THREADED_COUNTERS,
            name=f"{tag}-{engine}",
            engine=engine,
        ),
        input_longs=INPUT,
        save_to=str(outdir),
    )
    saved = outdir.with_suffix(".er")
    files = sorted(p for p in saved.iterdir() if p.suffix == ".jsonl")
    assert files, f"no journal files in {saved}"
    return {p.name: p.read_bytes() for p in files}


def _assert_threaded_engines_agree(tmp_path, seed, size, cores):
    program = build_executable(generate_threaded_source(seed, size),
                               name=f"tfuzz{seed}")
    tag = f"t{seed}n{size}c{cores}"
    ref = _threaded_journals(tmp_path, program, "reference", tag, cores)
    got = _threaded_journals(tmp_path, program, "fast", tag, cores)
    assert got.keys() == ref.keys(), (
        f"journal sets differ for threaded seed={seed} "
        f"size={size} cores={cores}"
    )
    for name in got:
        assert got[name] == ref[name], (
            f"{name} differs (fast vs reference) for threaded "
            f"seed={seed} size={size} cores={cores}; shrink with "
            f"generate_threaded_source({seed}, k) for k in {size - 1}..0"
        )


class TestThreadedGenerator:
    def test_deterministic(self):
        assert generate_threaded_source(5, 7) == generate_threaded_source(5, 7)

    def test_every_spawn_is_joined(self):
        # guaranteed-join by construction: each spawn stores its tid in a
        # handle and the very same handle is joined in that function
        for seed in range(10):
            source = generate_threaded_source(seed, 8)
            assert source.count("spawn(") == source.count("join(")

    def test_generated_programs_run_at_every_core_count(self):
        from repro.kernel.process import Process

        for seed in range(3):
            program = build_executable(generate_threaded_source(seed, 4))
            for cores in (1, 2, 4):
                machine = dataclasses.replace(tiny_config(), cores=cores,
                                              thread_quantum=211)
                process = Process(program, machine, input_longs=INPUT)
                code = process.run(max_instructions=50_000_000)
                assert 0 <= code <= 255


class TestThreadedDifferential:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_vs_reference_short_budget(self, tmp_path, seed, cores):
        _assert_threaded_engines_agree(tmp_path, seed, size=6, cores=cores)

    @pytest.mark.slow
    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("seed", list(range(3, 15)))
    def test_fast_vs_reference_long_budget(self, tmp_path, seed, cores):
        _assert_threaded_engines_agree(tmp_path, seed, size=10, cores=cores)


class TestExtendedTaxonomy:
    @pytest.mark.parametrize("counters", EXTENDED_COUNTER_SETS,
                             ids=lambda c: c[0].lstrip("+").split(",")[0])
    def test_new_events_short_budget(self, tmp_path, counters):
        _assert_engines_agree(tmp_path, seed=2, size=5, counters=counters)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", list(range(3, 13)))
    @pytest.mark.parametrize("counters", EXTENDED_COUNTER_SETS,
                             ids=lambda c: c[0].lstrip("+").split(",")[0])
    def test_new_events_long_budget(self, tmp_path, seed, counters):
        _assert_engines_agree(tmp_path, seed, size=10, counters=counters)
