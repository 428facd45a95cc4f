"""Tests for the experiment directory format (save/open round-trip)."""

import json
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import (
    ClockEvent,
    Experiment,
    HwcEvent,
    TruthEvent,
)
from repro.errors import ExperimentError

SRC = """
long main(long *input, long n) {
    long *a; long i; long s;
    a = (long *) malloc(4096);
    s = 0;
    for (i = 0; i < 512; i++) a[i] = i;
    for (i = 0; i < 512; i++) s = s + a[i];
    return s & 255;
}
"""


@pytest.fixture(scope="module")
def experiment():
    program = build_executable(SRC)
    cfg = CollectConfig(
        clock_profiling=True, clock_interval=211, counters=["+ecrm,13", "+ecstall,59"]
    )
    return collect(program, tiny_config(), cfg)


class TestEventSerialization:
    def test_hwc_event_roundtrip(self):
        event = HwcEvent(
            counter=1, event="ecrm", weight=13, trap_pc=0x100003000,
            candidate_pc=0x100002FF8, effective_address=0x100400020,
            status="found", ea_reason="", cycle=123456, callstack=(1, 2, 3),
        )
        assert HwcEvent.from_json(event.to_json()) == event

    def test_hwc_event_with_nones(self):
        event = HwcEvent(
            counter=0, event="ecref", weight=7, trap_pc=16,
            candidate_pc=None, effective_address=None,
            status="not_found", ea_reason="no_candidate", cycle=1, callstack=(),
        )
        assert HwcEvent.from_json(event.to_json()) == event

    def test_clock_event_roundtrip(self):
        event = ClockEvent(pc=0x100003210, cycle=999, callstack=(0x100003000,))
        assert ClockEvent.from_json(event.to_json()) == event


# ------------------------------------------------- encoder equivalence

def _asdict_hwc_line(event: HwcEvent) -> str:
    """The ``dataclasses.asdict`` encoder hwc journals were written with
    before the field-by-field one; kept as the byte-identity reference."""
    record = asdict(event)
    record["callstack"] = list(event.callstack)
    if record["latency"] is None:
        del record["latency"]
    if record["scale"] == 1:
        del record["scale"]
    if record["core"] == 0:
        del record["core"]
    if record["thread"] == 0:
        del record["thread"]
    return json.dumps(record, separators=(",", ":"))


def _asdict_truth_line(event: TruthEvent) -> str:
    """The ``asdict`` reference encoder for truth journals."""
    record = asdict(event)
    record["regs"] = list(event.regs)
    if record["true_latency"] is None:
        del record["true_latency"]
    if record["core"] == 0:
        del record["core"]
    if record["thread"] == 0:
        del record["thread"]
    return json.dumps(record, separators=(",", ":"))


_addresses = st.integers(min_value=0, max_value=(1 << 64) - 1)
_words = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
_counts = st.integers(min_value=0, max_value=1 << 48)
_events = st.sampled_from(["ecstall", "ecrm", "ecref", "dtlbm", "ldlat",
                           "cohm", "cycles"])
#: short stacks as recorded on shallow code, plus long ones (deep recursion)
_callstacks = st.one_of(
    st.lists(_addresses, max_size=8),
    st.lists(_addresses, min_size=100, max_size=400),
).map(tuple)
_scales = st.one_of(st.just(1), st.integers(min_value=2, max_value=16))
_cores = st.one_of(st.just(0), st.integers(min_value=1, max_value=7))
_threads = st.one_of(st.just(0), st.integers(min_value=1, max_value=63))

_hwc_events = st.builds(
    HwcEvent,
    counter=st.integers(min_value=0, max_value=1),
    event=_events,
    weight=_counts,
    trap_pc=_addresses,
    candidate_pc=st.none() | _addresses,
    effective_address=st.none() | _addresses,
    status=st.sampled_from(["found", "not_found", "disabled"]),
    ea_reason=st.text(max_size=12),
    cycle=_counts,
    callstack=_callstacks,
    coalesced=st.integers(min_value=1, max_value=64),
    latency=st.none() | _counts,
    scale=_scales,
    core=_cores,
    thread=_threads,
)

_truth_events = st.builds(
    TruthEvent,
    seq=_counts,
    counter=st.integers(min_value=0, max_value=1),
    event=_events,
    trap_pc=_addresses,
    cycle=_counts,
    true_trigger_pc=_addresses,
    true_effective_address=st.none() | _addresses,
    true_skid=st.integers(min_value=0, max_value=64),
    coalesced=st.integers(min_value=1, max_value=64),
    regs=st.lists(_words, max_size=32).map(tuple),
    true_latency=st.none() | _counts,
    core=_cores,
    thread=_threads,
)


class TestEncoderEquivalence:
    """The field-by-field journal encoders against the ``asdict`` ones
    every committed journal was written with."""

    @settings(max_examples=300, deadline=None)
    @given(_hwc_events)
    def test_hwc_line_is_byte_identical(self, event):
        line = event.to_json()
        assert line == _asdict_hwc_line(event)
        assert HwcEvent.from_json(line) == event

    @settings(max_examples=300, deadline=None)
    @given(_truth_events)
    def test_truth_line_is_byte_identical(self, event):
        line = event.to_json()
        assert line == _asdict_truth_line(event)
        assert TruthEvent.from_json(line) == event

    def test_hwc_emittable_keys_are_every_field(self):
        # every optional field set to a value that is not elided: a field
        # added to the dataclass but not to the encoder fails here
        event = HwcEvent(
            counter=1, event="ldlat", weight=3, trap_pc=8, candidate_pc=4,
            effective_address=64, status="found", ea_reason="", cycle=9,
            callstack=(1,), coalesced=2, latency=40, scale=2, core=1,
            thread=3,
        )
        emitted = json.loads(event.to_json())
        assert list(emitted) == [f.name for f in fields(HwcEvent)]

    def test_truth_emittable_keys_are_every_field(self):
        event = TruthEvent(
            seq=5, counter=0, event="ldlat", trap_pc=8, cycle=9,
            true_trigger_pc=4, true_effective_address=64, true_skid=1,
            coalesced=1, regs=(0, -1), true_latency=40, core=2, thread=1,
        )
        emitted = json.loads(event.to_json())
        assert list(emitted) == [f.name for f in fields(TruthEvent)]


class TestDirectoryFormat:
    def test_save_creates_er_directory(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run1")
        assert path.name == "run1.er"
        for name in ("log.txt", "info.json", "program.pkl", "clock.jsonl"):
            assert (path / name).exists()
        assert (path / "hwc0.jsonl").exists()
        assert (path / "hwc1.jsonl").exists()

    def test_info_json_is_valid(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run2")
        info = json.loads((path / "info.json").read_text())
        assert info["totals"]["cycles"] > 0
        assert len(info["counters"]) == 2

    def test_roundtrip_preserves_events(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run3")
        loaded = Experiment.open(path)
        assert len(loaded.hwc_events) == len(experiment.hwc_events)
        assert len(loaded.clock_events) == len(experiment.clock_events)
        assert sorted(loaded.hwc_events, key=lambda e: (e.cycle, e.counter)) == sorted(
            experiment.hwc_events, key=lambda e: (e.cycle, e.counter)
        )
        assert loaded.info.totals == experiment.info.totals

    def test_roundtrip_preserves_program(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run4")
        loaded = Experiment.open(path)
        assert len(loaded.program.code) == len(experiment.program.code)
        assert loaded.program.function("main").start == (
            experiment.program.function("main").start
        )

    def test_reduction_works_on_reloaded_experiment(self, experiment, tmp_path):
        from repro.analyze.reduce import reduce_experiment

        path = experiment.save(tmp_path / "run5")
        loaded = Experiment.open(path)
        reduced = reduce_experiment(loaded)
        direct = reduce_experiment(experiment)
        assert dict(reduced.total) == pytest.approx(dict(direct.total))

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(ExperimentError):
            Experiment.open(tmp_path / "nope.er")

    def test_open_rejects_incomplete_directory(self, tmp_path):
        bad = tmp_path / "bad.er"
        bad.mkdir()
        with pytest.raises(ExperimentError):
            Experiment.open(bad)

    def test_save_requires_program(self, tmp_path):
        exp = Experiment("empty")
        with pytest.raises(ExperimentError):
            exp.save(tmp_path / "empty")


class TestMapFile:
    def test_map_txt_written(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "mapped")
        text = (path / "map.txt").read_text()
        assert "main" in text
        assert "librt" in text       # runtime module present
        assert "hwcprof" in text     # user module flagged
