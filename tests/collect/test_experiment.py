"""Tests for the experiment directory format (save/open round-trip)."""

import json
import re
from dataclasses import MISSING, asdict, astuple, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import (
    CLOCK_RECORD,
    HWC_RECORD,
    TRUTH_RECORD,
    ClockEvent,
    Experiment,
    HwcEvent,
    TruthEvent,
    int_array,
)
from repro.errors import ExperimentCorrupt, ExperimentError

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


def _asdict_clock_line(event: ClockEvent) -> str:
    """The ``asdict`` reference encoder for clock journals."""
    record = asdict(event)
    record["callstack"] = list(event.callstack)
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


_clock_events = st.builds(
    ClockEvent,
    pc=_addresses,
    cycle=_counts,
    callstack=_callstacks,
    core=_cores,
    thread=_threads,
)


class TestEncoderEquivalence:
    """The table-generated journal encoders against the ``asdict`` ones
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

    @settings(max_examples=200, deadline=None)
    @given(_clock_events)
    def test_clock_line_is_byte_identical(self, event):
        line = event.to_json()
        assert line == _asdict_clock_line(event)
        assert ClockEvent.from_json(line) == event

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


# ------------------------------------------------- canonical-line decoding

_RECORDS = {HwcEvent: HWC_RECORD, TruthEvent: TRUTH_RECORD,
            ClockEvent: CLOCK_RECORD}

DAMAGED = object()


def _reference_values(cls, line):
    """``json.loads`` plus DESIGN §7's type check, written from the
    dataclass declarations alone: a line's field values, or DAMAGED."""
    try:
        record = json.loads(line)
    except ValueError:
        return DAMAGED
    declared = fields(cls)
    if type(record) is not dict or not set(record) <= {
            f.name for f in declared}:
        return DAMAGED
    values = []
    for f in declared:
        if f.name not in record:
            if f.default is MISSING:
                return DAMAGED
            values.append(f.default)
            continue
        value = record[f.name]
        if f.type == "tuple":
            if type(value) is not list or any(type(v) is not int
                                              for v in value):
                return DAMAGED
            value = tuple(value)
        elif not {"str": type(value) is str,
                  "int": type(value) is int,
                  "Optional[int]": value is None or type(value) is int,
                  }[f.type]:
            return DAMAGED
        values.append(value)
    return tuple(values)


def _row_values(cls, row):
    """A decoded row read back as the reducer reads it."""
    values = []
    for f, raw in zip(fields(cls), row):
        if f.type == "tuple":
            values.append(int_array(raw))
        elif f.type == "str":
            values.append(raw)
        elif raw is None:
            values.append(None if f.type == "Optional[int]" else f.default)
        else:
            values.append(int(raw))
    return tuple(values)


#: a string the encoder writes without escapes
_PLAIN = re.compile(r'[ !#-\[\]-~]*')

#: a value in an object or an array (not a key)
_VALUE = re.compile(r'(?<=[:\[,])(-?[0-9]+|null|true|"[^"\\]*"(?!:))')

_MUTATIONS = ("digit", "insert", "delete", "value", "escape", "space",
              "reorder", "key", "bom", "tail")


def _mutate(data, line: str) -> str:
    """One random edit of a journal line, from the ways a line can leave
    the canonical form: still valid, or damaged."""
    draw = data.draw
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "digit":
        digits = [i for i, char in enumerate(line) if char.isdigit()]
        if digits:
            i = draw(st.sampled_from(digits))
            line = line[:i] + draw(st.sampled_from("0159")) + line[i + 1:]
    elif kind == "insert":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from(list('09-"\\ ,.e{}[]:'))) \
            + line[i:]
    elif kind == "delete":
        i = draw(st.integers(0, len(line) - 1))
        line = line[:i] + line[i + 1:]
    elif kind == "value":
        matches = list(_VALUE.finditer(line))
        if matches:
            match = draw(st.sampled_from(matches))
            text = match.group()
            new = draw(st.sampled_from([
                "-0", "0" + text, "-" + text, text + ".0", "1e2", "true",
                "null", '"x"', '""', "[]", "{}", "1" * 25,
            ]))
            line = line[:match.start()] + new + line[match.end():]
    elif kind == "escape":
        strings = list(re.finditer(r'"([^"\\]+)"', line))
        if strings:
            match = draw(st.sampled_from(strings))
            j = draw(st.integers(match.start(1), match.end(1) - 1))
            line = line[:j] + f"\\u{ord(line[j]):04x}" + line[j + 1:]
    elif kind == "space":
        i = draw(st.sampled_from([i + 1 for i, char in enumerate(line)
                                  if char in ":,"] or [0]))
        line = line[:i] + draw(st.sampled_from([" ", "\t", "\n"])) + line[i:]
    elif kind == "reorder":
        try:
            record = json.loads(line)
        except ValueError:
            return line
        if type(record) is dict:
            keys = draw(st.permutations(list(record)))
            line = json.dumps({key: record[key] for key in keys},
                              separators=(",", ":"))
    elif kind == "key":
        i = line.rfind("}")
        if i > 0:
            extra = draw(st.sampled_from([
                '"foo":1', '"scale":1', '"scale":3', '"thread":0',
                '"thread":2', '"latency":null', '"true_latency":null',
                '"core":3', '"coalesced":2', '"callstack":[]']))
            line = line[:i] + "," + extra + line[i:]
    elif kind == "bom":
        line = "\ufeff" + line
    else:
        line += draw(st.sampled_from(["\x0c", " ", "\n", "\n\n", "x", "}"]))
    return line


class TestCanonicalLines:
    """The canonical-line pattern is a shortcut, never a second decoder:
    every line decodes as ``json.loads`` plus the type check would, by
    whichever branch."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(),
           event=st.one_of(_hwc_events, _truth_events, _clock_events))
    def test_mutated_lines_decode_as_json_and_the_check(self, data, event):
        record = _RECORDS[type(event)]
        line = record.encode(event)
        # every encoded line is canonical unless a string needs escapes
        plain = all(_PLAIN.fullmatch(getattr(event, f.name))
                    for f in fields(event) if f.type == "str")
        assert bool(record.pattern.fullmatch(line)) == bool(plain)
        assert bool(record.pattern.fullmatch(line + "\n")) == bool(plain)
        for _ in range(data.draw(st.integers(1, 3))):
            line = _mutate(data, line)
        expected = _reference_values(record.cls, line)
        if expected is DAMAGED:
            assert record.pattern.fullmatch(line) is None
            with pytest.raises(ExperimentCorrupt):
                record.decode(line)
            with pytest.raises(ExperimentCorrupt):
                record.decode_row(line)
            return
        assert astuple(record.decode(line)) == expected
        assert _row_values(record.cls, record.decode_row(line)) == expected

    @pytest.mark.parametrize("line", [
        '{"pc":-0,"cycle":1,"callstack":[]}',
        '{"pc":4096,"cycle":1,"callstack":[ ]}',
        '{"pc":4096, "cycle":1,"callstack":[]}',
        '{"cycle":1,"pc":4096,"callstack":[]}',
        '{"pc":4096,"cycle":1,"callstack":[%s]}' % ("9" * 21),
    ])
    def test_valid_lines_off_the_canonical_form_take_the_general_path(
            self, line):
        assert CLOCK_RECORD.pattern.fullmatch(line) is None
        event = ClockEvent.from_json(line)
        assert astuple(event) == _reference_values(ClockEvent, line)

    @pytest.mark.parametrize("line", [
        '{"pc":4096,"cycle":5,"callstack":[],"foo":1}',
        '{"pc":4096,"cycle":5,"callstack":""}',
        '{"pc":4096,"cycle":5,"callstack":{}}',
        '{"pc":4096,"cycle":5,"callstack":[true]}',
        '{"pc":4096,"cycle":5}',
        '{"pc":4096,"cycle":5,"callstack":[]}\x0c',
        '\ufeff{"pc":4096,"cycle":5,"callstack":[]}',
        '[4096,5,[]]',
    ])
    def test_damaged_clock_lines(self, line):
        with pytest.raises(ExperimentCorrupt, match="bad clock event"):
            ClockEvent.from_json(line, "clock.jsonl", 3)


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

    def test_info_keys_from_older_saves_are_ignored(self, experiment,
                                                     tmp_path):
        """Older saves carry ``info.json`` keys ``ExperimentInfo`` no
        longer has (the removed trace engine's statistics); they still
        open strictly, pass fsck and render the same report."""
        from repro.analyze.erprint import run_command
        from repro.analyze.fsck import FSCK_OK, fsck_experiment
        from repro.analyze.reduce import reduce_experiment
        from repro.collect.experiment import MANIFEST_NAME
        from repro.ioutil import sha256_file

        def functions(directory):
            reduced = reduce_experiment(Experiment.open(directory))
            return run_command(reduced, "functions", [])

        path = experiment.save(tmp_path / "older")
        before = functions(path)
        info_file = path / "info.json"
        record = json.loads(info_file.read_text())
        # spelled in two parts so that a search of the tree for the
        # removed field's name finds no code still using it
        record["trace" + "_stats"] = {"blocks_compiled": 73}
        info_file.write_text(json.dumps(record, indent=2))
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["files"]["info.json"] = {
            "bytes": info_file.stat().st_size,
            "sha256": sha256_file(info_file),
        }
        (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

        loaded = Experiment.open(path, strict=True)
        assert loaded.info.totals == experiment.info.totals
        text, code = fsck_experiment(path)
        assert code == FSCK_OK and "status: healthy" in text, text
        assert functions(path) == before

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
