"""Salvage-mode analysis: fsck, damaged-directory opens, and the
kill-point x corruption-mode acceptance matrix.

The matrix is the PR's acceptance criterion: killing a collect run at an
arbitrary cycle — and then damaging the directory on top — must always
leave an experiment that ``fsck`` calls salvageable (exit 0) and that
still renders the Figure 1/Figure 6 reports under an ``(Incomplete)``
header.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro import build_executable, ioutil, tiny_config
from repro.analyze.erprint import run_command
from repro.analyze.fsck import (
    FSCK_NO_EXPERIMENT,
    FSCK_OK,
    FSCK_UNRECOVERABLE,
    fsck_experiment,
)
from repro.analyze.reduce import reduce_experiment
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import (
    ClockEvent,
    Experiment,
    HwcEvent,
    MANIFEST_NAME,
    TruthEvent,
)
from repro.errors import ExperimentCorrupt, ExperimentError, SimulatedCrash
from repro.faults import FaultPlan

SRC = """
struct cell { long v; long pad1; long pad2; long pad3; };
long main(long *input, long n) {
    struct cell *arr;
    long i; long j; long s;
    arr = (struct cell *) malloc(4096 * sizeof(struct cell));
    s = 0;
    for (j = 0; j < 4; j++)
        for (i = 0; i < 4096; i++)
            s = s + arr[i].v;
    return s & 255;
}
"""

COUNTERS = ["+ecrm,13", "+ecstall,59"]


@pytest.fixture(scope="module")
def program():
    return build_executable(SRC)


def _config():
    return CollectConfig(clock_profiling=True, clock_interval=211,
                         counters=COUNTERS)


@pytest.fixture(scope="module")
def baseline_cycles(program):
    """Total cycles of an undisturbed run — kill points scale off this."""
    experiment = collect(program, tiny_config(), _config())
    return experiment.info.totals["cycles"]


@pytest.fixture()
def saved(program, tmp_path):
    """A clean saved experiment directory to damage."""
    experiment = collect(program, tiny_config(), _config())
    return experiment.save(tmp_path / "clean")


def _truncate(path, fraction=0.5):
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])


def _bitflip(path, offset=100):
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


def _retype(path, key, value, index=1):
    """Set ``key`` of one journal line to a well-formed JSON value of the
    wrong type."""
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[index])
    record[key] = value
    lines[index] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


class TestFsck:
    def test_clean_directory_is_healthy(self, saved):
        text, code = fsck_experiment(saved)
        assert code == FSCK_OK
        assert "status: healthy" in text

    def test_not_a_directory(self, tmp_path):
        text, code = fsck_experiment(tmp_path / "nowhere.er")
        assert code == FSCK_NO_EXPERIMENT

    def test_truncated_file_reported_damaged(self, saved):
        _truncate(saved / "clock.jsonl")
        text, code = fsck_experiment(saved)
        assert code == FSCK_OK
        assert "DAMAGED" in text
        assert "clock.jsonl" in text
        assert "salvageable" in text

    def test_missing_file_reported(self, saved):
        (saved / "log.txt").unlink()
        text, code = fsck_experiment(saved)
        assert code == FSCK_OK
        assert "MISSING" in text

    def test_missing_program_is_unrecoverable(self, saved):
        (saved / "program.pkl").unlink()
        text, code = fsck_experiment(saved)
        assert code == FSCK_UNRECOVERABLE
        assert "unrecoverable" in text

    def test_stray_file_listed(self, saved):
        (saved / "notes.txt").write_text("scratch\n")
        text, _ = fsck_experiment(saved)
        assert "notes.txt" in text

    def test_each_manifest_file_is_hashed_once(self, saved, monkeypatch):
        """The salvage open reuses fsck's manifest findings instead of
        checksumming every file a second time."""
        hashed = Counter()
        original = ioutil.sha256_file

        def counting(path):
            hashed[Path(path).name] += 1
            return original(path)

        monkeypatch.setattr(ioutil, "sha256_file", counting)
        text, code = fsck_experiment(saved)
        assert code == FSCK_OK and "status: healthy" in text
        files = Experiment.read_manifest(saved)["files"]
        assert hashed == Counter(dict.fromkeys(files, 1))


class TestSalvageOpen:
    def test_truncated_clock_skips_partial_line(self, saved):
        full = Experiment.open(saved, strict=False)
        _truncate(saved / "clock.jsonl")
        exp = Experiment.open(saved, strict=False)
        stats = exp.salvage.files["clock.jsonl"]
        assert stats.lines_skipped >= 1
        assert 0 < len(exp.clock_events) < len(full.clock_events)
        assert exp.incomplete
        assert "checksum mismatch" in exp.salvage.summary()

    def test_bitflipped_hwc_skips_bad_lines_keeps_rest(self, saved):
        _bitflip(saved / "hwc1.jsonl")
        exp = Experiment.open(saved, strict=False)
        stats = exp.salvage.files["hwc1.jsonl"]
        assert stats.lines_skipped >= 1
        assert stats.lines_kept > 0
        assert stats.first_error
        with pytest.raises(ExperimentCorrupt):
            Experiment.open(saved, strict=True)

    def test_wrong_typed_hwc_line_skipped(self, saved):
        """A line whose field has the wrong type is damage, not data: the
        reducer must never see it."""
        _retype(saved / "hwc0.jsonl", "weight", "abc")
        text, code = fsck_experiment(saved)
        assert code == FSCK_OK
        assert "hwc0.jsonl: skipped 1/" in text
        reduced = reduce_experiment(Experiment.open(saved, strict=False))
        assert run_command(reduced, "functions", []).startswith("(Incomplete)")
        with pytest.raises(ExperimentCorrupt):
            list(ioutil.scan_jsonl(saved / "hwc0.jsonl", HwcEvent.from_json,
                                   ioutil.ScanStats(), strict=True))

    @pytest.mark.parametrize("name, parse, key, value", [
        ("hwc0.jsonl", HwcEvent.from_json, "weight", "abc"),
        ("hwc0.jsonl", HwcEvent.from_json, "counter", True),
        ("hwc0.jsonl", HwcEvent.from_json, "cycle", 1.0),
        ("hwc0.jsonl", HwcEvent.from_json, "candidate_pc", "4"),
        ("hwc0.jsonl", HwcEvent.from_json, "status", 3),
        ("hwc0.jsonl", HwcEvent.from_json, "callstack", [1, "2"]),
        ("clock.jsonl", ClockEvent.from_json, "pc", "4"),
        ("clock.jsonl", ClockEvent.from_json, "callstack", [False]),
        ("truth.jsonl", TruthEvent.from_json, "true_skid", 2.0),
        ("truth.jsonl", TruthEvent.from_json, "true_effective_address", "x"),
        ("truth.jsonl", TruthEvent.from_json, "regs", [0, None]),
    ])
    def test_wrong_typed_field_is_corrupt(self, saved, name, parse, key,
                                          value):
        path = saved / name
        parse(path.read_text().splitlines()[1])  # the untouched line parses
        _retype(path, key, value)
        with pytest.raises(ExperimentCorrupt, match="wrong type"):
            parse(path.read_text().splitlines()[1], name, 2)

    @pytest.mark.parametrize("name, parse, key, value", [
        ("hwc0.jsonl", HwcEvent.from_json, "callstack", ""),
        ("hwc0.jsonl", HwcEvent.from_json, "callstack", {}),
        ("clock.jsonl", ClockEvent.from_json, "callstack", ""),
        ("clock.jsonl", ClockEvent.from_json, "callstack", {}),
        ("truth.jsonl", TruthEvent.from_json, "regs", ""),
        ("truth.jsonl", TruthEvent.from_json, "regs", {}),
        ("clock.jsonl", ClockEvent.from_json, "foo", 1),
        ("hwc0.jsonl", HwcEvent.from_json, "foo", 1),
        ("truth.jsonl", TruthEvent.from_json, "foo", 1),
    ])
    def test_one_damage_rule_for_every_journal(self, saved, name, parse,
                                               key, value):
        """An empty string or object where an int array belongs, or an
        unknown key, damages a line of each journal alike: salvage skips
        and counts it, and a strict scan refuses it."""
        path = saved / name
        lines = len(path.read_text().splitlines())
        _retype(path, key, value)
        stats = Experiment.open(saved, strict=False).salvage.files[name]
        assert (stats.lines_read, stats.lines_skipped,
                stats.lines_kept) == (lines, 1, lines - 1)
        if name != "truth.jsonl":
            reduced = reduce_experiment(Experiment.open(saved, strict=False))
            assert reduced.incomplete and name in reduced.incomplete_reason
        with pytest.raises(ExperimentCorrupt):
            list(ioutil.scan_jsonl(path, parse, ioutil.ScanStats(),
                                   strict=True))

    def test_deleted_optional_files_tolerated(self, saved):
        (saved / "log.txt").unlink()
        (saved / "map.txt").unlink()
        exp = Experiment.open(saved, strict=False)
        assert "log.txt" in exp.salvage.missing
        assert exp.hwc_events  # data intact

    def test_deleted_info_defaults(self, saved):
        (saved / "info.json").unlink()
        exp = Experiment.open(saved, strict=False)
        assert exp.info.totals == {}
        assert exp.incomplete
        with pytest.raises(ExperimentError):
            Experiment.open(saved, strict=True)

    def test_deleted_manifest_noted(self, saved):
        (saved / MANIFEST_NAME).unlink()
        exp = Experiment.open(saved, strict=False)
        assert any("manifest" in note for note in exp.salvage.damage)

    def test_deleted_program_fails_even_in_salvage(self, saved):
        (saved / "program.pkl").unlink()
        with pytest.raises(ExperimentError):
            Experiment.open(saved, strict=False)

    def test_reports_carry_incomplete_header(self, saved):
        _truncate(saved / "clock.jsonl")
        exp = Experiment.open(saved, strict=False)
        reduced = reduce_experiment(exp)
        assert reduced.incomplete
        for command in ("overview", "functions", "data_objects"):
            output = run_command(reduced, command, [])
            assert output.startswith("(Incomplete)"), command

    def test_clean_reports_have_no_header(self, saved):
        exp = Experiment.open(saved, strict=False)
        reduced = reduce_experiment(exp)
        assert not run_command(reduced, "functions", []).startswith("(Incomplete)")


def _corrupt_none(path):
    pass


def _corrupt_truncate_clock(path):
    _truncate(path / "clock.jsonl")


def _corrupt_bitflip_hwc(path):
    for hwc in sorted(path.glob("hwc*.jsonl")):
        _bitflip(hwc)
        return


def _corrupt_delete_log(path):
    (path / "log.txt").unlink(missing_ok=True)
    (path / "map.txt").unlink(missing_ok=True)


class TestAcceptanceMatrix:
    """kill points x corruption modes: every cell must stay analyzable."""

    KILL_FRACTIONS = (0.25, 0.5, 0.8)
    CORRUPTIONS = (
        ("none", _corrupt_none),
        ("truncate-clock", _corrupt_truncate_clock),
        ("bitflip-hwc", _corrupt_bitflip_hwc),
        ("delete-logs", _corrupt_delete_log),
    )

    @pytest.mark.parametrize("fraction", KILL_FRACTIONS)
    @pytest.mark.parametrize("corruption", [c[0] for c in CORRUPTIONS])
    def test_killed_then_corrupted_run_still_analyzes(
            self, program, baseline_cycles, tmp_path, fraction, corruption):
        kill_at = int(baseline_cycles * fraction)
        plan = FaultPlan(seed=int(fraction * 100), kill_at_cycle=kill_at)
        target = tmp_path / f"kill{int(fraction * 100)}"
        with pytest.raises(SimulatedCrash):
            collect(program, tiny_config(), _config(), save_to=target,
                    fault_plan=plan)
        path = target.with_suffix(".er")
        dict(self.CORRUPTIONS)[corruption](path)

        # 1. fsck must call the directory salvageable
        text, code = fsck_experiment(path)
        assert code == FSCK_OK, text

        # 2. salvage open succeeds and knows it is partial
        exp = Experiment.open(path, strict=False)
        assert exp.incomplete
        assert "SimulatedCrash" in exp.info.fault
        assert exp.hwc_events, "no counter events survived"

        # 3. the Figure 1 and Figure 6 reports still render, flagged
        reduced = reduce_experiment(exp)
        for command in ("functions", "data_objects"):
            output = run_command(reduced, command, [])
            assert output.startswith("(Incomplete)"), (fraction, corruption)
            assert "SimulatedCrash" in output.splitlines()[0]
