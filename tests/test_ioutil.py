"""The one crash-safe journal: the torn-line contract of ``scan_jsonl``,
recovery to a clean journal, the temp-path writer, and the canonical
encoder."""

import json

import pytest

from repro import build_executable, tiny_config
from repro.autotune.journal import SearchJournal
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import Experiment
from repro.fleet.spool import FleetPaths
from repro.fleet.store import wal_records, wal_recover
from repro.ioutil import (
    ScanStats,
    atomic_path,
    canonical_json,
    record_parser,
    recover_jsonl,
    scan_jsonl,
)

RECORDS = [{"type": "meta", "v": 1}, {"type": "trial", "id": 0},
           {"type": "trial", "id": 1}]
CLEAN = "".join(canonical_json(record) + "\n" for record in RECORDS)
parse = record_parser("type")

#: case -> (file text or None for no file, records kept, damaged lines,
#: torn last line, raises in strict mode)
CASES = {
    "clean": (CLEAN, RECORDS, 0, False, False),
    "blank lines": ("\n" + CLEAN.replace("\n", "\n \n"), RECORDS, 0, False, False),
    "damaged middle line": (
        CLEAN.replace("\n", "\ngarbage\n", 1), RECORDS, 1, False, True),
    "damaged last line with newline": (
        CLEAN + '{"type":"tri\n', RECORDS, 1, True, False),
    "unterminated undecodable tail": (
        CLEAN + '{"type":"trial","id":2,"cy', RECORDS, 1, True, False),
    "unterminated decodable tail": (CLEAN[:-1], RECORDS, 0, False, False),
    "missing file": (None, [], 0, False, False),
}


def _journal(tmp_path, text):
    path = tmp_path / "journal.jsonl"
    if text is not None:
        path.write_text(text)
    return path


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "salvage"])
@pytest.mark.parametrize("case", list(CASES))
def test_scan_contract(tmp_path, case, strict):
    text, records, damaged, torn, raises = CASES[case]
    path = _journal(tmp_path, text)
    stats = ScanStats()
    if strict and raises:
        with pytest.raises(ValueError, match="undecodable journal line 2"):
            list(scan_jsonl(path, parse, stats, strict))
        return
    assert list(scan_jsonl(path, parse, stats, strict)) == records
    assert stats.lines_skipped == damaged
    assert stats.lines_kept == len(records)
    assert (stats.torn is not None) == torn
    assert stats.terminated == (text is None or text.endswith("\n"))


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "salvage"])
@pytest.mark.parametrize("case", [
    "damaged last line with newline",
    "unterminated undecodable tail",
    "unterminated decodable tail",
])
def test_recover_leaves_a_clean_journal(tmp_path, case, strict):
    path = _journal(tmp_path, CASES[case][0])
    assert recover_jsonl(path, parse, strict) == RECORDS
    assert path.read_text() == CLEAN


def test_salvage_recover_drops_a_damaged_middle_line(tmp_path):
    path = _journal(tmp_path, CASES["damaged middle line"][0])
    assert recover_jsonl(path, parse, strict=False) == RECORDS
    assert path.read_text() == CLEAN


def test_recover_leaves_a_clean_journal_untouched(tmp_path):
    path = _journal(tmp_path, CLEAN)
    before = path.stat().st_mtime_ns, path.stat().st_ino
    assert recover_jsonl(path, parse) == RECORDS
    assert (path.stat().st_mtime_ns, path.stat().st_ino) == before


def test_atomic_path_keeps_the_old_target_when_the_body_raises(tmp_path):
    target = tmp_path / "program.pkl"
    target.write_bytes(b"old")
    with pytest.raises(OSError, match="disk full"):
        with atomic_path(target) as tmp:
            tmp.write_bytes(b"half")
            raise OSError("disk full")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["program.pkl"]


def test_atomic_path_replaces_the_target(tmp_path):
    target = tmp_path / "clock.jsonl"
    target.write_bytes(b"old")
    with atomic_path(target, durable=True) as tmp:
        assert tmp.parent == tmp_path and tmp.suffix == ".tmp"
        tmp.write_bytes(b"new")
    assert target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clock.jsonl"]


def test_canonical_json_is_the_compact_sorted_encoding():
    record = {"z": [3, {"b": None, "a": 1.5}], "a": {"y": "é", "x": [True]},
              "m": "line\nbreak"}
    assert canonical_json(record) == json.dumps(
        record, sort_keys=True, separators=(",", ":"))


# ----------------------------------------- the three readers share the rule

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


def test_experiment_keeps_an_unterminated_decodable_tail(tmp_path):
    config = CollectConfig(clock_profiling=True, clock_interval=211)
    experiment = collect(build_executable(SRC), tiny_config(), config)
    path = experiment.save(tmp_path / "run")
    (path / "manifest.json").unlink()
    clock = path / "clock.jsonl"
    clock.write_bytes(clock.read_bytes()[:-1])
    reopened = Experiment.open(path, strict=True)
    assert reopened.clock_events == experiment.clock_events


def test_wal_keeps_an_unterminated_decodable_tail(tmp_path):
    paths = FleetPaths(tmp_path / "fleet").ensure()
    records = [{"op": "begin", "entry": "e1", "sub": "s1"},
               {"op": "done", "entry": "e1"}]
    clean = "".join(canonical_json(record) + "\n" for record in records)
    paths.wal.write_text(clean[:-1])
    assert wal_records(paths) == (records, 0)
    assert wal_recover(paths) == {}
    assert paths.wal.read_text() == clean


def test_search_journal_keeps_an_unterminated_decodable_tail(tmp_path):
    journal = SearchJournal(tmp_path)
    journal.path.write_text(CLEAN[:-1])
    assert journal.read() == RECORDS
    assert journal.recover() == RECORDS
    assert journal.path.read_text() == CLEAN
