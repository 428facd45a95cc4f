"""Experiment directories (paper §2.2: "the result of a collect run is an
experiment, which is a file-system directory").

Layout::

    <name>.er/
      log.txt        timestamped trace of high-level collection events
      map.txt        the loadobjects map: modules + function address ranges
      info.json      counter configuration + machine ground-truth totals
      program.pkl    the executable image (plays the role of a.out + DWARF)
      clock.jsonl    one clock-profile event per line
      hwc<k>.jsonl   one counter-overflow event per line, per PIC register
      truth.jsonl    ground-truth side channel: the *true* trigger PC and
                     effective address of every overflow trap, as the
                     simulator knew them (diagnostic only — the profile
                     reports never read it; the attribution oracle joins
                     it against hwc<k>.jsonl)
      manifest.json  per-file line counts + SHA-256 checksums + format version

Experiments also work fully in memory (``save=None``) so tests and quick
analyses avoid disk I/O; ``Experiment.open`` reads a saved directory back.

Crash safety
------------

A collect run that writes to disk *journals* as it goes
(:meth:`Experiment.start_journal`): events are appended to their JSONL
files with periodic flushes, and the program image plus a provisional
``info.json`` are persisted up front — so a crash at any cycle leaves a
partial but salvageable directory.  ``save()`` then *finalizes*: the
metadata files are rewritten atomically (tmp + rename) and
``manifest.json`` is written last, sealing the directory with checksums.
The program image is pickled once, up front; finalizing does not
rewrite it.

``Experiment.open(strict=False)`` is the salvage path: it tolerates a
missing manifest and missing optional files, skips malformed or
truncated JSONL lines, and reports everything it skipped in
:attr:`Experiment.salvage` so the analyzer can flag the profile as
``(Incomplete)`` instead of refusing to load it.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .. import ioutil
from ..compiler.program import Program
from ..errors import ExperimentCorrupt, ExperimentError

#: version stamp of the on-disk experiment format
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: subdirectory holding derived data (the reduction cache); never part of
#: the manifest and dropped when the directory is re-collected into
CACHE_DIR_NAME = "cache"

#: journal flush cadence, in recorded lines (bounds data lost to a crash)
JOURNAL_FLUSH_LINES = 256

#: files the analyzer can do without (their loss degrades, not kills);
#: truth.jsonl only feeds the attribution oracle, never the profile
OPTIONAL_FILES = ("log.txt", "map.txt", "truth.jsonl")


# ---------------------------------------------------------------- helpers

#: write via unique tmp + rename so readers never see a half-written file
#: (shared primitive; the reduction cache and fleet store use it too)
_atomic_write_text = ioutil.atomic_write_text

#: streaming SHA-256 (manifest checksums, fleet dedup keys)
_sha256_file = ioutil.sha256_file


def _count_lines(path: Path) -> int:
    count = 0
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            count += chunk.count(b"\n")
    return count


def _normalize_dir(directory) -> Path:
    path = Path(directory)
    if path.suffix != ".er":
        path = path.with_suffix(".er")
    return path


# ----------------------------------------------------------------- events

@dataclass(frozen=True)
class HwcEvent:
    """One counter-overflow profile event, as recorded at collection time."""

    counter: int          # PIC register index
    event: str            # event name, e.g. "ecrm"
    weight: int           # events represented (interval x coalesced)
    trap_pc: int
    candidate_pc: Optional[int]
    effective_address: Optional[int]
    status: str           # backtrack status: found/not_found/disabled
    ea_reason: str
    cycle: int
    callstack: tuple
    #: intervals coalesced into this single trap: one large recorded amount
    #: can cross several overflow intervals, but the hardware raises only
    #: one trap for them (defaulted for experiments saved before the field
    #: existed)
    coalesced: int = 1
    #: for sampled-latency (``ldlat``) events: the sampled load's latency
    #: in cycles as delivered by the trap (None for every other event)
    latency: Optional[int] = None
    #: weight multiplier for time-multiplexed runs: the counter was live
    #: for only 1/scale of the run, so reduction scales the weight up and
    #: reports flag the result as an estimate (1 on dedicated-pass runs)
    scale: int = 1
    #: which core's PIC raised the trap and which software thread was
    #: running on it (both 0 on single-core runs, and then absent on the
    #: wire — single-core journals stay byte-identical to old recordings)
    core: int = 0
    thread: int = 0

    def to_json(self) -> str:
        """Serialize to one JSON line.

        The record is built field by field in declaration order — the
        order ``dataclasses.asdict`` gave older recordings — so journals
        stay byte-identical without deep-copying every trap.  A new field
        must be added here too (a test pins the emitted keys to
        :func:`dataclasses.fields`).
        """
        record = {
            "counter": self.counter, "event": self.event,
            "weight": self.weight, "trap_pc": self.trap_pc,
            "candidate_pc": self.candidate_pc,
            "effective_address": self.effective_address,
            "status": self.status, "ea_reason": self.ea_reason,
            "cycle": self.cycle, "callstack": list(self.callstack),
            "coalesced": self.coalesced,
        }
        # keep journals byte-identical to pre-taxonomy recordings: the new
        # fields appear on the wire only when they carry information
        if self.latency is not None:
            record["latency"] = self.latency
        if self.scale != 1:
            record["scale"] = self.scale
        if self.core:
            record["core"] = self.core
        if self.thread:
            record["thread"] = self.thread
        return json.dumps(record, separators=(",", ":"))

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "HwcEvent":
        """Parse one JSON line back into an event.

        Malformed input (bad JSON, missing keys, wrong shapes) raises
        :class:`ExperimentCorrupt` carrying ``source``/``lineno`` context
        instead of leaking raw json/KeyError/TypeError.
        """
        try:
            record = json.loads(line)
            record["callstack"] = tuple(record["callstack"])
            return HwcEvent(**record)
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise ExperimentCorrupt(
                f"bad HWC event: {error}", file=source, line=lineno
            ) from error


@dataclass(frozen=True)
class TruthEvent:
    """Ground truth for one counter-overflow trap (oracle side channel).

    Recorded from the simulator's own diagnostics at the moment the
    matching :class:`HwcEvent` is recorded, one line per trap, in the
    same per-counter order — so the k-th truth row for a PIC register
    joins the k-th event in that register's ``hwc<k>.jsonl``.  ``seq``
    numbers the traps globally across counters; ``trap_pc``/``cycle``
    duplicate the profile row so a join can verify it paired the right
    lines.  ``regs`` is the delivered register file, letting the oracle
    decide whether a clobber report was honest.  None of this is visible
    to the profile reports: real hardware could not have produced it.
    """

    seq: int
    counter: int
    event: str
    trap_pc: int
    cycle: int
    true_trigger_pc: int
    #: the triggering access's address; None for non-memory events
    true_effective_address: Optional[int]
    true_skid: int
    coalesced: int
    regs: tuple
    #: for sampled-latency (``ldlat``) traps: the delivered latency in
    #: cycles, journaled so the oracle can check the profile row against
    #: it (None for every other event)
    true_latency: Optional[int] = None
    #: raising core and resident software thread (0/0 — and absent on the
    #: wire — for single-core runs)
    core: int = 0
    thread: int = 0

    def to_json(self) -> str:
        """Serialize to one JSON line (field by field, as in
        :meth:`HwcEvent.to_json`)."""
        record = {
            "seq": self.seq, "counter": self.counter, "event": self.event,
            "trap_pc": self.trap_pc, "cycle": self.cycle,
            "true_trigger_pc": self.true_trigger_pc,
            "true_effective_address": self.true_effective_address,
            "true_skid": self.true_skid, "coalesced": self.coalesced,
            "regs": list(self.regs),
        }
        # as in HwcEvent.to_json: absent unless it carries information
        if self.true_latency is not None:
            record["true_latency"] = self.true_latency
        if self.core:
            record["core"] = self.core
        if self.thread:
            record["thread"] = self.thread
        return json.dumps(record, separators=(",", ":"))

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "TruthEvent":
        """Parse one JSON line back into an event (see HwcEvent.from_json)."""
        try:
            record = json.loads(line)
            record["regs"] = tuple(record["regs"])
            return TruthEvent(**record)
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise ExperimentCorrupt(
                f"bad truth event: {error}", file=source, line=lineno
            ) from error


@dataclass(frozen=True)
class ClockEvent:
    """One clock-profile tick (SIGPROF).  Cannot be backtracked."""

    pc: int
    cycle: int
    callstack: tuple
    #: ticking core and resident software thread (0/0 — and absent on the
    #: wire — for single-core runs)
    core: int = 0
    thread: int = 0

    def to_json(self) -> str:
        """Serialize to one JSON line."""
        record = {
            "pc": self.pc, "cycle": self.cycle,
            "callstack": list(self.callstack),
        }
        if self.core:
            record["core"] = self.core
        if self.thread:
            record["thread"] = self.thread
        return json.dumps(record, separators=(",", ":"))

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "ClockEvent":
        """Parse one JSON line back into an event (see HwcEvent.from_json)."""
        try:
            record = json.loads(line)
            return ClockEvent(
                record["pc"], record["cycle"], tuple(record["callstack"]),
                record.get("core", 0), record.get("thread", 0),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise ExperimentCorrupt(
                f"bad clock event: {error}", file=source, line=lineno
            ) from error


@dataclass
class ExperimentInfo:
    """Collection parameters + end-of-run ground truth."""

    counters: list = field(default_factory=list)  # [{name, interval, backtrack, register}]
    clock_interval_cycles: int = 0
    clock_hz: float = 0.0
    totals: dict = field(default_factory=dict)
    exit_code: int = 0
    instructions: int = 0
    heap_page_bytes: int = 0
    #: E$ line size of the collecting machine (0 in experiments saved
    #: before the field existed; the analyzer falls back to 512)
    ecache_line_bytes: int = 0
    #: core count of the collecting machine (1 in experiments saved
    #: before multi-core existed)
    cores: int = 1
    config_name: str = ""
    #: [name, base, size, page_bytes] for each mapped segment
    segments: list = field(default_factory=list)
    #: [addr, size, start_cycle, end_cycle(-1 if live), callsite_pc] per
    #: heap allocation (instance-level analysis, paper §4)
    allocations: list = field(default_factory=list)
    #: True when the run did not finish (crash, watchdog, interrupt)
    incomplete: bool = False
    #: what ended an incomplete run, e.g. "SimulatedCrash: ..."
    fault: str = ""
    #: trace-engine compilation/dispatch counters (empty unless the run
    #: used ``engine="trace"``); diagnostic only, never part of the profile
    trace_stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------- salvage

@dataclass
class FileSalvage:
    """Per-file outcome of a salvage-mode read."""

    lines_read: int = 0
    lines_kept: int = 0
    lines_skipped: int = 0
    first_error: str = ""


@dataclass
class SalvageReport:
    """Everything ``open(strict=False)`` skipped, aggregated or defaulted."""

    files: dict = field(default_factory=dict)   # name -> FileSalvage
    missing: list = field(default_factory=list)
    damage: list = field(default_factory=list)  # free-form notes

    def file(self, name: str) -> FileSalvage:
        stats = self.files.get(name)
        if stats is None:
            stats = FileSalvage()
            self.files[name] = stats
        return stats

    def note(self, message: str) -> None:
        self.damage.append(message)

    @property
    def clean(self) -> bool:
        """True when nothing was skipped, missing, or defaulted."""
        return (
            not self.missing
            and not self.damage
            and all(s.lines_skipped == 0 for s in self.files.values())
        )

    def summary(self) -> str:
        """One line per problem, empty string when clean."""
        lines = list(self.damage)
        lines.extend(f"missing file: {name}" for name in self.missing)
        for name, stats in sorted(self.files.items()):
            if stats.lines_skipped:
                lines.append(
                    f"{name}: skipped {stats.lines_skipped}/{stats.lines_read} "
                    f"lines ({stats.first_error})"
                )
        return "\n".join(lines)


class Experiment:
    """A collect run's recorded data."""

    def __init__(self, name: str = "experiment") -> None:
        self.name = name
        self.program: Optional[Program] = None
        self.info = ExperimentInfo()
        self.hwc_events: list[HwcEvent] = []
        self.clock_events: list[ClockEvent] = []
        self.truth_events: list[TruthEvent] = []
        self.log_lines: list[str] = []
        #: set by ``open(strict=False)``; None for in-memory experiments
        self.salvage: Optional[SalvageReport] = None
        # journal state (crash-safe incremental recording)
        self._journal_dir: Optional[Path] = None
        self._streams: dict[str, object] = {}
        self._unflushed = 0
        # streaming-read state (events left on disk by open_streaming)
        self._stream_dir: Optional[Path] = None
        self._stream_strict = False

    # ------------------------------------------------------------ status

    @property
    def incomplete(self) -> bool:
        """True when the profile is known to be partial (crashed run or
        salvaged damage)."""
        return self.info.incomplete or (
            self.salvage is not None and not self.salvage.clean
        )

    def incomplete_reason(self) -> str:
        """Human-readable cause of incompleteness ('' when complete)."""
        reasons = []
        if self.info.incomplete:
            reasons.append(self.info.fault or "run did not finish")
        if self.salvage is not None and not self.salvage.clean:
            reasons.append(self.salvage.summary().replace("\n", "; "))
        return "; ".join(reasons)

    # -------------------------------------------------------------- logging

    def log(self, message: str) -> None:
        """Append a timestamped line to the experiment log."""
        line = f"{time.time():.6f} {message}"
        self.log_lines.append(line)
        if self._journal_dir is not None:
            self._journal_write("log.txt", line)

    # -------------------------------------------------------------- record

    def record_hwc(self, event: HwcEvent) -> None:
        """Record one counter-overflow event."""
        self.hwc_events.append(event)
        if self._journal_dir is not None:
            self._journal_write(f"hwc{event.counter}.jsonl", event.to_json())

    def record_clock(self, event: ClockEvent) -> None:
        """Record one clock-profiling tick."""
        self.clock_events.append(event)
        if self._journal_dir is not None:
            self._journal_write("clock.jsonl", event.to_json())

    def record_truth(self, event: TruthEvent) -> None:
        """Record one ground-truth row into the oracle side channel."""
        self.truth_events.append(event)
        if self._journal_dir is not None:
            self._journal_write("truth.jsonl", event.to_json())

    # ---------------------------------------------------- event iteration

    def iter_clock_events(self):
        """Clock events, in recorded order.

        For experiments opened with :meth:`open_streaming` the events are
        parsed straight off the journal, one line at a time, so the whole
        profile never has to fit in memory.
        """
        if self._stream_dir is None:
            yield from self.clock_events
            return
        clock_file = self._stream_dir / "clock.jsonl"
        if clock_file.exists():
            yield from Experiment._iter_jsonl(
                clock_file, ClockEvent.from_json, self._stream_strict,
                self.salvage,
            )

    def iter_hwc_events(self):
        """HW-counter events, grouped per journal file in file order (the
        same order :meth:`open` materializes them in).  Streams from disk
        for :meth:`open_streaming` experiments."""
        if self._stream_dir is None:
            yield from self.hwc_events
            return
        for hwc_file in sorted(self._stream_dir.glob("hwc*.jsonl")):
            yield from Experiment._iter_jsonl(
                hwc_file, HwcEvent.from_json, self._stream_strict,
                self.salvage,
            )

    def iter_truth_events(self):
        """Ground-truth rows, in recorded order.  Streams from disk for
        :meth:`open_streaming` experiments; yields nothing when the
        experiment predates the truth side channel."""
        if self._stream_dir is None:
            yield from self.truth_events
            return
        truth_file = self._stream_dir / "truth.jsonl"
        if truth_file.exists():
            yield from Experiment._iter_jsonl(
                truth_file, TruthEvent.from_json, self._stream_strict,
                self.salvage,
            )

    # ------------------------------------------------------------- journal

    def start_journal(self, directory) -> Path:
        """Stream events to ``directory`` as they arrive.

        The directory immediately receives the program image and a
        provisional ``info.json`` (marked incomplete), so a crash at any
        later point — even a hard process kill — leaves a directory the
        salvage tooling can analyze.
        """
        if self.program is None:
            raise ExperimentError("cannot journal without a program image")
        path = _normalize_dir(directory)
        path.mkdir(parents=True, exist_ok=True)
        # drop stale event data from a previous run into the same directory
        # (including any reduction cache an analysis of the old data left)
        for stale in list(path.iterdir()):
            if stale.is_dir() and stale.name == CACHE_DIR_NAME:
                shutil.rmtree(stale, ignore_errors=True)
            elif stale.name == MANIFEST_NAME or stale.suffix in (".jsonl", ".tmp"):
                stale.unlink()
        self._journal_dir = path
        self._write_program(path)
        provisional = asdict(self.info)
        provisional["incomplete"] = True
        provisional["fault"] = provisional["fault"] or "collection in progress"
        _atomic_write_text(path / "info.json", json.dumps(provisional, indent=2))
        # replay anything recorded before journaling started
        for line in self.log_lines:
            self._journal_write("log.txt", line)
        for clock_event in self.clock_events:
            self._journal_write("clock.jsonl", clock_event.to_json())
        for hwc_event in self.hwc_events:
            self._journal_write(f"hwc{hwc_event.counter}.jsonl", hwc_event.to_json())
        for truth_event in self.truth_events:
            self._journal_write("truth.jsonl", truth_event.to_json())
        return path

    @property
    def journal_dir(self) -> Optional[Path]:
        """Where the journal streams to (None when in-memory)."""
        return self._journal_dir

    def _journal_write(self, filename: str, line: str) -> None:
        stream = self._streams.get(filename)
        if stream is None:
            assert self._journal_dir is not None
            stream = open(self._journal_dir / filename, "w")
            self._streams[filename] = stream
        stream.write(line + "\n")
        self._unflushed += 1
        if self._unflushed >= JOURNAL_FLUSH_LINES:
            self.flush_journal()

    def flush_journal(self) -> None:
        """Push buffered journal lines to the OS."""
        for stream in self._streams.values():
            stream.flush()
        self._unflushed = 0

    def _close_journal_streams(self) -> None:
        for stream in self._streams.values():
            stream.close()
        self._streams = {}
        self._unflushed = 0

    def detached(self) -> "Experiment":
        """Strip the program image and journal handles, in place.

        Open file streams and the (potentially large) program image do not
        survive pickling; a worker process calls this before returning an
        experiment to the parent, which re-attaches the shared program.
        """
        self._close_journal_streams()
        self._journal_dir = None
        self.program = None
        return self

    # ---------------------------------------------------------------- save

    def save(self, directory=None) -> Path:
        """Write to disk; returns the path written.

        With an active journal and no ``directory`` (or the journal's own
        directory), this *finalizes* the journal: metadata is rewritten
        atomically and ``manifest.json`` seals the result.  Otherwise the
        whole in-memory experiment is written out.
        """
        if self.program is None:
            # validate before touching the filesystem: a failed save must
            # not leave a corrupt half-directory behind
            raise ExperimentError("experiment has no program image")
        if directory is None:
            if self._journal_dir is None:
                raise ExperimentError("save: no directory given and no journal")
            path = self._journal_dir
        else:
            path = _normalize_dir(directory)
        if self._journal_dir is not None and path == self._journal_dir:
            return self._finalize_journal()

        created = not path.exists()
        path.mkdir(parents=True, exist_ok=True)
        try:
            self._write_events(path)
            self._write_metadata(path)
            self._write_program(path)
            self._write_manifest(path)
        except BaseException:
            if created:
                shutil.rmtree(path, ignore_errors=True)
            raise
        return path

    def _finalize_journal(self) -> Path:
        path = self._journal_dir
        assert path is not None
        self.flush_journal()
        self._close_journal_streams()
        # parity with the full-write layout: clock.jsonl always exists
        clock_file = path / "clock.jsonl"
        if not clock_file.exists():
            clock_file.touch()
        # program.pkl was written by start_journal and the image does not
        # change during a run: only the metadata is rewritten here
        self._write_metadata(path)
        self._write_manifest(path)
        return path

    # ------------------------------------------------------------- writers

    def _write_program(self, path: Path) -> None:
        tmp = path / "program.pkl.tmp"
        self.program.save(tmp)
        os.replace(tmp, path / "program.pkl")

    def _map_lines(self) -> list[str]:
        map_lines = ["# loadobjects map: module, function, start, end"]
        for func in self.program.functions:
            hwcprof, branch_info = self.program.module_flags.get(
                func.module, (False, False)
            )
            flags = ("hwcprof" if hwcprof else "-") + (
                ",btinfo" if branch_info else ""
            )
            map_lines.append(
                f"{func.module:<12} {func.name:<24} "
                f"0x{func.start:x} 0x{func.end:x} {flags}"
            )
        return map_lines

    def _write_metadata(self, path: Path) -> None:
        _atomic_write_text(path / "log.txt", "\n".join(self.log_lines) + "\n")
        _atomic_write_text(path / "map.txt", "\n".join(self._map_lines()) + "\n")
        _atomic_write_text(
            path / "info.json", json.dumps(asdict(self.info), indent=2)
        )

    def _write_events(self, path: Path) -> None:
        tmp = path / "clock.jsonl.tmp"
        with open(tmp, "w") as stream:
            for clock_event in self.clock_events:
                stream.write(clock_event.to_json() + "\n")
        os.replace(tmp, path / "clock.jsonl")
        counters = {event.counter for event in self.hwc_events}
        for counter in sorted(counters):
            tmp = path / f"hwc{counter}.jsonl.tmp"
            with open(tmp, "w") as stream:
                for event in self.hwc_events:
                    if event.counter == counter:
                        stream.write(event.to_json() + "\n")
            os.replace(tmp, path / f"hwc{counter}.jsonl")
        if self.truth_events:
            tmp = path / "truth.jsonl.tmp"
            with open(tmp, "w") as stream:
                for truth_event in self.truth_events:
                    stream.write(truth_event.to_json() + "\n")
            os.replace(tmp, path / "truth.jsonl")

    def _write_manifest(self, path: Path) -> None:
        files = {}
        for file in sorted(path.iterdir()):
            if file.name == MANIFEST_NAME or file.suffix == ".tmp":
                continue
            if not file.is_file():
                continue
            entry = {
                "bytes": file.stat().st_size,
                "sha256": _sha256_file(file),
            }
            if file.suffix in (".jsonl", ".txt"):
                entry["lines"] = _count_lines(file)
            files[file.name] = entry
        manifest = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "complete": not self.info.incomplete,
            "fault": self.info.fault,
            "files": files,
        }
        _atomic_write_text(path / MANIFEST_NAME, json.dumps(manifest, indent=2))

    # ---------------------------------------------------------------- load

    @staticmethod
    def read_manifest(directory) -> Optional[dict]:
        """The parsed manifest, or None when absent/unreadable."""
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text(errors="replace"))
        except ValueError:
            return None
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("files"), dict
        ):
            return None
        return manifest

    @staticmethod
    def open(directory, strict: bool = True) -> "Experiment":
        """Read a saved experiment directory back into memory.

        ``strict=True`` (the default) raises :class:`ExperimentCorrupt`
        on any damage — a checksum mismatch, a malformed event line, a
        file the manifest promises but the disk lacks.  ``strict=False``
        is salvage mode: optional files may be missing, malformed lines
        are skipped and tallied, and the result carries a
        :class:`SalvageReport` in :attr:`Experiment.salvage`.
        """
        return Experiment._open(directory, strict, load_events=True)

    @staticmethod
    def open_streaming(directory, strict: bool = False) -> "Experiment":
        """Open a saved experiment with its event journals left on disk.

        Metadata (manifest check, info, program image, log) is read
        eagerly exactly as :meth:`open` does, but ``clock_events`` and
        ``hwc_events`` stay empty: :meth:`iter_clock_events` and
        :meth:`iter_hwc_events` parse the journals lazily, so an
        arbitrarily large experiment reduces in bounded memory.  Salvage
        tallies for event files — and therefore :attr:`incomplete` — are
        only final once the iterators have been exhausted.
        """
        return Experiment._open(directory, strict, load_events=False)

    @staticmethod
    def _open(directory, strict: bool, load_events: bool) -> "Experiment":
        path = Path(directory)
        if not path.is_dir():
            raise ExperimentError(f"no experiment directory at {path}")
        exp = Experiment(name=path.stem)
        salvage = SalvageReport()
        exp.salvage = salvage

        manifest = Experiment.read_manifest(path)
        if manifest is None:
            if (path / MANIFEST_NAME).exists():
                if strict:
                    raise ExperimentCorrupt(
                        "manifest unreadable", file=MANIFEST_NAME
                    )
                salvage.note("manifest.json unreadable")
            elif not strict:
                salvage.note("manifest.json missing (unclean shutdown?)")
        else:
            version = manifest.get("format_version", 0)
            if version > FORMAT_VERSION:
                message = f"experiment format v{version} is newer than v{FORMAT_VERSION}"
                if strict:
                    raise ExperimentCorrupt(message, file=MANIFEST_NAME)
                salvage.note(message)
            Experiment._check_manifest(path, manifest, strict, salvage)

        # info.json — defaults are salvageable
        info_file = path / "info.json"
        if info_file.exists():
            try:
                record = json.loads(info_file.read_text(errors="replace"))
                known = {f.name for f in fields(ExperimentInfo)}
                exp.info = ExperimentInfo(
                    **{k: v for k, v in record.items() if k in known}
                )
            except (ValueError, TypeError) as error:
                if strict:
                    raise ExperimentCorrupt(
                        f"bad info.json: {error}", file="info.json"
                    ) from error
                salvage.note(f"info.json corrupt ({error}); using defaults")
        else:
            if strict:
                raise ExperimentError(f"{path} has no info.json")
            salvage.missing.append("info.json")
            salvage.note("info.json missing; using defaults")

        # program.pkl — required even for salvage (nothing to attribute
        # events to without the image)
        program_file = path / "program.pkl"
        if not program_file.exists():
            raise ExperimentError(f"{path} has no program image")
        try:
            exp.program = Program.load(program_file)
        except Exception as error:
            raise ExperimentCorrupt(
                f"program image unreadable: {error}", file="program.pkl"
            ) from error

        log_file = path / "log.txt"
        if log_file.exists():
            exp.log_lines = log_file.read_text(errors="replace").splitlines()
        elif not strict:
            salvage.missing.append("log.txt")

        if not load_events:
            exp._stream_dir = path
            exp._stream_strict = strict
            return exp
        clock_file = path / "clock.jsonl"
        if clock_file.exists():
            exp.clock_events.extend(
                Experiment._iter_jsonl(clock_file, ClockEvent.from_json,
                                       strict, salvage)
            )
        for hwc_file in sorted(path.glob("hwc*.jsonl")):
            exp.hwc_events.extend(
                Experiment._iter_jsonl(hwc_file, HwcEvent.from_json,
                                       strict, salvage)
            )
        truth_file = path / "truth.jsonl"
        if truth_file.exists():
            exp.truth_events.extend(
                Experiment._iter_jsonl(truth_file, TruthEvent.from_json,
                                       strict, salvage)
            )
        return exp

    @staticmethod
    def _check_manifest(path: Path, manifest: dict, strict: bool,
                        salvage: SalvageReport) -> None:
        """Verify checksums/sizes of everything the manifest promises."""
        for name, entry in manifest["files"].items():
            file = path / name
            if not file.exists():
                if strict and name not in OPTIONAL_FILES:
                    raise ExperimentCorrupt("file missing", file=name)
                salvage.missing.append(name)
                continue
            if not isinstance(entry, dict):
                salvage.note(f"{name}: bad manifest entry")
                continue
            expected = entry.get("sha256")
            if expected and _sha256_file(file) != expected:
                if strict:
                    raise ExperimentCorrupt("checksum mismatch", file=name)
                expected_lines = entry.get("lines")
                found = _count_lines(file) if expected_lines is not None else None
                detail = (
                    f" (manifest {expected_lines} lines, found {found})"
                    if expected_lines is not None and expected_lines != found
                    else ""
                )
                salvage.note(f"{name}: checksum mismatch{detail}")

    @staticmethod
    def _iter_jsonl(file: Path, parse, strict: bool,
                    salvage: SalvageReport):
        """Yield parsed events line by line, tallying salvage stats."""
        stats = salvage.file(file.name)
        with open(file, errors="replace") as stream:
            for lineno, line in enumerate(stream, 1):
                if not line.strip():
                    continue
                stats.lines_read += 1
                try:
                    event = parse(line, source=file.name, lineno=lineno)
                except ExperimentCorrupt as error:
                    if strict:
                        raise
                    stats.lines_skipped += 1
                    if not stats.first_error:
                        stats.first_error = str(error)
                else:
                    stats.lines_kept += 1
                    yield event


__all__ = [
    "Experiment",
    "ExperimentInfo",
    "HwcEvent",
    "ClockEvent",
    "TruthEvent",
    "SalvageReport",
    "FileSalvage",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CACHE_DIR_NAME",
]
