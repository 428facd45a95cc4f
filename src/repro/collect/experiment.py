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
import re
import shutil
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional

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

def experiment_dir(directory) -> Path:
    """The directory an experiment saved to ``directory`` lands in: the
    path with its suffix replaced by ``.er`` (``run.v2`` -> ``run.er``)."""
    path = Path(directory)
    if path.suffix != ".er":
        path = path.with_suffix(".er")
    return path


# ----------------------------------------------------------------- events
#
# Event records are slotted, not frozen: a reader builds one per journal
# line, and a frozen dataclass pays an ``object.__setattr__`` per field.
# Nothing mutates or hashes them.  Each record's journal line is defined
# by its field table (see "The codec" below).

@dataclass(slots=True)
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
        """One journal line (:data:`HWC_RECORD`)."""
        return HWC_RECORD.encode(self)

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "HwcEvent":
        """Parse one journal line; damage raises :class:`ExperimentCorrupt`
        carrying ``source``/``lineno`` (:meth:`Record.decode`)."""
        return HWC_RECORD.decode(line, source, lineno)


@dataclass(slots=True)
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
        """One journal line (:data:`TRUTH_RECORD`)."""
        return TRUTH_RECORD.encode(self)

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "TruthEvent":
        """Parse one journal line (see :meth:`HwcEvent.from_json`)."""
        return TRUTH_RECORD.decode(line, source, lineno)


@dataclass(slots=True)
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
        """One journal line (:data:`CLOCK_RECORD`)."""
        return CLOCK_RECORD.encode(self)

    @staticmethod
    def from_json(line: str, source: str = "", lineno: int = 0) -> "ClockEvent":
        """Parse one journal line (see :meth:`HwcEvent.from_json`)."""
        return CLOCK_RECORD.decode(line, source, lineno)


# ------------------------------------------------------------------ codec
#
# One field table per event record drives its journal line both ways
# (DESIGN §7).  An entry gives a field's name, its wire type and, for a
# field a line may leave off, the value it then reads as.  From the table
# a Record generates the encoder, whose lines are byte-identical to the
# ``json.dumps`` lines every journal was written with; the type check of
# a decoded JSON object; and the pattern of the canonical line the
# encoder writes.  A line the pattern matches decodes from the match
# groups, without ``json.loads``; every other line (whitespace, escapes,
# another key order, ``-0``, an older format or damage) goes through
# ``json.loads`` and the type check, and decodes to the same values.

INT = "int"
OPT_INT = "optional int"
STR = "string"
INTS = "int array"

#: the default of a field every line must carry
REQUIRED = MISSING


class Field(NamedTuple):
    """One entry of a record's field table."""

    name: str
    wire: str
    #: what a line that leaves the field off reads as (REQUIRED: a line
    #: must carry it)
    default: object = REQUIRED
    #: the encoder writes the field even while it holds its default (a
    #: field that only older journals lack)
    always_written: bool = False

    @property
    def elided(self) -> bool:
        """The encoder leaves the field off while it holds its default."""
        return self.default is not REQUIRED and not self.always_written


#: a canonical integer: no sign on zero, no leading zero, at most 20
#: digits (every recorded value fits 64 bits; a longer one takes the
#: general path, where json's own digit limit applies)
_DIGITS = r"(?:0|-?[1-9][0-9]{0,19})"

#: one capturing group per field, holding what ``decode_row`` gives: an
#: int's digits, an optional int's digits (no group, so None, for null),
#: the characters of a string the encoder writes unescaped (printable
#: ASCII but the quote and the backslash), an int array's comma-joined
#: digits ("" when empty)
_PATTERNS = {
    INT: f"({_DIGITS})",
    OPT_INT: f"(?:null|({_DIGITS}))",
    STR: r'"([ !#-\[\]-~]*)"',
    INTS: rf"\[({_DIGITS}(?:,{_DIGITS})*|)\]",
}

#: the encoder's f-string replacement field per wire type
_WRITERS = {
    INT: "{e.%(name)s}",
    OPT_INT: '{"null" if e.%(name)s is None else e.%(name)s}',
    STR: "{_string(e.%(name)s)}",
    INTS: "[{_join(map(str, e.%(name)s))}]",
}

_CHECKS = {
    INT: lambda value: type(value) is int,
    OPT_INT: lambda value: value is None or type(value) is int,
    STR: lambda value: type(value) is str,
    INTS: lambda value: type(value) is list
    and all(type(item) is int for item in value),
}


def int_array(raw) -> tuple:
    """An int-array field of a row: a tuple already, or a canonical
    line's comma-joined digits."""
    if type(raw) is not str:
        return raw
    return tuple(map(int, raw.split(","))) if raw else ()


_READERS = {INT: int, OPT_INT: int, STR: str, INTS: int_array}


class Record:
    """The journal codec of one event record, generated from its field
    table (which must list the dataclass's fields, in order, with the
    same defaults)."""

    def __init__(self, cls, label: str, table) -> None:
        self.cls, self.label, self.table = cls, label, tuple(table)
        declared = [(f.name, f.default) for f in fields(cls)]
        if declared != [(entry.name, entry.default) for entry in self.table]:
            raise TypeError(f"{cls.__name__}: field table does not match "
                            "the dataclass")
        self._names = frozenset(entry.name for entry in self.table)
        #: a decoded event's field values, in table order
        self.row_of = attrgetter(*(entry.name for entry in self.table))
        self.encode = self._encoder()
        self.pattern = re.compile(self._pattern())
        self._match = self.pattern.fullmatch
        #: (reader of a match group, value when the group is absent)
        self._readers = [
            (_READERS[entry.wire], entry.default if entry.elided else None)
            for entry in self.table
        ]

    def _encoder(self):
        """Generate ``encode(event) -> line``: one f-string of the fields
        always written, then one append per elided field."""
        written = [entry for entry in self.table if not entry.elided]
        elided = self.table[len(written):]
        if not written or not all(entry.elided for entry in elided):
            raise TypeError(f"{self.cls.__name__}: elided fields must "
                            "follow the fields always written")

        def text(entry):
            return f'"{entry.name}":' + _WRITERS[entry.wire] % {
                "name": entry.name}

        body = ["line = f'{{" + ",".join(map(text, written)) + "'"]
        for entry in elided:
            test = ("is not None" if entry.default is None
                    else f"!= {entry.default!r}")
            body.append(f"if e.{entry.name} {test}: line += f',{text(entry)}'")
        source = "\n    ".join(["def encode(e):", *body, 'return line + "}"'])
        namespace = {"_string": encode_basestring_ascii, "_join": ",".join}
        exec(source, namespace)
        return namespace["encode"]

    def _pattern(self) -> str:
        """The canonical line: every field in table order, an elided one
        optional (written with its default, it decodes to the same
        value), and at most the line's own newline after it."""
        parts = []
        for index, entry in enumerate(self.table):
            part = (("," if index else "") + f'"{entry.name}":'
                    + _PATTERNS[entry.wire])
            parts.append(f"(?:{part})?" if entry.elided else part)
        return r"\{" + "".join(parts) + r"\}\n?"

    def _load(self, line: str) -> list:
        """The field values of any line, through ``json.loads`` and the
        type check; raises ``ValueError`` on a damaged line."""
        record = json.loads(line)
        if type(record) is not dict:
            raise ValueError("not a JSON object")
        for key in record:
            if key not in self._names:
                raise ValueError(f"unknown key {key!r}")
        values = []
        for name, wire, default, _always_written in self.table:
            if name in record:
                value = record[name]
                if not _CHECKS[wire](value):
                    raise ValueError(f"{name} has the wrong type")
                values.append(tuple(value) if wire == INTS else value)
            elif default is REQUIRED:
                raise ValueError(f"missing key {name!r}")
            else:
                values.append(default)
        return values

    def decode_row(self, line: str, source: str = "", lineno: int = 0) -> tuple:
        """One line's field values, in table order, without building an
        event.  A canonical line leaves them as its text: an int as its
        digits, an int array as :func:`int_array` reads it, and None for
        null or a field the line left off (its default).  Any other line
        gives the values themselves.  ``int()`` reads either form.  A
        damaged line raises :class:`ExperimentCorrupt` carrying
        ``source``/``lineno``."""
        match = self._match(line)
        if match is not None:
            return match.groups()
        try:
            return tuple(self._load(line))
        except ValueError as error:
            raise ExperimentCorrupt(f"bad {self.label}: {error}", file=source,
                                    line=lineno) from error

    def decode(self, line: str, source: str = "", lineno: int = 0):
        """One event from a journal line (see :meth:`decode_row`)."""
        return self.cls(*[
            missing if raw is None else read(raw)
            for (read, missing), raw in zip(
                self._readers, self.decode_row(line, source, lineno))
        ])


HWC_RECORD = Record(HwcEvent, "HWC event", (
    Field("counter", INT),
    Field("event", STR),
    Field("weight", INT),
    Field("trap_pc", INT),
    Field("candidate_pc", OPT_INT),
    Field("effective_address", OPT_INT),
    Field("status", STR),
    Field("ea_reason", STR),
    Field("cycle", INT),
    Field("callstack", INTS),
    Field("coalesced", INT, 1, always_written=True),
    Field("latency", OPT_INT, None),
    Field("scale", INT, 1),
    Field("core", INT, 0),
    Field("thread", INT, 0),
))

TRUTH_RECORD = Record(TruthEvent, "truth event", (
    Field("seq", INT),
    Field("counter", INT),
    Field("event", STR),
    Field("trap_pc", INT),
    Field("cycle", INT),
    Field("true_trigger_pc", INT),
    Field("true_effective_address", OPT_INT),
    Field("true_skid", INT),
    Field("coalesced", INT),
    Field("regs", INTS),
    Field("true_latency", OPT_INT, None),
    Field("core", INT, 0),
    Field("thread", INT, 0),
))

CLOCK_RECORD = Record(ClockEvent, "clock event", (
    Field("pc", INT),
    Field("cycle", INT),
    Field("callstack", INTS),
    Field("core", INT, 0),
    Field("thread", INT, 0),
))


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


# ---------------------------------------------------------------- salvage

@dataclass(frozen=True)
class ManifestFinding:
    """One file that does not match its ``manifest.json`` entry."""

    name: str
    problem: str                     # "missing", "bad entry" or "mismatch"
    size: Optional[tuple] = None     # (found, expected) bytes, when they differ
    checksum: bool = False           # the SHA-256 differs
    lines: Optional[tuple] = None    # (found, expected) lines, when they differ


@dataclass
class SalvageReport:
    """Everything ``open(strict=False)`` skipped, aggregated or defaulted."""

    files: dict = field(default_factory=dict)   # name -> ioutil.ScanStats
    missing: list = field(default_factory=list)
    damage: list = field(default_factory=list)  # free-form notes

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
        #: truth rows of an in-memory experiment; a journaled one keeps
        #: them only in ``truth.jsonl`` (read them via iter_truth_events)
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
        """Record one ground-truth row into the oracle side channel.

        No report reads truth rows, so a journaled experiment writes them
        to ``truth.jsonl`` only and keeps none in memory.
        """
        if self._journal_dir is not None:
            self._journal_write("truth.jsonl", event.to_json())
        else:
            self.truth_events.append(event)

    # ---------------------------------------------------- event iteration

    def iter_clock_events(self):
        """Clock events, in recorded order.

        For experiments opened with :meth:`open_streaming` the events are
        parsed straight off the journal, one line at a time, so the whole
        profile never has to fit in memory.
        """
        if self._stream_dir is None:
            return iter(self.clock_events)
        return self._iter_journals(["clock.jsonl"], CLOCK_RECORD.decode)

    def iter_hwc_events(self):
        """HW-counter events, grouped per journal file in file order (the
        same order :meth:`open` materializes them in).  Streams from disk
        for :meth:`open_streaming` experiments."""
        if self._stream_dir is None:
            return iter(self.hwc_events)
        return self._iter_journals(self._hwc_files(), HWC_RECORD.decode)

    def iter_clock_rows(self):
        """The field values of each clock event, in the order of
        :meth:`iter_clock_events`, without building events: a journal
        line's as :meth:`Record.decode_row` leaves them, an in-memory
        event's as :attr:`Record.row_of` reads them."""
        if self._stream_dir is None:
            return map(CLOCK_RECORD.row_of, self.clock_events)
        return self._iter_journals(["clock.jsonl"], CLOCK_RECORD.decode_row)

    def iter_hwc_rows(self):
        """The field values of each HW-counter event, in the order of
        :meth:`iter_hwc_events` (see :meth:`iter_clock_rows`)."""
        if self._stream_dir is None:
            return map(HWC_RECORD.row_of, self.hwc_events)
        return self._iter_journals(self._hwc_files(), HWC_RECORD.decode_row)

    def _hwc_files(self) -> list:
        return sorted(path.name for path in self._stream_dir.glob("hwc*.jsonl"))

    def _iter_journals(self, names, parse):
        """Parse the named journals of a streaming experiment, in order."""
        for name in names:
            yield from Experiment._iter_jsonl(
                self._stream_dir / name, parse, self._stream_strict,
                self.salvage,
            )

    def iter_truth_events(self):
        """Ground-truth rows, in recorded order.

        The one accessor for truth rows: it streams them from disk for
        :meth:`open_streaming` experiments and from the run's own
        ``truth.jsonl`` for journaled ones (strictly: damage raises
        :class:`ExperimentCorrupt`).  Yields nothing when the experiment
        predates the truth side channel.
        """
        if self._stream_dir is not None:
            truth_file = self._stream_dir / "truth.jsonl"
            strict, salvage = self._stream_strict, self.salvage
        elif self._journal_dir is not None:
            self.flush_journal()
            truth_file = self._journal_dir / "truth.jsonl"
            strict, salvage = True, SalvageReport()
        else:
            yield from self.truth_events
            return
        yield from Experiment._iter_jsonl(
            truth_file, TRUTH_RECORD.decode, strict, salvage
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
        path = experiment_dir(directory)
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
        ioutil.atomic_write_text(path / "info.json", json.dumps(provisional, indent=2))
        # replay anything recorded before journaling started
        for line in self.log_lines:
            self._journal_write("log.txt", line)
        for clock_event in self.clock_events:
            self._journal_write("clock.jsonl", clock_event.to_json())
        for hwc_event in self.hwc_events:
            self._journal_write(f"hwc{hwc_event.counter}.jsonl", hwc_event.to_json())
        for truth_event in self.truth_events:
            self._journal_write("truth.jsonl", truth_event.to_json())
        self.truth_events = []
        return path

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
            path = experiment_dir(directory)
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
        for stream in self._streams.values():
            stream.close()
        self._streams = {}
        # parity with the full-write layout: clock.jsonl always exists
        (path / "clock.jsonl").touch()
        # program.pkl was written by start_journal and the image does not
        # change during a run: only the metadata is rewritten here
        self._write_metadata(path)
        self._write_manifest(path)
        return path

    # ------------------------------------------------------------- writers

    def _write_program(self, path: Path) -> None:
        with ioutil.atomic_path(path / "program.pkl") as tmp:
            self.program.save(tmp)

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
        ioutil.atomic_write_text(path / "log.txt", "\n".join(self.log_lines) + "\n")
        ioutil.atomic_write_text(path / "map.txt", "\n".join(self._map_lines()) + "\n")
        ioutil.atomic_write_text(
            path / "info.json", json.dumps(asdict(self.info), indent=2)
        )

    def _write_events(self, path: Path) -> None:
        def write(name, lines):
            with ioutil.atomic_path(path / name) as tmp, open(tmp, "w") as out:
                out.writelines(lines)

        write("clock.jsonl", (e.to_json() + "\n" for e in self.clock_events))
        for counter in sorted({event.counter for event in self.hwc_events}):
            write(f"hwc{counter}.jsonl", (e.to_json() + "\n" for e in
                                          self.hwc_events if e.counter == counter))
        truth_lines = [e.to_json() + "\n" for e in self.iter_truth_events()]
        if truth_lines:
            write("truth.jsonl", truth_lines)

    def _write_manifest(self, path: Path) -> None:
        files = {}
        for file in sorted(path.iterdir()):
            if file.name == MANIFEST_NAME or file.suffix == ".tmp":
                continue
            if not file.is_file():
                continue
            entry = {
                "bytes": file.stat().st_size,
                "sha256": ioutil.sha256_file(file),
            }
            if file.suffix in (".jsonl", ".txt"):
                entry["lines"] = ioutil.count_lines(file)
            files[file.name] = entry
        manifest = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "complete": not self.info.incomplete,
            "fault": self.info.fault,
            "files": files,
        }
        ioutil.atomic_write_text(path / MANIFEST_NAME, json.dumps(manifest, indent=2))

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
    def verify_manifest(directory, manifest: dict) -> list:
        """One :class:`ManifestFinding` per file the manifest promises that
        is missing, has an unusable entry, or differs in size or checksum,
        in manifest order.  Each file with a checksum is hashed once; lines
        are counted only for a file that differs."""
        findings, directory = [], Path(directory)
        for name, entry in manifest["files"].items():
            file = directory / name
            if not file.exists():
                findings.append(ManifestFinding(name, "missing"))
                continue
            if not isinstance(entry, dict):
                findings.append(ManifestFinding(name, "bad entry"))
                continue
            found_size, expected_size = file.stat().st_size, entry.get("bytes")
            size = (None if expected_size in (None, found_size)
                    else (found_size, expected_size))
            checksum = bool(entry.get("sha256")) and (
                ioutil.sha256_file(file) != entry["sha256"])
            if size is None and not checksum:
                continue
            expected_lines = entry.get("lines")
            found = None if expected_lines is None else ioutil.count_lines(file)
            lines = None if found == expected_lines else (found, expected_lines)
            findings.append(ManifestFinding(name, "mismatch", size, checksum, lines))
        return findings

    @staticmethod
    def open(directory, strict: bool = True,
             findings: Optional[list] = None) -> "Experiment":
        """Read a saved experiment directory back into memory.

        ``strict=True`` (the default) raises :class:`ExperimentCorrupt`
        on any damage — a checksum mismatch, a malformed event line, a
        file the manifest promises but the disk lacks.  ``strict=False``
        is salvage mode: optional files may be missing, malformed lines
        are skipped and tallied, and the result carries a
        :class:`SalvageReport` in :attr:`Experiment.salvage`.
        ``findings`` is the directory's :meth:`verify_manifest` result
        when the caller already holds it, so no file is hashed twice.
        """
        return Experiment._open(directory, strict, load_events=True,
                                findings=findings)

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
    def _open(directory, strict: bool, load_events: bool,
              findings: Optional[list] = None) -> "Experiment":
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
            if findings is None:
                findings = Experiment.verify_manifest(path, manifest)
            Experiment._check_findings(findings, strict, salvage)

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

        exp._stream_dir, exp._stream_strict = path, strict
        if load_events:
            exp.clock_events = list(exp.iter_clock_events())
            exp.hwc_events = list(exp.iter_hwc_events())
            exp.truth_events = list(exp.iter_truth_events())
            exp._stream_dir = None
        return exp

    @staticmethod
    def _check_findings(findings: list, strict: bool,
                        salvage: SalvageReport) -> None:
        """Raise on, or note, the files that do not match the manifest."""
        for finding in findings:
            name = finding.name
            if finding.problem == "missing":
                if strict and name not in OPTIONAL_FILES:
                    raise ExperimentCorrupt("file missing", file=name)
                salvage.missing.append(name)
            elif finding.problem == "bad entry":
                salvage.note(f"{name}: bad manifest entry")
            elif finding.checksum:
                if strict:
                    raise ExperimentCorrupt("checksum mismatch", file=name)
                detail = "" if finding.lines is None else (
                    f" (manifest {finding.lines[1]} lines, "
                    f"found {finding.lines[0]})")
                salvage.note(f"{name}: checksum mismatch{detail}")

    @staticmethod
    def _iter_jsonl(file: Path, parse, strict: bool,
                    salvage: SalvageReport):
        """Yield parsed events line by line, tallying salvage stats; strict
        mode also raises on a torn last line."""
        stats = salvage.files.setdefault(file.name, ioutil.ScanStats())
        yield from ioutil.scan_jsonl(file, parse, stats, strict)
        if strict and stats.torn is not None:
            raise stats.torn


__all__ = [
    "Experiment",
    "ExperimentInfo",
    "HwcEvent",
    "ClockEvent",
    "TruthEvent",
    "Field",
    "Record",
    "HWC_RECORD",
    "TRUTH_RECORD",
    "CLOCK_RECORD",
    "int_array",
    "SalvageReport",
    "ManifestFinding",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CACHE_DIR_NAME",
]
