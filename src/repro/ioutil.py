"""Durable, atomic file primitives and the one crash-safe JSONL journal,
shared by the recording, caching, fleet and autotune layers.

Every file that must never be seen half-written is written through
:func:`atomic_path`, so readers see the old contents or the new, never a
torn prefix.  Its temp names are unique (pid + counter), so concurrent
writers of one target are safe: the loser's rename overwrites the
winner's whole file, never mixes with it.  ``durable=True`` fsyncs the
data before the rename and the directory after it, so the rename itself
survives a power cut (the write-ahead-log commit discipline).
:func:`canonical_json` is the one compact sorted-key encoding: journal
records, aggregates and cache keys are pure functions of their content.

The torn-line rule of :func:`scan_jsonl`.  A line whose ``parse`` raises
:class:`ValueError` or a :class:`~repro.errors.ReproError` is *damaged*.
Salvage mode skips and counts a damaged line anywhere.  Strict mode
raises its error once another non-blank line follows it.  A damaged
*last* line is what a crash mid-append leaves: both modes skip it and
report it as ``ScanStats.torn``, and the caller decides whether it is
fatal.  An unterminated last line that still parses is kept.
:func:`recover_jsonl` rewrites the file when a line was dropped or the
final newline is missing, so no later append can land on a fragment.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ReproError

_tmp_counter = itertools.count()

#: compact sorted-key JSON, built once: ``json.dumps`` with non-default
#: arguments constructs a fresh ``JSONEncoder`` on every call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fsync_dir(path: Path) -> None:
    """Flush a directory entry (rename durability) where the OS allows."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_path(path, durable: bool = False):
    """Yield a unique temp path beside ``path``; when the body returns,
    rename it over ``path``, and when it raises, remove it.

    The body writes the temp path itself (it may hand it to a library
    that only takes a path).  ``durable`` fsyncs the directory after the
    rename; the body fsyncs its own data.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        fsync_dir(path.parent)


def atomic_write_bytes(path, data: bytes, durable: bool = False) -> None:
    """Write via unique temp file + rename; fsync data and directory when
    ``durable``."""
    with atomic_path(path, durable) as tmp, open(tmp, "wb") as stream:
        stream.write(data)
        if durable:
            stream.flush()
            os.fsync(stream.fileno())


def atomic_write_text(path, text: str, durable: bool = False) -> None:
    """Text flavor of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(), durable=durable)


def append_line(path, line: str, durable: bool = False) -> None:
    """Append one line in a single O_APPEND write (concurrent-safe)."""
    data = (line + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)


# ------------------------------------------------------------ JSONL journal

@dataclass
class ScanStats:
    """What one or more :func:`scan_jsonl` passes over a file saw."""

    lines_read: int = 0       # non-blank lines
    lines_kept: int = 0
    lines_skipped: int = 0    # damaged lines, a torn one included
    first_error: str = ""
    #: the error of a damaged last line (a crash mid-append), else None
    torn: Optional[Exception] = None
    #: False when the file does not end with a newline
    terminated: bool = True


def scan_jsonl(path, parse, stats: ScanStats, strict: bool = True):
    """Yield ``parse(line, file name, line number)`` for every non-blank
    line, streaming, under the module's torn-line rule; ``stats`` is
    final once the generator is exhausted.  A missing file yields
    nothing."""
    name = Path(path).name
    try:
        stream = open(path, errors="replace")
    except FileNotFoundError:
        return
    # the tallies live in locals and are settled once, when the scan ends
    # or is abandoned: attribute updates per line were a measurable share
    # of a reduce
    read = skipped = 0
    damaged = None
    line = "\n"
    try:
        with stream:
            for lineno, line in enumerate(stream, 1):
                if line.isspace():
                    continue
                if damaged is not None and strict:
                    raise damaged
                read += 1
                try:
                    record = parse(line, name, lineno)
                except (ValueError, ReproError) as error:
                    damaged = error
                    skipped += 1
                    if not stats.first_error:
                        stats.first_error = str(error)
                    continue
                damaged = None
                yield record
        stats.torn = damaged
        stats.terminated = line.endswith("\n")
    finally:
        stats.lines_read += read
        stats.lines_skipped += skipped
        stats.lines_kept += read - skipped


def record_parser(key: str):
    """A :func:`scan_jsonl` parse for journals of JSON objects that each
    carry ``key``."""
    def parse(line: str, source: str, lineno: int) -> dict:
        try:
            record = json.loads(line)
        except ValueError:
            raise ValueError(f"undecodable journal line {lineno}") from None
        if not isinstance(record, dict) or key not in record:
            raise ValueError(f"journal line {lineno} is not a record")
        return record
    return parse


def rewrite_jsonl(path, records) -> None:
    """Atomically and durably replace a journal with the canonical lines
    of ``records``."""
    atomic_write_text(
        path, "".join(canonical_json(record) + "\n" for record in records),
        durable=True,
    )


def recover_jsonl(path, parse, strict: bool = True) -> list:
    """Scan a journal and make it safe to append to again: when a line was
    dropped or the final newline is missing, rewrite it from the kept
    records.  Returns those records."""
    stats = ScanStats()
    records = list(scan_jsonl(path, parse, stats, strict))
    if stats.lines_skipped or not stats.terminated:
        rewrite_jsonl(path, records)
    return records


# ---------------------------------------------------------------- identity

def _chunks(path):
    with open(path, "rb") as stream:
        yield from iter(lambda: stream.read(1 << 16), b"")


def sha256_file(path) -> str:
    """Streaming SHA-256 of one file."""
    digest = hashlib.sha256()
    for chunk in _chunks(path):
        digest.update(chunk)
    return digest.hexdigest()


def count_lines(path) -> int:
    """Streaming newline count of one file."""
    return sum(chunk.count(b"\n") for chunk in _chunks(path))


__all__ = [
    "ScanStats",
    "append_line",
    "atomic_path",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "count_lines",
    "fsync_dir",
    "record_parser",
    "recover_jsonl",
    "rewrite_jsonl",
    "scan_jsonl",
    "sha256_file",
]
