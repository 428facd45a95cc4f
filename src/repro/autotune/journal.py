"""Crash-safe JSONL journal for the autotune search.

The same write-ahead discipline as the fleet store, scaled down: every
completed unit of search work (the run's meta header, one trial's
measurement, one round's accept decision, the final result) is appended
as ONE canonical JSON line via :func:`repro.ioutil.append_line` with an
fsync, so a search killed at any instant loses at most the trial that
was in flight — never a recorded one.

Records are canonical (sorted keys, compact separators, no timestamps or
host facts), which gives the resume guarantee the CI smoke asserts: a
search killed after trial *k* and resumed appends byte-for-byte the same
lines an uninterrupted search would have written, so the recovered
journal is byte-identical to a clean one.

The journal is read strictly (:func:`repro.ioutil.scan_jsonl`): a
damaged line before the last is an error, while a torn final line — a
kill *during* an append — is dropped by :meth:`read` and truncated away
by :meth:`recover` with an atomic rewrite before the search continues.
"""

from __future__ import annotations

from pathlib import Path

from .. import ioutil
from ..errors import AutotuneError

#: the one serialization every journal writer must use
canonical_line = ioutil.canonical_json

#: a journal line is a JSON object naming its ``type``
_parse = ioutil.record_parser("type")


class SearchJournal:
    """Append-only JSONL journal under the search output directory."""

    FILENAME = "journal.jsonl"

    def __init__(self, outdir) -> None:
        self.outdir = Path(outdir)
        self.path = self.outdir / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: dict) -> None:
        """Durably append one completed record."""
        if "type" not in record:
            raise AutotuneError(f"journal record without a type: {record!r}")
        self.outdir.mkdir(parents=True, exist_ok=True)
        ioutil.append_line(self.path, canonical_line(record), durable=True)

    def read(self) -> list:
        """Parse every intact record; a torn tail line is ignored."""
        try:
            return list(ioutil.scan_jsonl(self.path, _parse, ioutil.ScanStats()))
        except ValueError as error:
            raise AutotuneError(f"{self.path}: {error}") from None

    def recover(self) -> list:
        """Like :meth:`read`, but physically truncates a torn tail so
        subsequent appends continue a clean file."""
        try:
            return ioutil.recover_jsonl(self.path, _parse)
        except ValueError as error:
            raise AutotuneError(f"{self.path}: {error}") from None


__all__ = ["SearchJournal", "canonical_line"]
