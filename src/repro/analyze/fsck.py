"""``repro-erprint <exp> fsck`` — experiment directory checker.

Validates a saved experiment against its ``manifest.json`` (per-file
SHA-256 checksums and line counts), then attempts a salvage-mode open to
find out how much of the data is usable.  Never raises on damage — the
whole point is to run against directories other tools refuse to load.

A requested counter that recorded no event is named with its interval
and the machine's count, as ``repro-collect`` warns; it is not damage.

Exit codes: 0 = healthy or salvageable (possibly partial), 1 =
unrecoverable (no analyzable data), 2 = not an experiment directory.
"""

from __future__ import annotations

from pathlib import Path

from ..collect.experiment import FORMAT_VERSION, MANIFEST_NAME, Experiment
from ..errors import ExperimentError
from ..machine.counters import empty_counter_note
from ..parallel import counter_events
from . import cache as reduction_cache

FSCK_OK = 0
FSCK_UNRECOVERABLE = 1
FSCK_NO_EXPERIMENT = 2


def fsck_experiment(directory) -> tuple[str, int]:
    """Check one experiment directory; returns (report text, exit code)."""
    path = Path(directory)
    lines = [f"fsck {path}:"]
    if not path.is_dir():
        lines.append("  not an experiment directory")
        return "\n".join(lines), FSCK_NO_EXPERIMENT

    damage = 0
    findings = None
    manifest = Experiment.read_manifest(path)
    if manifest is None:
        if (path / MANIFEST_NAME).exists():
            lines.append("  manifest: UNREADABLE")
        else:
            lines.append("  manifest: missing (unclean shutdown or pre-v1 save)")
        damage += 1
    else:
        version = manifest.get("format_version", 0)
        complete = manifest.get("complete", True)
        note = "" if complete else f" — recorded as incomplete ({manifest.get('fault', 'unknown fault')})"
        lines.append(
            f"  manifest: ok (format v{version}, "
            f"{len(manifest['files'])} files){note}"
        )
        if version > FORMAT_VERSION:
            lines.append(
                f"  manifest: format v{version} is newer than this tool (v{FORMAT_VERSION})"
            )
            damage += 1
        findings = Experiment.verify_manifest(path, manifest)
        by_name = {finding.name: finding for finding in findings}
        for name, entry in sorted(manifest["files"].items()):
            finding = by_name.get(name)
            if finding is None:
                detail = (
                    f"{entry['lines']} lines, " if entry.get("lines") is not None else ""
                )
                lines.append(f"  {name}: ok ({detail}checksum ok)")
                continue
            damage += 1
            if finding.problem == "missing":
                lines.append(f"  {name}: MISSING")
            elif finding.problem == "bad entry":
                lines.append(f"  {name}: bad manifest entry")
            else:
                problems = []
                if finding.size:
                    problems.append("size {} != {}".format(*finding.size))
                if finding.checksum:
                    problems.append("checksum mismatch")
                if finding.lines:
                    problems.append("{} lines != {}".format(*finding.lines))
                lines.append(f"  {name}: DAMAGED ({', '.join(problems)})")
        # strays the manifest does not cover
        for file in sorted(path.iterdir()):
            if (file.is_file() and file.name != MANIFEST_NAME
                    and file.name not in manifest["files"]):
                lines.append(f"  {file.name}: not in manifest")

    # the real question: can the analyzer load it?  The open reuses the
    # findings rather than hashing every file a second time.
    try:
        exp = Experiment.open(path, strict=False, findings=findings)
    except ExperimentError as error:
        lines.append(f"  salvage: FAILED ({error})")
        if reduction_cache.invalidate(path):
            lines.append("  cache: stale reduction dropped")
        lines.append("  status: unrecoverable")
        return "\n".join(lines), FSCK_UNRECOVERABLE

    lines.append(
        f"  salvage: {len(exp.clock_events)} clock events, "
        f"{len(exp.hwc_events)} HWC events recovered"
    )
    assert exp.salvage is not None
    for name, stats in sorted(exp.salvage.files.items()):
        if stats.lines_skipped:
            lines.append(
                f"  salvage: {name}: skipped {stats.lines_skipped}/"
                f"{stats.lines_read} lines ({stats.first_error})"
            )
    if not damage:
        # an empty counter is a fact about the run, not damage; with
        # damaged files its events may have been lost instead
        for name, interval, recorded in counter_events(exp):
            if not recorded:
                note = empty_counter_note(name, interval, exp.info.totals)
                lines.append(f"  warning: {note}")
    if exp.incomplete or damage:
        # a cached reduction keyed before the damage must not be served
        if reduction_cache.invalidate(path):
            lines.append("  cache: stale reduction dropped")
    elif reduction_cache.cache_path(path).exists():
        lines.append("  cache: reduction cache present")
    if exp.incomplete:
        reason = exp.incomplete_reason() or "damage detected"
        lines.append(f"  status: salvageable (partial: {reason})")
    elif damage:
        lines.append("  status: salvageable (with warnings)")
    else:
        lines.append("  status: healthy")
    return "\n".join(lines), FSCK_OK


__all__ = ["fsck_experiment", "FSCK_OK", "FSCK_UNRECOVERABLE", "FSCK_NO_EXPERIMENT"]
