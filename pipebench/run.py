"""Pipeline benchmark: the profiled collect -> erprint loop, a clock-only
control, and fleet ingest.

Run from the repository root::

    python3 pipebench/run.py --workload mcf-profiled --seed 1 --seconds 30 --trace 0

Workloads: ``mcf-profiled``, ``mcf-clock`` and ``fleet-ingest`` (see
``pipeline.py``).  The MCF instances derive from ``--seed``; seed 1 is
the default and seed 97 is held out for checking later claims.
``--trips`` sets the instance size.

The run prints one line per output check, then, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Times are wall-clock seconds normalized for the host's
drifting speed (see ``hostspeed.py``).  A traced run also writes its
spans to ``.pipebench/spans-<workload>-seed<seed>.jsonl``.  The benchmark
imports the ``repro`` sources of the checkout it sits in and exits with
status 2 when there are none.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUTPUT = ROOT / ".pipebench"

DEFAULT_SEED = 1
DEFAULT_TRIPS = 30

#: fresh interpreters the import time is measured in
IMPORT_REPS = 5

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = [{here!r}, {sources!r}]\n"
    "start = time.perf_counter()\n"
    "import pipeline\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="pipebench")
    parser.add_argument("--workload", required=True,
                        choices=["mcf-profiled", "mcf-clock", "fleet-ingest"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the loop is measured")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 records spans and prints per-layer metrics")
    parser.add_argument("--trips", type=int, default=DEFAULT_TRIPS,
                        help="MCF instance size (trips per instance)")
    return parser.parse_args(argv)


def import_seconds(speed: HostSpeed) -> float:
    """Median normalized time a fresh interpreter takes to import the
    benchmark's modules, and through them ``repro``."""
    code = _IMPORT_TIMER.format(here=str(Path(__file__).resolve().parent),
                                sources=str(SOURCES))
    seconds = []
    for _rep in range(IMPORT_REPS):
        child, normalized, wall = speed.timed(lambda: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True))
        seconds.append(float(child.stdout) * normalized / wall)
    return statistics.median(seconds)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"pipebench: no repro sources at {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import pipeline

    speed = HostSpeed()
    import_s = import_seconds(speed)
    OUTPUT.mkdir(exist_ok=True)
    workdir = OUTPUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    spans = OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        tally, metrics = pipeline.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.trips,
            workdir, import_s, speed,
            spans_path=spans if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = pipeline.LAYER_UNITS if args.trace else pipeline.END_TO_END_UNITS
    for line in tally.lines():
        print(line)
    print(f"host speed: median factor {statistics.median(speed.factors):.3f} "
          f"over {len(speed.factors)} probed units")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
