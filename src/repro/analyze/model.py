"""The reduced-data model: everything the reports are generated from.

The reduction attributes every profile event to

* a PC (real, or an artificial ``<branch target>`` PC when trigger-PC
  validation failed), rolled up to source lines and functions, and
* a **data object** — a ``structure:<name>`` class with a member, the
  ``<Scalars>`` bucket, or one of the paper's indeterminate kinds:

  ========================  ==============================================
  ``(Unspecified)``          compiler gave no symbolic memop reference
  ``(Unresolvable)``         backtracking failed / invalidated by a branch
                             target
  ``(Unascertainable)``      module not compiled with -xhwcprof
  ``(Unidentified)``         compiler temporary (spill/save slots, locals)
  ``(Unverifiable)``         module lacks branch-target info, validation
                             impossible
  ========================  ==============================================
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..compiler.program import Program
from ..errors import ProgramMismatch

# pseudo data objects (paper §3.2.5)
UNSPECIFIED = "(Unspecified)"
UNRESOLVABLE = "(Unresolvable)"
UNASCERTAINABLE = "(Unascertainable)"
UNIDENTIFIED = "(Unidentified)"
UNVERIFIABLE = "(Unverifiable)"
SCALARS = "<Scalars>"
TOTAL = "<Total>"
UNKNOWN = "<Unknown>"

UNKNOWN_KINDS = (UNSPECIFIED, UNRESOLVABLE, UNASCERTAINABLE, UNIDENTIFIED, UNVERIFIABLE)


@dataclass(frozen=True)
class DataObjectKey:
    """One row of the member-level data-object profile (Figure 7)."""

    object_class: str   # "structure:node"
    offset: int         # byte offset of the member
    member: str
    member_type: str


class MetricVector(dict):
    """metric id -> raw count.  A missing metric reads as 0.0 and is
    stored on that read, so ``vector[m] += x`` accumulates.

    A plain ``dict`` subclass: building, copying, pickling and decoding a
    vector run in C, with no Python-level ``__init__``.
    """

    __slots__ = ()

    def __missing__(self, metric_id: str) -> float:
        self[metric_id] = 0.0
        return 0.0

    def add(self, metric_id: str, value: float) -> None:
        """Accumulate into one metric."""
        self[metric_id] += value

    def absorb(self, other: "MetricVector") -> None:
        """Add the other vector's counts into this one, in place."""
        get = self.get
        for key, value in other.items():
            self[key] = get(key, 0.0) + value

    def merged_with(self, other: "MetricVector") -> "MetricVector":
        """A new vector with both operands' counts summed."""
        out = MetricVector(self)
        out.absorb(other)
        return out


@dataclass
class PCRecord:
    """Metrics attributed to one PC (possibly artificial)."""

    pc: int
    metrics: MetricVector = field(default_factory=MetricVector)
    is_branch_target_artifact: bool = False
    #: data-object annotation of this PC's instruction (for the PC report)
    data_object: str = ""
    member: str = ""


class ReducedData:
    """Everything the analyzer computed from one (or merged) experiments."""

    def __init__(self, program: Optional[Program], clock_hz: float) -> None:
        self._program = program
        #: a saved image :attr:`program` unpickles on first read
        self._image_path: Optional[Path] = None
        self.clock_hz = clock_hz
        #: metric ids with data present, in canonical order
        self.metric_ids: list[str] = []
        self.total = MetricVector()
        self.pcs: dict[int, PCRecord] = {}
        #: function name -> exclusive metrics
        self.functions: dict[str, MetricVector] = defaultdict(MetricVector)
        #: function name -> inclusive metrics (via callstacks)
        self.functions_incl: dict[str, MetricVector] = defaultdict(MetricVector)
        #: (caller, callee) -> attributed metrics
        self.caller_callee: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: (function name, line) -> exclusive metrics
        self.lines: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: data object class -> metrics (only memory metrics land here)
        self.data_objects: dict[str, MetricVector] = defaultdict(MetricVector)
        #: member-level rows
        self.data_members: dict[DataObjectKey, MetricVector] = defaultdict(MetricVector)
        #: effective addresses per metric: list of (ea, weight) samples
        self.address_samples: dict[str, list] = defaultdict(list)
        #: sampled load latencies per metric: list of (latency_cycles,
        #: weight) pairs, fed by the SPE-style ``ldlat`` counter
        self.latency_samples: dict[str, list] = defaultdict(list)
        #: E$ line size used for the cache-line axis (machine geometry)
        self.line_bytes: int = 512
        #: cache-line base address -> metrics (data-space axis, §4)
        self.cache_lines: dict[int, MetricVector] = defaultdict(MetricVector)
        #: (segment name, page base address) -> metrics (data-space axis)
        self.pages: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: (line base, data-object label) -> metrics: which objects/members
        #: live on each hot line
        self.cache_line_objects: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: (segment name, page base, data-object label) -> metrics
        self.page_objects: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: software thread id -> metrics (empty for single-core runs, whose
        #: journals carry no thread axis)
        self.threads: dict[int, MetricVector] = defaultdict(MetricVector)
        #: (cache-line base, writing thread id) -> metrics for coherence
        #: events whose candidate instruction is a *store*: the
        #: cross-thread write traffic behind the false-sharing report
        self.cache_line_writers: dict[tuple, MetricVector] = defaultdict(MetricVector)
        #: ground truth totals from the experiment info (for validation)
        self.machine_totals: dict[str, float] = {}
        #: segments recorded at collection (name, base, size, page_bytes)
        self.segments: list[tuple] = []
        #: heap allocations (addr, size, start_cycle, end_cycle, callsite)
        self.allocations: list[tuple] = []
        #: counter configs that produced the data
        self.counter_info: list[dict] = []
        #: True when the underlying experiment was partial (crashed run or
        #: salvaged damage); reports carry an ``(Incomplete)`` header
        self.incomplete: bool = False
        self.incomplete_reason: str = ""
        #: code length of the program this was reduced over; survives
        #: :meth:`detach` so a re-attached image can be validated
        self.code_len: int = len(program.code) if program is not None else 0

    # ------------------------------------------------------------- helpers

    def record_pc(self, pc: int) -> PCRecord:
        """Get-or-create the record for one PC."""
        record = self.pcs.get(pc)
        if record is None:
            record = PCRecord(pc)
            self.pcs[pc] = record
        return record

    def seconds(self, metric_id: str, raw: float) -> float:
        """Wall-clock seconds at the configured clock rate."""
        return raw / self.clock_hz

    def percent(self, metric_id: str, raw: float) -> float:
        """Share of <Total> for a metric, in percent."""
        total = self.total.get(metric_id, 0.0)
        return 100.0 * raw / total if total else 0.0

    def unknown_total(self) -> MetricVector:
        """Sum of all (Un*) pseudo-object vectors."""
        out = MetricVector()
        for kind in UNKNOWN_KINDS:
            vector = self.data_objects.get(kind)
            if vector:
                for key, value in vector.items():
                    out[key] += value
        return out

    def backtrack_effectiveness(self, metric_id: str) -> float:
        """Paper §3.2.5: 100% minus (Unresolvable)+(Unascertainable) share."""
        total = self.total.get(metric_id, 0.0)
        if not total:
            return 0.0
        bad = 0.0
        for kind in (UNRESOLVABLE, UNASCERTAINABLE):
            vector = self.data_objects.get(kind)
            if vector:
                bad += vector.get(metric_id, 0.0)
        return 100.0 * (1.0 - bad / total)

    #: per-key vector tables; :meth:`absorb` sums them key by key
    _TABLES = (
        "functions",
        "functions_incl",
        "caller_callee",
        "lines",
        "data_objects",
        "data_members",
        "cache_lines",
        "pages",
        "cache_line_objects",
        "page_objects",
        "threads",
        "cache_line_writers",
    )

    def absorb(self, other: "ReducedData") -> "ReducedData":
        """Merge another reduction over the same program into this one, in
        place (the paper's two collect runs feed one analysis); returns
        ``self``.

        Program compatibility is checked through the recorded code
        lengths before anything changes, so a mismatch (``ValueError``)
        leaves this reduction as it was; no program image is read.
        ``other`` is not modified: every vector and record it holds is
        copied, never shared.
        """
        if other is self:
            raise ValueError("a reduction cannot absorb itself")
        if self.code_len and other.code_len and self.code_len != other.code_len:
            raise ProgramMismatch(
                "cannot merge experiments over different programs")
        if self._program is None and self._image_path is None:
            self._program = other._program
            self._image_path = other._image_path
        self.code_len = self.code_len or other.code_len
        self.metric_ids = list(
            dict.fromkeys([*self.metric_ids, *other.metric_ids])
        )
        self.total.absorb(other.total)
        pcs = self.pcs
        for pc, record in other.pcs.items():
            target = pcs.get(pc)
            if target is None:
                pcs[pc] = PCRecord(pc, MetricVector(record.metrics),
                                   record.is_branch_target_artifact,
                                   record.data_object, record.member)
                continue
            target.metrics.absorb(record.metrics)
            target.is_branch_target_artifact |= record.is_branch_target_artifact
            # deterministic label resolution: identical experiments
            # agree on the label, so this only breaks ties (and does
            # so independently of merge order — the fleet store's
            # canonical-bytes invariant)
            if record.data_object:
                if (not target.data_object
                        or record.data_object < target.data_object):
                    target.data_object = record.data_object
                    target.member = record.member
                elif (record.data_object == target.data_object
                      and record.member):
                    if not target.member or record.member < target.member:
                        target.member = record.member
        for table_name in self._TABLES:
            table = getattr(self, table_name)
            for key, vector in getattr(other, table_name).items():
                target = table.get(key)
                if target is None:
                    table[key] = MetricVector(vector)
                else:
                    target.absorb(vector)
        for metric_id, samples in other.address_samples.items():
            self.address_samples[metric_id].extend(samples)
        for metric_id, samples in other.latency_samples.items():
            self.latency_samples[metric_id].extend(samples)
        # compared from 0.0, as a fold into an empty table would: a zero
        # total then reads 0.0 whichever side held it
        totals = {key: max(0.0, value)
                  for key, value in self.machine_totals.items()}
        for key, value in other.machine_totals.items():
            totals[key] = max(totals.get(key, 0.0), value)
        self.machine_totals = totals
        self.counter_info.extend(other.counter_info)
        # union, first-seen order, deduplicated: merging two passes over
        # the same run keeps the original lists untouched, while merging
        # different runs (fleet aggregation) loses neither side
        self.segments = [
            list(seg) for seg in dict.fromkeys(
                tuple(seg) for seg in (*self.segments, *other.segments)
            )
        ]
        self.allocations = [
            list(alloc) for alloc in dict.fromkeys(
                tuple(alloc)
                for alloc in (*self.allocations, *other.allocations)
            )
        ]
        self.incomplete = self.incomplete or other.incomplete
        self.incomplete_reason = "; ".join(
            filter(None, dict.fromkeys(
                [self.incomplete_reason, other.incomplete_reason]
            ))
        )
        return self

    def merged_with(self, other: "ReducedData") -> "ReducedData":
        """A new reduction holding both operands, which stay unchanged:
        an empty reduction with this one's clock and line size absorbs
        ``self`` and then ``other`` (:meth:`absorb`)."""
        out = ReducedData(None, self.clock_hz)
        out.line_bytes = self.line_bytes
        return out.absorb(self).absorb(other)

    # ------------------------------------------------------- program image

    @property
    def program(self) -> Optional[Program]:
        """The program image the reduction was made over, or None.

        After :meth:`attach` the image is unpickled on the first read, so
        reports that show only metric tables never load it.  It must
        cover as many instructions as the reduction did; a different
        image raises ``ValueError`` here.
        """
        if self._program is None and self._image_path is not None:
            program = Program.load(self._image_path)
            if self.code_len and len(program.code) != self.code_len:
                raise ProgramMismatch(
                    f"program mismatch: reduction covers {self.code_len} "
                    f"instructions, image has {len(program.code)}"
                )
            self._program, self._image_path = program, None
            self.code_len = len(program.code)
        return self._program

    def detach(self) -> "ReducedData":
        """Strip the program image, in place, so a worker process can ship
        the reduction back to the parent cheaply."""
        if self._program is not None:
            self.code_len = len(self._program.code)
        self._program = None
        self._image_path = None
        return self

    def attach(self, image_path) -> "ReducedData":
        """Attach the image saved at ``image_path`` (a ``program.pkl``)
        after :meth:`detach` or a cache load; :attr:`program` unpickles
        and checks it when first read."""
        self._program = None
        self._image_path = Path(image_path)
        return self

    # ------------------------------------------------- cache serialization

    #: bump whenever the payload layout or reduction semantics change — a
    #: version bump orphans (and thereby invalidates) every existing cache
    PAYLOAD_VERSION = 3

    def to_payload(self) -> dict:
        """JSON-serializable snapshot of the whole reduction (without the
        program image, which the experiment directory already stores).

        Insertion order of every table is preserved, so a reduction loaded
        back with :meth:`from_payload` renders byte-identical reports.
        """
        def vec(vector: MetricVector) -> dict:
            return dict(vector)

        return {
            "version": self.PAYLOAD_VERSION,
            "clock_hz": self.clock_hz,
            "code_len": self.code_len,
            "metric_ids": list(self.metric_ids),
            "total": vec(self.total),
            "pcs": [
                [r.pc, vec(r.metrics), r.is_branch_target_artifact,
                 r.data_object, r.member]
                for r in self.pcs.values()
            ],
            "functions": [[k, vec(v)] for k, v in self.functions.items()],
            "functions_incl": [
                [k, vec(v)] for k, v in self.functions_incl.items()
            ],
            "caller_callee": [
                [k[0], k[1], vec(v)] for k, v in self.caller_callee.items()
            ],
            "lines": [[k[0], k[1], vec(v)] for k, v in self.lines.items()],
            "data_objects": [[k, vec(v)] for k, v in self.data_objects.items()],
            "data_members": [
                [k.object_class, k.offset, k.member, k.member_type, vec(v)]
                for k, v in self.data_members.items()
            ],
            "address_samples": {
                metric: [[ea, weight] for ea, weight in samples]
                for metric, samples in self.address_samples.items()
            },
            "latency_samples": {
                metric: [[latency, weight] for latency, weight in samples]
                for metric, samples in self.latency_samples.items()
            },
            "line_bytes": self.line_bytes,
            "cache_lines": [[k, vec(v)] for k, v in self.cache_lines.items()],
            "pages": [[k[0], k[1], vec(v)] for k, v in self.pages.items()],
            "cache_line_objects": [
                [k[0], k[1], vec(v)] for k, v in self.cache_line_objects.items()
            ],
            "page_objects": [
                [k[0], k[1], k[2], vec(v)] for k, v in self.page_objects.items()
            ],
            "threads": [[k, vec(v)] for k, v in self.threads.items()],
            "cache_line_writers": [
                [k[0], k[1], vec(v)] for k, v in self.cache_line_writers.items()
            ],
            "machine_totals": dict(self.machine_totals),
            "segments": [list(s) for s in self.segments],
            "allocations": [list(a) for a in self.allocations],
            "counter_info": list(self.counter_info),
            "incomplete": self.incomplete,
            "incomplete_reason": self.incomplete_reason,
        }

    def canonical_payload(self) -> dict:
        """:meth:`to_payload`, normalized to be independent of merge order.

        The plain payload preserves table insertion order (what the
        per-experiment cache wants: byte-identical reports on reload).
        Cross-experiment aggregates need the opposite guarantee — the
        same *set* of experiments must serialize to the same bytes no
        matter which order they were merged in (the fleet store's
        crash-recovery invariant) — so every table is sorted by key,
        address samples are sorted, counter configs are deduplicated and
        sorted, and the incomplete-reason join is order-normalized.
        Metric sums stay exact under reordering because every event
        weight is integral.
        """
        from .metrics import metric_sort_key

        payload = self.to_payload()
        payload["metric_ids"] = sorted(payload["metric_ids"],
                                       key=metric_sort_key)
        payload["pcs"] = sorted(payload["pcs"], key=lambda row: row[0])
        for table in ("functions", "functions_incl", "data_objects",
                      "cache_lines", "threads"):
            payload[table] = sorted(payload[table], key=lambda row: row[0])
        for table in ("caller_callee", "lines", "pages",
                      "cache_line_objects", "cache_line_writers"):
            payload[table] = sorted(payload[table], key=lambda row: row[:2])
        payload["page_objects"] = sorted(
            payload["page_objects"], key=lambda row: row[:3]
        )
        payload["data_members"] = sorted(
            payload["data_members"], key=lambda row: row[:4]
        )
        payload["address_samples"] = {
            metric: sorted(samples)
            for metric, samples in sorted(payload["address_samples"].items())
        }
        payload["latency_samples"] = {
            metric: sorted(samples)
            for metric, samples in sorted(payload["latency_samples"].items())
        }
        payload["counter_info"] = sorted(
            {
                json.dumps(info, sort_keys=True)
                for info in payload["counter_info"]
            }
        )
        payload["counter_info"] = [
            json.loads(text) for text in payload["counter_info"]
        ]
        payload["segments"] = sorted(payload["segments"])
        payload["allocations"] = sorted(payload["allocations"])
        reasons = sorted(
            set(filter(None, payload["incomplete_reason"].split("; ")))
        )
        payload["incomplete_reason"] = "; ".join(reasons)
        return payload

    @classmethod
    def from_payload(cls, payload: dict,
                     program: Optional[Program] = None) -> "ReducedData":
        """Rebuild a reduction from :meth:`to_payload` output."""
        if payload.get("version") != cls.PAYLOAD_VERSION:
            raise ValueError(
                f"reduction payload v{payload.get('version')} "
                f"!= v{cls.PAYLOAD_VERSION}"
            )
        out = cls(program, payload["clock_hz"])
        out.code_len = payload.get("code_len", out.code_len)
        out.metric_ids = list(payload["metric_ids"])
        out.total = MetricVector(payload["total"])
        for pc, metrics, artifact, data_object, member in payload["pcs"]:
            record = PCRecord(pc, MetricVector(metrics), artifact,
                              data_object, member)
            out.pcs[pc] = record
        for key, metrics in payload["functions"]:
            out.functions[key] = MetricVector(metrics)
        for key, metrics in payload["functions_incl"]:
            out.functions_incl[key] = MetricVector(metrics)
        for caller, callee, metrics in payload["caller_callee"]:
            out.caller_callee[(caller, callee)] = MetricVector(metrics)
        for func, line, metrics in payload["lines"]:
            out.lines[(func, line)] = MetricVector(metrics)
        for key, metrics in payload["data_objects"]:
            out.data_objects[key] = MetricVector(metrics)
        for object_class, offset, member, member_type, metrics in payload[
            "data_members"
        ]:
            key = DataObjectKey(object_class, offset, member, member_type)
            out.data_members[key] = MetricVector(metrics)
        for metric, samples in payload["address_samples"].items():
            out.address_samples[metric] = [
                (ea, weight) for ea, weight in samples
            ]
        for metric, samples in payload.get("latency_samples", {}).items():
            out.latency_samples[metric] = [
                (latency, weight) for latency, weight in samples
            ]
        out.line_bytes = payload["line_bytes"]
        for base, metrics in payload["cache_lines"]:
            out.cache_lines[base] = MetricVector(metrics)
        for segment, base, metrics in payload["pages"]:
            out.pages[(segment, base)] = MetricVector(metrics)
        for base, label, metrics in payload["cache_line_objects"]:
            out.cache_line_objects[(base, label)] = MetricVector(metrics)
        for segment, base, label, metrics in payload["page_objects"]:
            out.page_objects[(segment, base, label)] = MetricVector(metrics)
        for tid, metrics in payload.get("threads", []):
            out.threads[tid] = MetricVector(metrics)
        for base, tid, metrics in payload.get("cache_line_writers", []):
            out.cache_line_writers[(base, tid)] = MetricVector(metrics)
        out.machine_totals = dict(payload["machine_totals"])
        out.segments = [tuple(s) for s in payload["segments"]]
        out.allocations = [tuple(a) for a in payload["allocations"]]
        out.counter_info = list(payload["counter_info"])
        out.incomplete = payload["incomplete"]
        out.incomplete_reason = payload["incomplete_reason"]
        return out


__all__ = [
    "ReducedData",
    "PCRecord",
    "MetricVector",
    "DataObjectKey",
    "UNSPECIFIED",
    "UNRESOLVABLE",
    "UNASCERTAINABLE",
    "UNIDENTIFIED",
    "UNVERIFIABLE",
    "SCALARS",
    "TOTAL",
    "UNKNOWN",
    "UNKNOWN_KINDS",
]
