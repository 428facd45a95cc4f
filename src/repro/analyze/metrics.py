"""Metric definitions shared by the reduction and report layers.

Raw metric values are *counts* (clock ticks x interval cycles; HW events x
overflow interval).  Metrics whose underlying event counts cycles can be
shown as seconds — the paper's Figures display E$ Stall Cycles and User
CPU in seconds, and pure event counters (E$ Read Misses, DTLB Misses) as
counts/percentages.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricDef:
    """Display metadata for one metric column."""
    id: str
    label: str
    #: raw unit is cycles (display as seconds at the experiment's clock)
    counts_cycles: bool
    #: short column header, Figure-2 style
    header: str


METRICS: dict[str, MetricDef] = {
    m.id: m
    for m in (
        MetricDef("user_cpu", "User CPU Time", True, "User CPU"),
        MetricDef("system_cpu", "System CPU Time", True, "Sys CPU"),
        MetricDef("cycles", "Cycle Count", True, "Cycles"),
        MetricDef("insts", "Instructions Completed", False, "Insts"),
        MetricDef("dcrm", "D$ Read Misses", False, "D$ RM"),
        MetricDef("dtlbm", "DTLB Misses", False, "DTLB Miss"),
        MetricDef("ecref", "E$ Refs", False, "E$ Refs"),
        MetricDef("ecrm", "E$ Read Misses", False, "E$ RM"),
        MetricDef("ecstall", "E$ Stall Cycles", True, "E$ Stall"),
        MetricDef("ldbytes", "Bytes Loaded", False, "Ld Bytes"),
        MetricDef("stbytes", "Bytes Stored", False, "St Bytes"),
        MetricDef("br", "Branches Completed", False, "Branches"),
        MetricDef("brm", "Branch Mispredicts", False, "Br Miss"),
        MetricDef("ldlat", "Sampled Load Latency", False, "Ld Lat"),
        MetricDef("cohm", "Coherence Misses", False, "Coh Miss"),
    )
}


#: canonical display order of metrics (reduction output, report columns,
#: and the cached-reduction payload all sort by this)
METRIC_ORDER = (
    "user_cpu",
    "system_cpu",
    "ecstall",
    "ecrm",
    "ecref",
    "dtlbm",
    "dcrm",
    "cycles",
    "insts",
    "ldbytes",
    "stbytes",
    "br",
    "brm",
    "ldlat",
    "cohm",
)


def metric_sort_key(metric_id: str) -> int:
    """Position of a metric in the canonical order (unknowns sort last)."""
    try:
        return METRIC_ORDER.index(metric_id)
    except ValueError:
        return len(METRIC_ORDER)


__all__ = ["MetricDef", "METRICS", "METRIC_ORDER", "metric_sort_key"]
