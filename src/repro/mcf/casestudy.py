"""The paper's §3 case study, end to end.

Reproduces the two collect runs of §3.1::

    collect -S off -p on  -h +ecstall,lo,+ecrm,on  mcf.exe mcf.in
    collect -S off -p off -h +ecref,on,+dtlbm,on   mcf.exe mcf.in

then merges the two experiments into one analysis, exactly like feeding
both to the analyzer.  Results are memoized per (instance, config,
variant) because several benchmarks read different figures from the same
pair of experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analyze.model import ReducedData
from ..analyze.reduce import reduce_experiments
from ..collect.collector import CollectConfig, collect
from ..collect.experiment import Experiment
from ..config import MachineConfig, scaled_config
from .instance import McfInstance, encode_instance, generate_instance
from .sources import LayoutVariant
from .workload import build_mcf

#: the default reproduction instance (~25M instructions on the scaled
#: machine; a profiled run takes tens of seconds of host time)
DEFAULT_TRIPS = 800
DEFAULT_SEED = 1
DEFAULT_CONNECTIONS = 8


@dataclass
class CaseStudy:
    """Both §3.1 experiments plus their merged reduction."""
    instance: McfInstance
    experiment1: Experiment  # clock + ecstall + ecrm
    experiment2: Experiment  # ecref + dtlbm
    reduced: ReducedData


_CACHE: dict = {}


def default_instance(trips: int = DEFAULT_TRIPS, seed: int = DEFAULT_SEED) -> McfInstance:
    """The standard reproduction instance for a size."""
    return generate_instance(
        trips=trips, seed=seed, connections_per_trip=DEFAULT_CONNECTIONS
    )


def _interval(instance: McfInstance, base: int, floor: int) -> int:
    """An overflow interval scaled to ``instance``.

    The paper's hi/on/lo presets target 550-second runs; a scaled run
    needs ~10^3-10^4 samples per counter, so intervals scale with the
    instance (the reference point is the default 800-trip instance, about
    7000 arcs).
    """
    return max(floor, int(base * max(instance.m / 7000.0, 0.02)))


def counter_passes(instance: McfInstance) -> list:
    """The counter lists of the two §3.1 passes, with numeric overflow
    intervals scaled to ``instance``."""
    return [
        [f"+ecstall,{_interval(instance, 4999, 211)}",
         f"+ecrm,{_interval(instance, 97, 13)}"],
        [f"+ecref,{_interval(instance, 499, 31)}",
         f"+dtlbm,{_interval(instance, 29, 5)}"],
    ]


def run_case_study(
    instance: Optional[McfInstance] = None,
    config: Optional[MachineConfig] = None,
    variant: LayoutVariant = LayoutVariant.BASELINE,
    heap_page_bytes: Optional[int] = None,
    use_cache: bool = True,
) -> CaseStudy:
    """Run both experiments and the merged reduction."""
    instance = instance or default_instance()
    config = config or scaled_config()
    key = (
        instance.name,
        instance.n,
        instance.m,
        id(instance) if instance.name == "" else tuple(instance.supplies[:8]),
        variant,
        heap_page_bytes,
        config.ecache.size_bytes,
        config.dtlb.entries,
        config.seed,
    )
    if use_cache and key in _CACHE:
        return _CACHE[key]

    program = build_mcf(variant, hwcprof=True)
    input_longs = encode_instance(instance)

    counters1, counters2 = counter_passes(instance)
    config1 = CollectConfig(
        clock_profiling=True,
        clock_interval=_interval(instance, 4999, 499),
        counters=counters1,
        name="mcf-exp1",
    )
    config2 = CollectConfig(
        clock_profiling=False, counters=counters2, name="mcf-exp2",
    )
    experiment1 = collect(
        program, config, config1,
        input_longs=input_longs, heap_page_bytes=heap_page_bytes,
    )
    experiment2 = collect(
        program, config, config2,
        input_longs=input_longs, heap_page_bytes=heap_page_bytes,
    )
    reduced = reduce_experiments([experiment1, experiment2])
    result = CaseStudy(instance, experiment1, experiment2, reduced)
    if use_cache:
        _CACHE[key] = result
    return result


__all__ = [
    "CaseStudy",
    "counter_passes",
    "run_case_study",
    "default_instance",
    "DEFAULT_TRIPS",
    "DEFAULT_SEED",
]
