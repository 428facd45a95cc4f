"""repro — reproduction of "Memory Profiling using Hardware Counters"
(Itzkowitz, Wylie, Aoki, Kosche; SC'03) on a simulated SPARC-like machine.

Layered public API:

* ``repro.lang`` / ``repro.compiler`` — a mini-C compiler with the paper's
  ``-xhwcprof`` data-space debug information;
* ``repro.machine`` / ``repro.kernel`` — the simulated UltraSPARC-III-like
  machine (caches, DTLB, two HW counter registers with trap skid) and a
  minimal OS (loader, heap with page-size control, signals);
* ``repro.collect`` — the ``collect`` tool: clock + HW-counter overflow
  profiling with the apropos backtracking search;
* ``repro.analyze`` — the ``er_print`` equivalent: trigger-PC validation
  and metrics per function / source line / PC / **data object**;
* ``repro.mcf`` — the SPEC CPU2000 ``181.mcf`` workload (network simplex)
  in mini-C, checked against networkx's min-cost flow;
* ``repro.layoutopt`` — structure-layout advice from data profiles (§3.3).
"""

from .config import (
    MachineConfig,
    CacheConfig,
    TLBConfig,
    paper_config,
    scaled_config,
    tiny_config,
)
from .compiler import build_executable, compile_module, link, Program
from .faults import FaultPlan
from .kernel import Process

from .collect.collector import Collector, CollectConfig, collect
from .collect.experiment import Experiment
from .analyze.reduce import reduce_experiment, reduce_experiments

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "CacheConfig",
    "TLBConfig",
    "paper_config",
    "scaled_config",
    "tiny_config",
    "build_executable",
    "compile_module",
    "link",
    "Program",
    "Process",
    "Collector",
    "CollectConfig",
    "collect",
    "Experiment",
    "FaultPlan",
    "reduce_experiment",
    "reduce_experiments",
    "__version__",
]
