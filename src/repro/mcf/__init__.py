"""The SPEC CPU2000 ``181.mcf`` workload (Löbel's network simplex).

Two layers:

* :mod:`repro.mcf.instance` — min-cost-flow instance generation (a
  vehicle-scheduling-flavoured random network), the ``mcf.in``-like
  flat encoding the simulated program parses, and the networkx optimum
  the tests check the simulated solver against;
* :mod:`repro.mcf.sources` — the mini-C port that runs on the simulated
  machine, with the paper's exact ``node``/``arc`` layouts and function
  names, in baseline and §3.3-optimized variants.
"""

from .instance import McfInstance, generate_instance, encode_instance
from .sources import mcf_source, MCF_DEFINES, LayoutVariant
from .workload import build_mcf, run_mcf, McfRun

__all__ = [
    "McfInstance",
    "generate_instance",
    "encode_instance",
    "mcf_source",
    "MCF_DEFINES",
    "LayoutVariant",
    "build_mcf",
    "run_mcf",
    "McfRun",
]
