"""Tunable-workload adapters for the autotune search.

A :class:`TunableWorkload` is everything the search needs to build and
profile one workload under a transform chain: the baseline mini-C
source (the rewriter's input), the encoded input, the counter passes a
full profile takes (the paper's two MCF passes), and a JSON description
of itself for the search journal's meta record (so ``repro-autotune
resume`` can rebuild the identical workload from the journal alone).

The machine registry maps the CLI's ``--machine`` names to configs; the
``tight`` entry is the scaled machine with a 16 kB E$ and a 4-entry
DTLB, calibrated so a small (sub-minute) MCF instance shows the same
layout/page-size effects as the paper's full-size run — the CI smoke
profile.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from ..config import MachineConfig, TLBConfig, scaled_config, tiny_config
from ..errors import AutotuneError


@dataclass
class TunableWorkload:
    """One workload, described well enough to rebuild it from JSON."""

    name: str
    source: str
    input_longs: list
    #: counter-request lists, one per profile pass (PIC-register-sized)
    counter_passes: list
    #: journal meta description; must round-trip through make_workload
    meta: dict = field(default_factory=dict)


def mcf_tunable(trips: int = 150, seed: int = 1,
                connections: int = 8) -> TunableWorkload:
    """The paper's MCF case study as a tunable workload (baseline layout,
    no hints — the search must rediscover §3.3/§4 on its own)."""
    from ..mcf.casestudy import counter_passes
    from ..mcf.instance import encode_instance, generate_instance
    from ..mcf.sources import LayoutVariant, mcf_source

    instance = generate_instance(
        trips=trips, seed=seed, connections_per_trip=connections
    )
    return TunableWorkload(
        name="mcf",
        source=mcf_source(LayoutVariant.BASELINE),
        input_longs=list(encode_instance(instance)),
        counter_passes=counter_passes(instance),
        meta={"workload": "mcf", "trips": trips, "seed": seed,
              "connections": connections},
    )


def make_workload(meta: dict) -> TunableWorkload:
    """Rebuild a workload from its journal meta description."""
    try:
        name = meta["workload"]
    except (TypeError, KeyError):
        raise AutotuneError(f"bad workload description {meta!r}") from None
    if name == "mcf":
        return mcf_tunable(
            trips=int(meta.get("trips", 150)),
            seed=int(meta.get("seed", 1)),
            connections=int(meta.get("connections", 8)),
        )
    raise AutotuneError(f"unknown tunable workload {name!r}")


def _tight_config() -> MachineConfig:
    base = scaled_config()
    return replace(
        base,
        ecache=replace(base.ecache, size_bytes=16 * 1024),
        dtlb=TLBConfig(entries=4, default_page_bytes=8192, miss_cycles=100),
    )


MACHINES = {
    "scaled": scaled_config,
    "tiny": tiny_config,
    "tight": _tight_config,
}


def make_machine(name: str) -> MachineConfig:
    """Resolve a ``--machine`` name from the registry."""
    try:
        return MACHINES[name]()
    except KeyError:
        raise AutotuneError(
            f"unknown machine {name!r}; one of {', '.join(sorted(MACHINES))}"
        ) from None


def machine_fingerprint(config: MachineConfig) -> dict:
    """A JSON description of the machine, for the journal meta record.

    Resume refuses to continue a journal recorded on a different machine
    — cycle counts would not be comparable across trials.
    """
    return asdict(config)


__all__ = [
    "TunableWorkload",
    "mcf_tunable",
    "make_workload",
    "MACHINES",
    "make_machine",
    "machine_fingerprint",
]
