"""Min-cost-flow instance generation and the flat ``mcf.in`` encoding.

``181.mcf`` solves single-depot vehicle scheduling as a min-cost-flow
problem.  We generate instances with the same flavour: a set of timetabled
trips, deadhead arcs between time-compatible trips, and a depot that
supplies vehicles — then flatten to the generic MCF form (node supplies +
capacitated arcs) that both the simulated program and networkx read.

Encoding (longs, parsed by the mini-C program's ``read_min``)::

    [ n, m,
      b_1 .. b_n,                       node supplies (sum must be 0)
      tail_1, head_1, cap_1, cost_1,    per arc, nodes numbered 1..n
      ... ]
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import WorkloadError


@dataclass
class McfInstance:
    """One min-cost-flow problem."""

    n: int
    supplies: list          # length n, 1-based node i has supplies[i-1]
    arcs: list              # (tail, head, cap, cost), nodes 1-based
    name: str = "mcf"

    def __post_init__(self) -> None:
        if sum(self.supplies) != 0:
            raise WorkloadError("supplies must sum to zero")
        for tail, head, cap, cost in self.arcs:
            if not (1 <= tail <= self.n and 1 <= head <= self.n):
                raise WorkloadError(f"arc ({tail},{head}) outside 1..{self.n}")
            if tail == head:
                raise WorkloadError("self-loops are not allowed")
            if cap <= 0:
                raise WorkloadError("arc capacities must be positive")

    @property
    def m(self) -> int:
        """Number of arcs."""
        return len(self.arcs)


def generate_instance(
    trips: int = 200,
    seed: int = 1,
    connections_per_trip: int = 8,
    time_horizon: int = 1000,
    name: str = "mcf",
) -> McfInstance:
    """A vehicle-scheduling-flavoured instance.

    Nodes: one per trip plus a depot (node ``n``).  Each trip must be
    covered by exactly one vehicle: trip node i has supply +1 flowing to
    either a compatible later trip or back to the depot; the depot absorbs
    everything and re-emits it to trip starts.  To keep the generic MCF
    shape simple we model this directly as supplies/demands:

    * trip i: supply +1 (a vehicle leaves the trip when it ends);
    * depot: demand -trips (vehicles return eventually);
    * arcs: trip->trip deadheads (cap 1, cost = idle time), trip->depot
      pull-ins (cap 1, moderate cost), depot->trip pull-outs are not
      needed because pull-outs precede supply in this one-shot flow.

    The result is feasible by construction (every trip has a pull-in arc).
    """
    if trips < 2:
        raise WorkloadError("need at least 2 trips")
    rng = random.Random(seed)
    n = trips + 1
    depot = n
    starts = sorted(rng.randrange(time_horizon) for _ in range(trips))
    durations = [rng.randrange(10, 60) for _ in range(trips)]

    supplies = [1] * trips + [-trips]
    arcs: list[tuple] = []
    for i in range(trips):
        end_i = starts[i] + durations[i]
        # deadhead connections to compatible later trips
        later = [j for j in range(trips) if starts[j] >= end_i + 5 and j != i]
        rng.shuffle(later)
        for j in later[:connections_per_trip]:
            idle = starts[j] - end_i
            arcs.append((i + 1, j + 1, 1, 10 + idle))
        # pull-in to the depot (guarantees feasibility)
        arcs.append((i + 1, depot, 1, 500 + rng.randrange(50)))
    # trips reached by deadheads need their vehicle forwarded: a deadhead
    # into trip j consumes j's own +1?  No: in this flattened form each
    # trip emits one unit and the depot absorbs `trips` units; deadhead
    # arcs let a unit take a cheaper path through later trips, but then
    # that trip's capacity into the depot must carry both -- widen pull-ins.
    widened = []
    for tail, head, cap, cost in arcs:
        if head == depot:
            widened.append((tail, head, trips, cost))
        else:
            widened.append((tail, head, cap, cost))
    return McfInstance(n=n, supplies=supplies, arcs=widened, name=name)


def encode_instance(instance: McfInstance) -> list:
    """Flatten to the longs array the simulated program parses."""
    data = [instance.n, instance.m]
    data.extend(instance.supplies)
    for tail, head, cap, cost in instance.arcs:
        data.extend((tail, head, cap, cost))
    return data


def decode_instance(data: list, name: str = "mcf") -> McfInstance:
    """Inverse of :func:`encode_instance` (round-trip tests)."""
    if len(data) < 2:
        raise WorkloadError("encoded instance too short")
    n, m = data[0], data[1]
    if len(data) != 2 + n + 4 * m:
        raise WorkloadError(
            f"encoded instance length {len(data)} != expected {2 + n + 4 * m}"
        )
    supplies = list(data[2 : 2 + n])
    arcs = []
    base = 2 + n
    for k in range(m):
        tail, head, cap, cost = data[base + 4 * k : base + 4 * k + 4]
        arcs.append((tail, head, cap, cost))
    return McfInstance(n=n, supplies=supplies, arcs=arcs, name=name)


def to_networkx(instance: McfInstance):
    """Build the networkx multigraph for cross-validation (one edge per
    arc, so parallel arcs keep their own capacity and cost)."""
    import networkx as nx

    graph = nx.MultiDiGraph()
    for i, supply in enumerate(instance.supplies, start=1):
        graph.add_node(i, demand=-supply)  # networkx demand = -supply
    for tail, head, cap, cost in instance.arcs:
        graph.add_edge(tail, head, capacity=cap, weight=cost)
    return graph


def reference_optimal_cost(instance: McfInstance) -> int:
    """Optimal cost via networkx (ground truth for tests)."""
    import networkx as nx

    return nx.min_cost_flow_cost(to_networkx(instance))


__all__ = [
    "McfInstance",
    "generate_instance",
    "encode_instance",
    "decode_instance",
    "to_networkx",
    "reference_optimal_cost",
]
