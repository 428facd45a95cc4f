"""Counter-request scheduling: register assignment and pass planning.

The machine has two PIC registers and each event has a register *menu*
(``EventSpec.registers``).  The paper's workflow left the packing to the
user — MCF needed two hand-planned runs because ecstall/ecref are
PIC0-only while ecrm/dtlbm live on PIC1.  This module automates it, the
way rocprof "automatically handles multi-pass collection":

* :func:`assign_registers` solves one pass: a maximum bipartite matching
  of requests onto registers (Kuhn's augmenting paths, free-register
  first so unconstrained pairs keep the natural first-fit assignment).
  It replaces the old parse-time register defaulting, which collided on
  pairs like ``cycles,insts`` even though a valid packing existed.
* :func:`plan_passes` packs an arbitrary request list into a minimum
  number of passes greedily, most-constrained request first, re-running
  the matching as the feasibility check for each tentative placement.
  With two registers this first-fit-decreasing strategy is optimal: a
  pass holds at most two requests, so the pass count is
  ``max(#PIC0-only, #PIC1-only, ceil(n/2))`` and the greedy pairing of
  single-register events with flexible ones achieves that bound.

A :class:`PassPlan` either runs as one collect pass per entry (merged
downstream by the reduction layer) or — when the caller asks for
time-multiplexing — as a single run whose counter groups rotate onto the
PICs every quantum, with event weights scaled by the group count and
flagged as estimates in the journal (see ``collector.CollectConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import CollectError
from ..machine.counters import CounterSpec


def _match_registers(menus: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Match every menu to a distinct register, or return None.

    Kuhn's augmenting-path bipartite matching, trying free registers in
    menu order before displacing an earlier assignment — so request
    lists that the old first-fit assignment handled keep their exact
    register choices (journal file names depend on them).
    """
    owner: dict[int, int] = {}

    def place(i: int, seen: set[int]) -> bool:
        for r in menus[i]:
            if r not in owner and r not in seen:
                owner[r] = i
                return True
        for r in menus[i]:
            if r in seen:
                continue
            seen.add(r)
            if place(owner[r], seen):
                owner[r] = i
                return True
        return False

    for i in range(len(menus)):
        if not place(i, set()):
            return None
    out = [-1] * len(menus)
    for r, i in owner.items():
        out[i] = r
    return out


def assign_registers(requests: Sequence[str]) -> list[CounterSpec]:
    """Parse one pass worth of counter requests and assign PIC registers.

    Raises :class:`CollectError` for malformed requests, for more than
    two counters (that is what :func:`plan_passes` is for) and for
    genuinely unpackable pairs (two PIC0-only events, say).
    """
    if len(requests) > 2:
        raise CollectError("at most two HW counters per experiment")
    parsed = [CounterSpec.parse(text) for text in requests]
    menus = [spec.event.registers for spec in parsed]
    order = sorted(range(len(parsed)), key=lambda i: (len(menus[i]), i))
    assignment = _match_registers([menus[i] for i in order])
    if assignment is None:
        names = [spec.event.name for spec in parsed]
        raise CollectError(
            f"counters {names} cannot be mapped to different PIC registers"
        )
    out: list[Optional[CounterSpec]] = [None] * len(parsed)
    for k, i in enumerate(order):
        spec = parsed[i]
        out[i] = CounterSpec(spec.event, spec.interval, spec.backtrack,
                             assignment[k])
    return [spec for spec in out if spec is not None]


def check_multiplexed_events(names: Sequence[str]) -> None:
    """Refuse multiplexed counter groups that repeat an event: a
    multiplexed run scales each sample by the group count, so an event
    live in two groups would be counted twice.  The plan and the
    collector both call this, so a plan that prints is a plan that runs.
    """
    if len(set(names)) != len(names):
        raise CollectError("multiplexed counter groups repeat an event")


@dataclass(frozen=True)
class Assignment:
    """One counter request placed on a PIC register within a pass."""

    request: str
    event: str
    register: int


@dataclass(frozen=True)
class PassPlan:
    """The scheduler's output: counter requests grouped into passes."""

    passes: tuple
    #: True when the plan is meant to run as ONE time-multiplexed pass
    #: whose groups rotate onto the PICs (only set when the caller asked
    #: for multiplexing AND more than one group is actually needed)
    multiplexed: bool = False

    @property
    def scale(self) -> int:
        """Weight multiplier under multiplexing (1 for dedicated passes)."""
        return len(self.passes) if self.multiplexed else 1

    def pass_requests(self) -> list[list[str]]:
        """The verbatim request strings, one list per pass/group."""
        return [[a.request for a in p] for p in self.passes]

    def describe(self) -> str:
        """Human-readable plan, the ``--schedule plan`` dry-run output."""
        n = sum(len(p) for p in self.passes)
        counters = "counter" if n == 1 else "counters"
        if self.multiplexed:
            lines = [
                f"schedule: {n} {counters} -> 1 multiplexed run "
                f"({len(self.passes)} groups, weights scaled x{self.scale})"
            ]
            label = "group"
        else:
            word = "pass" if len(self.passes) == 1 else "passes"
            lines = [f"schedule: {n} {counters} -> {len(self.passes)} {word}"]
            label = "pass"
        width = max(len(a.request) for p in self.passes for a in p)
        for index, assignments in enumerate(self.passes):
            cells = "   ".join(
                f"PIC{a.register} <- {a.request:<{width}}" for a in assignments
            )
            lines.append(f"  {label} {index}: {cells.rstrip()}")
        return "\n".join(lines)


def plan_passes(requests: Sequence[str], multiplex: bool = False) -> PassPlan:
    """Pack an arbitrary counter-request list into minimum passes.

    Greedy first-fit-decreasing: requests are placed most-constrained
    (smallest register menu) first into the earliest pass where the
    bipartite matching still succeeds and no event name repeats (one
    event cannot occupy both PICs).  Request order is preserved inside a
    pass and passes are ordered by their earliest request, so pass 0
    carries the user's first counter (and, downstream, clock profiling).
    """
    requests = list(requests)
    if not requests:
        raise CollectError("no counters requested")
    parsed = [CounterSpec.parse(text) for text in requests]
    names = [spec.event.name for spec in parsed]
    order = sorted(
        range(len(requests)),
        key=lambda i: (len(parsed[i].event.registers), i),
    )
    groups: list[list[int]] = []
    for i in order:
        placed = False
        for members in groups:
            if any(names[j] == names[i] for j in members):
                continue
            menus = [parsed[j].event.registers for j in members]
            menus.append(parsed[i].event.registers)
            if _match_registers(menus) is not None:
                members.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    passes = []
    for members in sorted(groups, key=min):
        members = sorted(members)
        specs = assign_registers([requests[j] for j in members])
        passes.append(tuple(
            Assignment(requests[j], names[j], spec.register)
            for j, spec in zip(members, specs)
        ))
    multiplexed = multiplex and len(passes) > 1
    if multiplexed:
        check_multiplexed_events(names)
    return PassPlan(tuple(passes), multiplexed=multiplexed)


__all__ = [
    "Assignment", "PassPlan", "assign_registers", "check_multiplexed_events",
    "plan_passes",
]
