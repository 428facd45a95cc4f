"""Line-ownership coherence model for the shared E$ (DESIGN.md §13).

A deliberately small MESI-style directory kept at *E$-line* granularity:

* ``owner[line]`` — the core holding the line Modified/Exclusive (a core
  that stored to it last and has not been snooped since).
* ``sharers[line]`` — every core that has touched the line since the
  last ownership change (owner included).

Only two transitions cost anything, and both emit one ``cohm``
(coherence miss) event on the requesting core:

* a **load miss** that hits a line another core owns pays
  ``coherence_transfer_cycles`` (ownership downgrade + cache-to-cache
  forward) and the line becomes shared;
* a **store** to a line this core does not own, while any other core
  holds it, pays ``coherence_invalidate_cycles`` and invalidates the
  other cores' D$ copies of the (smaller) D$ lines inside the E$ line.

The directory holds no data — the arena stays authoritative, exactly
like the caches — so it only ever changes *when* cycles are charged and
which D$ lines survive, never what a load returns.  With one core the
machine never constructs a directory and the hot loops skip every hook,
which is what keeps single-core journals byte-identical to the
historical ones.
"""

from __future__ import annotations


class CoherenceDirectory:
    """Shared-E$ line ownership tracking for an N-core machine."""

    __slots__ = (
        "line_shift",
        "line_bytes",
        "transfer_cycles",
        "invalidate_cycles",
        "dcaches",
        "owner",
        "sharers",
        "cohm_counts",
        "transfer_count",
        "invalidate_count",
    )

    def __init__(
        self,
        line_bytes: int,
        transfer_cycles: int,
        invalidate_cycles: int,
        dcaches: list,
    ) -> None:
        self.line_shift = line_bytes.bit_length() - 1
        self.line_bytes = line_bytes
        self.transfer_cycles = transfer_cycles
        self.invalidate_cycles = invalidate_cycles
        #: per-core D$ models, indexed by core id (for remote invalidation)
        self.dcaches = dcaches
        self.owner: dict[int, int] = {}
        self.sharers: dict[int, set] = {}
        #: per-core count of coherence misses (ground truth for stats)
        self.cohm_counts = [0] * len(dcaches)
        self.transfer_count = 0
        self.invalidate_count = 0

    def load_miss(self, core: int, ea: int) -> int:
        """Core ``core`` D$-missed a load at ``ea``; returns penalty cycles.

        Called only from the D$-miss path: a D$ *hit* proves no other
        core has stored to the line since we last loaded it (a remote
        store acquisition would have invalidated our copy), so hits need
        no directory traffic.
        """
        line = ea >> self.line_shift
        penalty = 0
        holder = self.owner.get(line)
        if holder is not None and holder != core:
            # dirty in a remote core: downgrade to shared + forward
            del self.owner[line]
            penalty = self.transfer_cycles
            self.cohm_counts[core] += 1
            self.transfer_count += 1
        members = self.sharers.get(line)
        if members is None:
            self.sharers[line] = {core}
        else:
            members.add(core)
        return penalty

    def store(self, core: int, ea: int) -> int:
        """Core ``core`` is storing at ``ea``; returns penalty cycles.

        Called for every store this core does not already own the line
        for (the hot loops pre-guard on ``owner.get(line) != core``).
        Acquiring ownership invalidates every other core's D$ lines
        spanning the E$ line.
        """
        line = ea >> self.line_shift
        holder = self.owner.get(line)
        if holder == core:
            return 0
        members = self.sharers.get(line)
        remote = holder is not None or (
            members is not None and (len(members) > 1 or core not in members)
        )
        penalty = 0
        if remote:
            penalty = self.invalidate_cycles
            self.cohm_counts[core] += 1
            self.invalidate_count += 1
            base = line << self.line_shift
            for idx, dcache in enumerate(self.dcaches):
                if idx != core:
                    dcache.invalidate_range(base, self.line_bytes)
        self.owner[line] = core
        self.sharers[line] = {core}
        return penalty


__all__ = ["CoherenceDirectory"]
