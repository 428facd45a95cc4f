"""The autotuner's search space: the paper's §3.3/§4 transforms as data.

Each transform is a small frozen dataclass describing one source- or
build-level change the search can try:

* :class:`StructReorder` — reorder a structure's members hottest-first,
  optionally pad the struct to pack an integral number of elements per
  E$ line and align its heap allocations (the paper's ``node`` fix:
  reorder + pad 120 -> 128 + align, measured 16.2%);
* :class:`StructSplit` — split a structure into a hot part and a cold
  part (proposed by the advisor when few members carry the cost; the
  mini-C rewriter cannot apply it — member accesses would need
  rewriting — so trials carrying it are journaled ``unsupported``);
* :class:`PageSize` — map the heap with larger pages (the paper's
  ``-xpagesize_heap=512k``, measured 20.7% combined);
* :class:`Prefetch` — recompile with profile-guided prefetch insertion
  from :mod:`repro.analyze.feedback` hints (§4's feedback file).

Transforms serialize to/from plain JSON dicts (:func:`transform_to_dict`
/ :func:`transform_from_dict`) so the search journal can name every
trial's chain durably, and :meth:`Transform.key` gives the canonical
string used for dedup and for matching journal records on resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import AutotuneError
from ..ioutil import canonical_json


@dataclass(frozen=True)
class StructReorder:
    """Reorder ``struct``'s members into ``order`` (hottest first), pad
    to ``pad_to`` bytes (0 = no padding) and align its heap allocations
    to ``align`` bytes (0 = leave the allocator's natural alignment)."""

    kind = "reorder"
    struct: str
    order: Tuple[str, ...]
    pad_to: int = 0
    align: int = 0

    def describe(self) -> str:
        parts = [f"reorder struct {self.struct} ({', '.join(self.order[:4])}, ...)"]
        if self.pad_to:
            parts.append(f"pad to {self.pad_to} B")
        if self.align:
            parts.append(f"align allocations to {self.align} B")
        return "; ".join(parts)


@dataclass(frozen=True)
class StructSplit:
    """Split ``struct`` into a hot part (``hot`` members) and a cold
    remainder reached through a pointer."""

    kind = "split"
    struct: str
    hot: Tuple[str, ...]

    def describe(self) -> str:
        return f"split struct {self.struct} (hot: {', '.join(self.hot)})"


@dataclass(frozen=True)
class PageSize:
    """Map the heap with ``bytes_`` -byte pages."""

    kind = "pagesize"
    bytes_: int

    def describe(self) -> str:
        return f"heap pages {self.bytes_ // 1024}k"


@dataclass(frozen=True)
class Prefetch:
    """Insert software prefetches for the named hot loads; each hint is
    a ``(function, object_class, member)`` triple."""

    kind = "prefetch"
    hints: Tuple[Tuple[str, str, str], ...]

    def describe(self) -> str:
        sites = ", ".join(f"{f}:{m}" for f, _oc, m in self.hints[:3])
        more = f" (+{len(self.hints) - 3} more)" if len(self.hints) > 3 else ""
        return f"prefetch {sites}{more}"


TRANSFORM_KINDS = {
    "reorder": StructReorder,
    "split": StructSplit,
    "pagesize": PageSize,
    "prefetch": Prefetch,
}


def transform_to_dict(transform) -> dict:
    """A plain-JSON description of one transform (journal format)."""
    if isinstance(transform, StructReorder):
        return {
            "kind": "reorder",
            "struct": transform.struct,
            "order": list(transform.order),
            "pad_to": transform.pad_to,
            "align": transform.align,
        }
    if isinstance(transform, StructSplit):
        return {"kind": "split", "struct": transform.struct,
                "hot": list(transform.hot)}
    if isinstance(transform, PageSize):
        return {"kind": "pagesize", "bytes": transform.bytes_}
    if isinstance(transform, Prefetch):
        return {"kind": "prefetch",
                "hints": [list(hint) for hint in transform.hints]}
    raise AutotuneError(f"unknown transform {transform!r}")


def transform_from_dict(record: dict):
    """Rebuild a transform from :func:`transform_to_dict` output."""
    try:
        kind = record["kind"]
    except (TypeError, KeyError):
        raise AutotuneError(f"bad transform record {record!r}") from None
    try:
        if kind == "reorder":
            return StructReorder(
                struct=record["struct"], order=tuple(record["order"]),
                pad_to=int(record.get("pad_to", 0)),
                align=int(record.get("align", 0)),
            )
        if kind == "split":
            return StructSplit(struct=record["struct"],
                               hot=tuple(record["hot"]))
        if kind == "pagesize":
            return PageSize(bytes_=int(record["bytes"]))
        if kind == "prefetch":
            return Prefetch(hints=tuple(
                tuple(hint) for hint in record["hints"]
            ))
    except (KeyError, TypeError, ValueError):
        raise AutotuneError(f"bad transform record {record!r}") from None
    raise AutotuneError(f"unknown transform kind {kind!r}")


def transform_key(transform) -> str:
    """Canonical identity string (dedup + journal matching on resume)."""
    return canonical_json(transform_to_dict(transform))


__all__ = [
    "StructReorder",
    "StructSplit",
    "PageSize",
    "Prefetch",
    "TRANSFORM_KINDS",
    "transform_to_dict",
    "transform_from_dict",
    "transform_key",
]
