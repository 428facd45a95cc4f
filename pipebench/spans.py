"""In-memory span tracing for the pipeline benchmark.

A span records one call into a layer: its name, start, end and the span
that was open when it began (its parent).  Spans are kept in a list and
written out once, when the benchmark ends, so tracing never touches the
disk while the program is being timed.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a name where its caller looks it up (a module global or a class
attribute) with a wrapper that opens a span around the call, and
:meth:`Tracer.unwrap_all` puts every original back.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import inspect
import json
import time

#: slack for float rounding when checking that a span's self time plus
#: its children's time adds up to its duration
ACCOUNTING_TOLERANCE_S = 1e-6


class Tracer:
    """Records nested spans; wraps and unwraps layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None], in start order
        self.spans: list = []
        self._open: list = []
        self._patches: list = []

    # ------------------------------------------------------------ spans

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    # ---------------------------------------------------------- patching

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``on_result`` sees each call's return value."""
        original = inspect.getattr_static(owner, attr)
        function = getattr(owner, attr)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr,
                staticmethod(traced) if isinstance(original, staticmethod)
                else traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped name, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as stream:
            for name, start, end, parent in self.spans:
                stream.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}, separators=(",", ":")) + "\n")


def layer_times(spans: list, first: int = 0) -> tuple:
    """(total, self) seconds per span name over the spans from ``first``.

    A span's self time is its duration minus the time its child spans
    cover; children of one span run one after another, so that is the
    sum of their durations.
    """
    covered: dict = {}
    for _name, start, end, parent in spans[first:]:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    total: dict = {}
    own: dict = {}
    for index in range(first, len(spans)):
        name, start, end, _parent = spans[index]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - covered.get(index, 0.0)
    return total, own


def accounting_errors(spans: list, names, first: int = 0) -> list:
    """Spans named in ``names`` whose self time plus children's time does
    not add up to their duration: a child that starts before or ends
    after its parent, or two children that overlap."""
    kids: dict = {}
    for index in range(first, len(spans)):
        parent = spans[index][3]
        if parent is not None:
            kids.setdefault(parent, []).append(index)
    errors = []
    for index in range(first, len(spans)):
        name, start, end, _parent = spans[index]
        if name not in names:
            continue
        cursor = start
        for child in kids.get(index, ()):
            child_start, child_end = spans[child][1], spans[child][2]
            if child_start < cursor - ACCOUNTING_TOLERANCE_S:
                errors.append(f"span {index} ({name}): child {child} "
                              f"({spans[child][0]}) overlaps")
            cursor = child_end
        if cursor > end + ACCOUNTING_TOLERANCE_S:
            errors.append(f"span {index} ({name}): children end after it")
    return errors
