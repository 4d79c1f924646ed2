"""In-memory span tracer that times library layers from outside the library.

A span is recorded around each call of a patched callable: its name, start
and end (``time.perf_counter`` seconds), the index of the enclosing span
(``-1`` for a root), optional data extracted from the call's result, and
whether the call raised.  Spans stay in memory; a caller aggregates or writes
them out when the benchmark ends.

Patching replaces a module or class attribute with a timing wrapper and
:meth:`Tracer.restore` puts every original back, so code run outside a
``with Tracer()`` block executes the library exactly as shipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Field positions in a span record.
NAME, START, END, PARENT, DATA, RAISED = range(6)


class Tracer:
    """Records nested spans around patched callables; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, inspect=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``inspect(args, kwargs, result)``, when given, is stored as the span's
        data after a successful call.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if inspect is not None:
                span[DATA] = inspect(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, raw_attribute(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_traced(self, owner, attr: str, name: str, inspect=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper of itself."""
        self.patch(owner, attr, self.wrap(name, raw_attribute(owner, attr), inspect))

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def raw_attribute(owner, attr: str):
    """The attribute as stored: a class's own ``__dict__`` entry, unbound."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(kids, span[START], span[END])
        for span, kids in zip(spans, children)
    ]


@dataclass
class LayerTotals:
    """Summed counts and times (seconds) of all spans sharing one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    raised: int = 0


def aggregate(spans) -> dict[str, LayerTotals]:
    """Per-name call count, busy time, self time and raised-call count."""
    totals: dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = totals.setdefault(span[NAME], LayerTotals())
        layer.calls += 1
        layer.total += span[END] - span[START]
        layer.self_time += own
        layer.raised += span[RAISED]
    return totals


def nearest_ancestor(spans, name: str) -> list[int]:
    """Index of each span's closest enclosing span called ``name`` (or -1).

    A span called ``name`` is its own nearest such span.  Parents always
    precede their children in ``spans``, so one forward pass suffices.
    """
    out: list[int] = []
    for i, span in enumerate(spans):
        if span[NAME] == name:
            out.append(i)
        else:
            out.append(out[span[PARENT]] if span[PARENT] >= 0 else -1)
    return out
