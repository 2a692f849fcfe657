"""Spans around the public entry points of the simulator's layers.

A span is one call of a wrapped function: its name, its start and end on
the host clock, and the span that was open when it began (its parent).
:class:`SpanRecorder` wraps functions and methods for the length of a
``with`` block, keeps every span in memory and restores the originals on
exit; :func:`span_totals` turns the spans into per-name seconds when the
pass is over.

The wrappers live in the benchmark, not in the program: the traced pass
swaps them in and the timed passes never see them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One call of a wrapped entry point."""

    name: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, ``None`` at the root
    parent: Optional[int]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose ``parent`` is this span; grandchildren are
    already inside their parent's interval, so they are not subtracted
    twice.  Overlapping children are merged before subtracting, and a
    child's interval is clipped to its parent's.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start: Optional[float] = None
        run_end = 0.0
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_start is None or start > run_end:
                if run_start is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_start is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


@dataclass
class SpanTotal:
    """Seconds and calls of one span name over a pass."""

    inclusive: float = 0.0
    self: float = 0.0
    calls: int = 0


def span_totals(spans: List[Span]) -> Dict[str, SpanTotal]:
    """Inclusive seconds, self seconds and call count per span name."""
    totals: Dict[str, SpanTotal] = {}
    for span, own in zip(spans, self_times(spans)):
        total = totals.setdefault(span.name, SpanTotal())
        total.inclusive += span.end - span.start
        total.self += own
        total.calls += 1
    return totals


class SpanRecorder:
    """Records spans of wrapped callables while installed (a context manager).

    Use :meth:`patch` to register targets, then ``with recorder:`` to swap
    the wrappers in for the block.  Functions are patched in their home
    module and in every ``repro`` module that imported them by name, so a
    ``from ... import f`` binding is traced too.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._stack: List[int] = []
        self._targets: List[Tuple[str, Any, str]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, name: str, owner: Any, attr: str) -> None:
        """Trace ``owner.attr`` (a module function or a class's own method)."""
        if not isinstance(vars(owner).get(attr), types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._targets.append((name, owner, attr))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one :class:`Span` named ``name`` per call."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # the slot children will name as parent
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)

        return traced

    def __enter__(self) -> "SpanRecorder":
        for name, owner, attr in self._targets:
            original = vars(owner)[attr]
            traced = self.wrap(name, original)
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                holders += [
                    mod for key, mod in list(sys.modules.items())
                    if key.startswith("repro") and mod is not None
                    and mod is not owner and vars(mod).get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, traced)
                self._undo.append((holder, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def totals(self) -> Dict[str, SpanTotal]:
        """:func:`span_totals` over everything recorded so far."""
        return span_totals(self.spans)
