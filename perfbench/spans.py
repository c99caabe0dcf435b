"""In-memory spans recorded around the program's public entry points.

The traced run wraps one entry point per layer (see ``layers.py``).  Every
call becomes a span: name, start, end, parent span and a shared id (the
kernel's query index, or the grid cell key).  Generators are timed over
their iteration — each ``next()`` is a span — because timing only their
creation reads as zero.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; summed per name it gives each layer's busy time.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record layout (a list, to keep a traced run's memory small):
NAME, START, END, PARENT, SHARED = range(5)


class SpanRecorder:
    """A stack of open spans and the list of finished ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.shared_id: Any = None
        self.counts: Dict[str, int] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.shared_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is open on the stack."""
        return any(self.spans[i][NAME] == name for i in self._stack)

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, func: Callable,
             name_for: Optional[Callable[..., Optional[str]]] = None
             ) -> Callable:
        """*func* with every call recorded as a span.  *name_for*, when
        given, picks the span name from the call's arguments; None means
        the call is not recorded."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name_for(*args, **kwargs) if name_for else name
            if span_name is None:
                return func(*args, **kwargs)
            span = recorder.open(span_name)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.close(span)

        return traced

    def wrap_generator(self, name: str, func: Callable,
                       name_for: Optional[Callable[..., Optional[str]]] = None
                       ) -> Callable:
        """A generator function whose every ``next()`` is a span."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name_for(*args, **kwargs) if name_for else name
            if span_name is None:
                return func(*args, **kwargs)
            return recorder.iterate(span_name, func(*args, **kwargs))

        return traced

    def iterate(self, name: str, iterator: Iterator) -> Iterator:
        iterator = iter(iterator)
        while True:
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    # -- results ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def call_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "shared": span[SHARED],
                }) + "\n")


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: summed duration minus the time children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0 and span[END] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if span[END] is None:
            continue
        own = (span[END] - span[START]) - covered(children.get(index, []))
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals
