"""Per-query wall-clock stamps and the statistics the benchmark reports.

The campaign kernel emits a ``query`` event after every judged query and a
``graph`` event after every graph is generated and loaded.  A
:class:`StampLog` is an :class:`repro.runtime.EventLog` that keeps the
normal event behaviour and also reads ``time.perf_counter`` at those two
events, so the benchmark measures the closed loop without touching the
program: a query's latency is the time since the previous query (or since
its graph was loaded), which is its propose + judge time.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime import EventLog

#: Metric and workload names: a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: letters, digits, ``_ / % . -``; at most 16 characters.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Share of the slowest judged queries left out of the trimmed rate.  The
#: costliest few percent of synthesized queries change from seed to seed
#: by more than the bulk does: on gqs-read and triage-reduce the rate
#: spread 0.18 (IQR/median over six seeds) at 1%, 0.10 at 5%.
TAIL_SHARE = 0.05


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


class QueryStamps:
    """Wall-clock stamps of every judged query of a closed loop."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Per-query latency in seconds, in run order: propose + judge.
        self.latency: List[float] = []
        #: Label of each query (``engine`` of its campaign).
        self.labels: List[str] = []
        self._mark: Optional[float] = None
        #: Called with the index of the next query when it starts; the
        #: tracer uses it as the shared id of that query's spans.
        self.on_query_start: Optional[Callable[[int], None]] = None

    def graph_loaded(self) -> None:
        self._mark = self.clock()
        if self.on_query_start is not None:
            self.on_query_start(len(self.latency))

    def query_judged(self, label) -> None:
        now = self.clock()
        start = self._mark if self._mark is not None else now
        self.latency.append(now - start)
        self.labels.append(label)
        self._mark = now
        if self.on_query_start is not None:
            self.on_query_start(len(self.latency))


class StampLog(EventLog):
    """An event log that stamps the kernel's ``graph`` and ``query`` events.

    *label* names the stamped queries: a string, or a function called at
    each query event.
    """

    def __init__(self, stamps: QueryStamps, label, path=None):
        super().__init__(path, record_queries=True)
        self.stamps = stamps
        self.label = label

    def emit(self, kind: str, /, **payload: Any):
        event = super().emit(kind, **payload)
        if kind == "query":
            label = self.label
            self.stamps.query_judged(label() if callable(label) else label)
        elif kind == "graph":
            self.stamps.graph_loaded()
        return event


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def trimmed_rate(latency: Sequence[float], wall: float,
                 share: float = TAIL_SHARE) -> float:
    """Judged queries per second of *wall*, less the slowest queries' time.

    The slowest ``ceil(share * n)`` queries and their latency are left out,
    so one pathological query cannot set the figure; they are reported by
    the latency tail, the untrimmed rate and the traced run's
    slowest-query list instead.
    Everything else in *wall* counts, graph generation and cell set-up
    between the queries included.
    """
    if not latency:
        raise ValueError("no judged queries")
    tail = sorted(latency, reverse=True)[:math.ceil(share * len(latency))]
    return (len(latency) - len(tail)) / (wall - sum(tail))


def digest(documents: Sequence[Any]) -> str:
    """SHA-256 over the canonical JSON of *documents* (first 16 hex)."""
    text = json.dumps(list(documents), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
