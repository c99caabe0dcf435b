"""How fast the host runs Python right now, from a fixed probe.

The benchmark runs on a few vCPUs of a shared host.  Other tenants' load
slows every instruction of this VM, without showing as steal time, by up
to half for minutes at a time: the same campaign cell, or the same
pure-Python loop, takes up to twice as long as it did minutes before.  No
length of run averages that out.

So each run interleaves a fixed probe with its work: some milliseconds of
plain Python dictionary updates, the benchmark's own code, not the
program's.  The mean probe time over the run, divided by ``NOMINAL_S``,
is the run's *slowdown*; a time divided by it (a rate multiplied by it)
is what the run would have measured on the quiet host.  The mean, not
the median, because the program's time also takes in every slow moment
of the run.  The program changing speed moves the figures; the host
changing speed moves the probe with them.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Mean probe time on the quiet host (2 vCPUs of an Intel Xeon at
#: 2.1 GHz).  Any constant would do: it only sets the scale of the
#: reported figures.
NOMINAL_S = 0.0115
#: Dictionary updates per probe.
UPDATES = 100_000


def probe() -> float:
    """Seconds the fixed probe work takes now: dictionary reads and
    updates on small integer keys.

    The garbage collector is off while it runs, so the program's heap,
    which a collection would walk, does not set the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    try:
        counts = {}
        for i in range(UPDATES):
            key = i % 1000
            counts[key] = counts.get(key, 0) + i
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe times of one run and the slowdown they give."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def slowdown(self) -> float:
        """Mean probe time over ``NOMINAL_S``; 1.0 before any probe."""
        if not self.samples:
            return 1.0
        return statistics.mean(self.samples) / NOMINAL_S
