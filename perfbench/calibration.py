"""A fixed pure-Python loop that tracks the host's current speed.

The reference VM shares its physical CPUs with other tenants. Over a few
minutes the same bar can take anywhere from 1.4 s to 2.7 s, so raw host
seconds from two runs are not comparable. A run therefore times this
loop between bars and scales each bar by :func:`scale` of the loop's
time next to it, so host drift largely cancels. A change to the
simulator still shows in full, because this loop never calls into
``repro`` and bar times enter the result linearly.

The loop imitates the simulator's instruction mix: a heap-ordered event
calendar, generator threads resumed with ``next``, and dict-backed
direct-mapped caches with attribute counters. It must never change:
every reported time is in units it defines.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: A round figure near one pass's time on the reference VM (2 vCPUs,
#: Python 3.11).  Scaled times are seconds on a host where a pass takes
#: exactly this long.
REFERENCE_S = 0.03

#: How strongly bar times follow the loop.  Over 40 runs of the three
#: workloads on the reference VM, the log of a run's median bar time
#: rose by 0.56 times the log of its median pass time (0.47 to 0.66 per
#: workload, correlation 0.81 to 0.91).  The loop is a small, tight
#: kernel and feels the other tenants more than the simulator does, so
#: scaling by the full ratio over-corrects.
EXPONENT = 0.56

#: Passes per block; a block's time is their median.
PASSES = 8

_NODES = 16
_REFS_PER_THREAD = 1500


class _Cache:
    __slots__ = ("tags", "hits", "misses")

    def __init__(self) -> None:
        self.tags = {}
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> int:
        index = line & 63
        if self.tags.get(index) == line:
            self.hits += 1
            return 1
        self.misses += 1
        self.tags[index] = line
        return 20


def _thread(pid: int):
    x = pid * 7919
    for _ in range(_REFS_PER_THREAD):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield (x >> 4) & 1023


def one_pass() -> float:
    """Seconds for one pass of the loop."""
    caches = [_Cache() for _ in range(_NODES)]
    threads = [_thread(pid) for pid in range(_NODES)]
    calendar = [(0, pid) for pid in range(_NODES)]
    start = time.perf_counter()
    while calendar:
        now, pid = heapq.heappop(calendar)
        line = next(threads[pid], None)
        if line is not None:
            heapq.heappush(calendar, (now + caches[pid].access(line), pid))
    return time.perf_counter() - start


def block() -> float:
    """Median seconds per pass over ``PASSES`` passes."""
    return statistics.median(one_pass() for _ in range(PASSES))


def scale(pass_s: float) -> float:
    """Factor turning host seconds measured next to passes of
    ``pass_s`` seconds into reference seconds."""
    return (REFERENCE_S / pass_s) ** EXPONENT
