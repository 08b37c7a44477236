"""Host-speed calibration for the clean runs.

The host this benchmark was defined on is a VM sharing its cores with
other tenants, and its speed moves by up to a factor of two over minutes
while the program does not change.  A clean run therefore interleaves
its drive with samples of a fixed pure-Python kernel that belongs to the
benchmark (it calls nothing of the program), and scales each chunk of a
drive by ``reference / mean sample time`` over the samples taken nearest
to it in time.  A slow stretch of the host slows program and kernel
alike and cancels; a faster program lowers its own times only.  The
scaled times read as host times on a host where one sample takes the
kernel's ``reference`` seconds, a fixed scale of the order of its sample
time on the 2-core x86 VM that defined the benchmark (4-8 ms).

Interference does not slow all code alike, so each workload names the
kernel whose instruction mix is closest to its own hot loop:

* ``events`` (simulator workloads): small-dict stores and loads, and
  popping a heap of ``(time, seq, event)`` entries whose events look up
  rows of a larger dict.
* ``ring`` (``mbr_admission``): method calls doing float arithmetic and
  prefix-sum lookups by bisection over a sorted ring of offsets.

On the defining VM, over stretches in which the raw host time of one
repetition moved by 10-20% (coefficient of variation), the scaled time
moved by 2-3%, and the scaled time no longer rose with the sample time
(the slope of one logarithm on the other fell from about 1.1 to under
0.1).  Samples are taken about every :data:`INTERVAL_S` of host time,
so they cover a drive in proportion to time, as its host times do.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
from time import perf_counter
from typing import Callable, Dict, List

#: Host seconds between the end of one sample and the next.
INTERVAL_S = 0.04
#: Samples on each side of a moment that :meth:`Calibrator.factor_at`
#: averages (about a quarter of a host second in all).
NEAR = 3


class _Event:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


class _EventsKernel:
    reference = 0.0050
    ROWS = 4096

    def __init__(self) -> None:
        rows = self.ROWS
        self.table = dict.fromkeys(range(512), 0)
        self.rows = {("row", index): [index, 2 * index] for index in range(rows)}
        self.entries = [
            (seq * 0.37 % 50.0, seq, _Event(("row", (seq * 7919) % rows), seq))
            for seq in range(1500)
        ]

    def __call__(self) -> int:
        table = self.table
        total = 0
        for index in range(12000):
            table[index & 511] = index
            total += table[(index * 7) & 511]
        heap = self.entries[:]
        heapq.heapify(heap)
        rows = self.rows
        while heap:
            _time, _seq, event = heapq.heappop(heap)
            total += rows[event.key][0] + event.value
        return total


class _RingKernel:
    reference = 0.0040
    LENGTH = 14.0
    WIDTH = 1.0

    def __init__(self) -> None:
        self.offsets = sorted(index * 0.0237 % self.LENGTH for index in range(600))
        self.prefix = [0.0]
        for index in range(600):
            self.prefix.append(self.prefix[-1] + 1e6 * (1 + index % 4))

    def _sum_in(self, lo: float, hi: float) -> float:
        from bisect import bisect_left  # a function-local import, as hot code has

        return (self.prefix[bisect_left(self.offsets, hi - 1e-9)]
                - self.prefix[bisect_left(self.offsets, lo - 1e-9)])

    def _load_at(self, x: float) -> float:
        x %= self.LENGTH
        lo = x - self.WIDTH + 2e-9
        hi = x + 2e-9
        if lo >= 0:
            return self._sum_in(lo, hi)
        return self._sum_in(0.0, hi) + self._sum_in(lo + self.LENGTH,
                                                    self.LENGTH + 1.0)

    def __call__(self) -> float:
        peak = 0.0
        for step in range(2000):
            load = self._load_at(step * 0.0113)
            if load > peak:
                peak = load
        return peak


KERNELS: Dict[str, Callable[[], Callable[[], object]]] = {
    "events": _EventsKernel,
    "ring": _RingKernel,
}


class Calibrator:
    """Times samples of one kernel; :meth:`factor_at` scales host times."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]()
        self.reference = self.kernel.reference
        self.samples: List[float] = []
        #: Host clock at the middle of each sample.
        self.times: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        # The kernels allocate no tracked objects but a heap copy, and
        # the collector is off while one runs: a collection of the
        # program's heap would otherwise land in a sample, and the
        # program's own collections keep their schedule.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            self.kernel()
            ended = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ended - started)
        self.times.append((started + ended) / 2)
        self._due = ended + INTERVAL_S

    def poll(self) -> None:
        """Take a sample if one is due; called between chunks of a drive."""
        if perf_counter() >= self._due:
            self.sample()

    def factor(self, since: int = 0) -> float:
        """The reference over the mean of the samples from ``since`` on."""
        return self.reference / statistics.fmean(self.samples[since:])

    def factor_at(self, when: float) -> float:
        """The reference over the mean of the samples nearest ``when``."""
        index = bisect.bisect(self.times, when)
        return self.reference / statistics.fmean(
            self.samples[max(0, index - NEAR):index + NEAR]
        )
