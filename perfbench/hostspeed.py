"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to 2x within minutes as neighbours come and go; the simulator's own
CPU time moves with it, so nothing inside the process can tell a slow
host from a slow program.  A fixed pure-Python kernel that calls no
``repro`` code is timed before each set-up probe and before each
iteration, outside the timing.  Times are reported scaled by
``REFERENCE_S / median(kernel seconds)`` over the run, i.e. in seconds of
a host on which the kernel takes ``REFERENCE_S``.  A change to the
program moves the job and not the kernel, so it shows in full; a change
of host speed moves both and cancels.  A job on the worker pool keeps its
host seconds: its work runs in two workers on both CPUs, which a kernel
timed between iterations in the parent tracks too loosely (scaling
widened that workload's spread in every set of ten runs tried).
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

#: Median kernel seconds on the host the reference figures in
#: ``perfbench/README.md`` come from (2-vCPU shared VM, Python 3.11.7).
REFERENCE_S = 0.045

KERNEL_REPS = 5


def kernel(n: int = 40_000) -> int:
    """An event-queue loop of the simulator's flavour: a bounded heap of
    (time, id) tuples, a dict keyed by id and integer arithmetic."""
    heap = []
    slots = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i))
        slots[i & 1023] = x
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap) + len(slots)


def kernel_seconds() -> float:
    """Median seconds of ``KERNEL_REPS`` kernel runs."""
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(kernel_times: Sequence[float]) -> float:
    """Factor that turns this run's host seconds into reference seconds."""
    return REFERENCE_S / statistics.median(kernel_times)
