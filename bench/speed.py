"""Machine-speed reference that the benchmark's reported times are scaled by.

On the 2-CPU machine the bounds were set on, identical work ran up to
1.5x faster or slower from one half-minute to the next (other tenants'
load; CPU time moved with wall time, so it is not preemption), and no
number of passes inside one run averages that out.  So a run also times
this fixed kernel, which does not touch affseg, between operations at
least SAMPLE_EVERY_S apart, and reports a time t as t * REF_S / r, where
r is the median kernel time over the pass t was measured in: the time
the work would take on a machine where the kernel takes REF_S.
The kernel does the kinds of work the workloads' hot paths do -- heap
and dict churn in Python, numpy calls on tiny arrays, one np.unique of
a 1 MB array.  Over ten seeds per workload, the scaled pass times
spread 0.06-0.12 (quartile distance over median) where the raw ones
spread 0.12-0.24.  Raw times and kernel times are kept in the run record.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

REF_S = 0.016  # kernel seconds on the machine the bounds were set on (median)
SAMPLE_EVERY_S = 0.25
_INTS = (np.random.default_rng(0).random(131072) * 1000).astype(np.int64)


def _kernel() -> None:
    heap: list = []
    counts: dict = {}
    x, y = np.zeros(3), np.ones(3)
    for i in range(3000):
        k = (i * 7919) & 1023
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, ((i * 2654435761) % 1000003, i))
        x += y
        np.minimum(x, y, out=x)
    while heap:
        heapq.heappop(heap)
    np.unique(_INTS)


def sample() -> float:
    """Seconds of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside `samples` into reference-speed times."""
    return REF_S / statistics.median(samples)
