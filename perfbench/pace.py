"""Host pace: a fixed reference computation timed between requests.

On a shared host the CPU's speed drifts by +-20% over tens of seconds to
minutes, and every workload slows and speeds up with it, so one run's
median request wall depends on when the run happened.  :func:`pace`
times a fixed mix of the kinds of work the library does (interpreter
loops, numpy calls on small arrays, gathers and reductions over arrays
larger than the core's caches), which the code under test cannot
change.  Dividing each request's wall by the pace around it, and scaling
by :data:`REFERENCE_S`, reports the request in seconds at the reference
host's speed: the drift cancels, a change in the library does not.
"""

from __future__ import annotations

import time

import numpy as np

#: About the median of :func:`pace` between requests on the reference
#: host (2-core Intel Xeon VM, python 3.11.7, numpy 2.4.6), so a time at
#: reference pace reads about as the wall time there.
REFERENCE_S = 0.1

_rng = np.random.default_rng(20240611)


class _Gather:
    """A gather, clip, row-dot and compress over fixed arrays.

    Every result goes to a buffer allocated once, so the pace never
    depends on the allocator's state, which the requests change.
    """

    def __init__(self, n: int):
        self.points = _rng.random((n, 3))
        self.order = _rng.permutation(n)
        self.mask = _rng.random(n) < 0.5
        self.taken = np.empty_like(self.points)
        self.clipped = np.empty_like(self.points)
        self.dots = np.empty(n)
        self.kept = np.empty(int(self.mask.sum()))

    def __call__(self) -> float:
        np.take(self.points, self.order, axis=0, out=self.taken)
        np.clip(self.taken, 0.2, 0.8, out=self.clipped)
        np.einsum("ij,ij->i", self.clipped, self.taken, out=self.dots)
        np.compress(self.mask, self.dots, out=self.kept)
        return float(self.kept.sum())


_SMALL = _Gather(4000)
_BIG = _Gather(150_000)


def pace() -> float:
    """Seconds one fixed unit of reference work takes now."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i & 7
        table[i & 1023] = total
    for _ in range(400):
        _SMALL()
    for _ in range(10):
        _BIG()
    return time.perf_counter() - t0
