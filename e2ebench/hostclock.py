"""A clock that runs at the host's measured speed.

The benchmark shares its host's cores with other tenants, and the host
runs the same op up to ~1.8x slower in phases that last from a second to
a minute or two.  Those phases, not the program, would then set the
run-to-run spread of every timing.  So every end-to-end timing is taken
on a *reference clock*: between ops the benchmark times a fixed
pure-Python probe (:func:`probe_work`, benchmark code that the program
never touches), and a stretch of wall time between two probes counts as
that time divided by how much slower than :data:`PROBE_REF_S` the two
probes ran.  A reference second is a wall second on a host that runs the
probe in exactly :data:`PROBE_REF_S`.

A change to the program moves its ops and leaves the probe alone, so it
shows on the reference clock as it does on the wall clock; a slow host
slows both and cancels out.  The wall-clock figures are printed too.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

__all__ = ["PROBE_REF_S", "HostClock", "probe_work"]

#: Probe time that defines a reference second.  It only sets the unit: the
#: probe took 1.8-3.3 ms on the 2-core host of the figures in LAYERS.md.
PROBE_REF_S = 2.0e-3
_PROBE_ROUNDS = 8000


def probe_work() -> int:
    """Fixed interpreter work: integer arithmetic, list stores and appends."""
    acc = 0
    table = [0] * 256
    bits = []
    for i in range(_PROBE_ROUNDS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 255] += 1
        bits.append(acc >> 31)
    return sum(bits) + table[7]


class HostClock:
    """Maps ``time.perf_counter()`` stamps onto the reference clock.

    Call :meth:`mark` before the first stamp to convert and again after
    the last one (in practice: between ops).  Between two marks the host
    is taken to run at the mean of their two speeds; before the first and
    after the last mark, at that mark's speed.
    """

    def __init__(self) -> None:
        self._times: "list[float]" = []  # probe mid-points, perf_counter seconds
        self._factors: "list[float]" = []  # probe time / PROBE_REF_S
        self._ref: "list[float]" = []  # reference time at each mid-point

    def mark(self) -> None:
        """Time one probe and record the host's current speed."""
        began = perf_counter()
        probe_work()
        ended = perf_counter()
        at, factor = (began + ended) / 2, (ended - began) / PROBE_REF_S
        if self._times:
            self._ref.append(self._ref[-1] + self._segment(len(self._times) - 1, at, factor))
        else:
            self._ref.append(0.0)
        self._times.append(at)
        self._factors.append(factor)

    def _segment(self, k: int, until: float, next_factor: float) -> float:
        return (until - self._times[k]) * 2 / (self._factors[k] + next_factor)

    def ref(self, stamp: float) -> float:
        """Reference time of a ``perf_counter`` stamp, from the first mark."""
        if not self._times:
            raise RuntimeError("HostClock.mark() was never called")
        k = bisect.bisect_right(self._times, stamp) - 1
        if k < 0:
            return (stamp - self._times[0]) / self._factors[0]
        if k == len(self._times) - 1:
            return self._ref[k] + (stamp - self._times[k]) / self._factors[k]
        return self._ref[k] + self._segment(k, stamp, self._factors[k + 1])

    def span(self, began: float, ended: float) -> float:
        """Reference seconds between two ``perf_counter`` stamps."""
        return self.ref(ended) - self.ref(began)

    @property
    def slowdown(self) -> float:
        """Median probe time over :data:`PROBE_REF_S` across every mark."""
        return statistics.median(self._factors)
