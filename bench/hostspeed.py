"""Host speed samples, for scaling measured times to one reference speed.

The benchmark host drifts: co-tenants on the same physical cores slow every
instruction by up to about 1.6x for seconds at a time, while CPU time stays
equal to wall time (it is not preemption). The same command measured twice
a minute apart then differs by more than any bound worth setting. So a
fixed pure-Python reference loop is timed every ``INTERVAL_S`` from a
SIGALRM handler (no extra thread), and a measured interval is reported as

    (wall time - reference time inside it) * NOMINAL_NS / median reference time

around it: the time the program would have taken had the host run the
reference loop in ``NOMINAL_NS``. Raw wall times are kept next to the
scaled ones in the result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.025
REFERENCE_ITERATIONS = 8000
# The reference loop's duration on this benchmark's reference host speed
# (about its fast-regime duration on a 2-vCPU Xeon KVM guest, Python 3.11).
NOMINAL_NS = 600_000
MIN_SAMPLES = 9


def _reference() -> int:
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return acc


class HostSpeed:
    """Reference-loop timings taken every INTERVAL_S while started."""

    def __init__(self):
        self.starts = array("q")
        self.durations = array("q")

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        _reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter_ns() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy_ns(self, t0: int, t1: int) -> int:
        """Reference time spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0: int, t1: int) -> float:
        """NOMINAL_NS over the median reference time in and around [t0, t1]."""
        n = len(self.starts)
        if n < MIN_SAMPLES:
            raise RuntimeError("too few host speed samples")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SAMPLES:
            # Widen towards whichever neighbour is closer in time.
            before = t0 - self.starts[lo - 1] if lo > 0 else None
            after = self.starts[hi] - t1 if hi < n else None
            if after is None or (before is not None and before <= after):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_NS / statistics.median(self.durations[lo:hi])

    def scaled_ns(self, t0: int, t1: int, factor: float | None = None) -> float:
        """Duration of [t0, t1] without reference time, at the nominal speed."""
        if factor is None:
            factor = self.factor(t0, t1)
        return (t1 - t0 - self.busy_ns(t0, t1)) * factor
