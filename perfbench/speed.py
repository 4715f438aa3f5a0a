"""Host-speed reference for the benchmark's reported times.

The benchmark shares its host, whose speed switches, on either vCPU,
between a fast and a slow state lasting seconds; a pure-Python loop runs
about 1.8 times slower in the slow one. A probe therefore times a small
fixed pure-Python loop from a timer signal every 50 ms for the whole run,
and every reported time is multiplied by REFERENCE_S over the median loop
time measured while it ran: a time is reported as it would read on a host
where the loop takes REFERENCE_S. The loop touches no matsum code, so no
change to the program moves it; it costs about 1% of the run, spread over
every operation.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Median loop time on the host the benchmark was defined on (a 2-vCPU Xeon
#: VM); reported times are scaled to it.
REFERENCE_S = 0.0003


def reference_work() -> list:
    """Fixed Fraction, dict and sort work, the kind the pipeline does."""
    acc: dict[int, Fraction] = {}
    for i in range(60):
        acc[i % 7] = acc.get(i % 7, Fraction(0)) + Fraction(i, 7)
    return sorted(acc.items())


class SpeedProbe:
    """Context manager: times reference_work every `period` seconds, from
    SIGALRM, until it exits."""

    def __init__(self, period: float = 0.05, window: float = 0.25) -> None:
        self.period = period
        self.window = window
        self.samples: list[tuple[float, float]] = []  # (start time, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def factor(self) -> float:
        """Scale for a time measured at any point of the run."""
        return REFERENCE_S / statistics.median(d for _, d in self.samples)

    def factor_at(self, end: float, seconds: float) -> float:
        """Scale for a time measured from end - seconds to end: from the loops
        timed within `window` seconds of that interval, or the three
        nearest to it."""
        start = end - seconds
        near = [d for t, d in self.samples
                if start - self.window <= t <= end + self.window]
        if len(near) < 3:
            def distance(sample):
                return max(start - sample[0], sample[0] - end, 0.0)
            near = [d for _, d in sorted(self.samples, key=distance)[:3]]
        return REFERENCE_S / statistics.median(near)
