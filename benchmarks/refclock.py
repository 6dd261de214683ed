"""Machine-speed correction for timing on a shared, noisy host.

On a host shared with other tenants the same pure-Python work can take
1.7 times as long from one second to the next, and minutes-long slow
spells move the median of a whole run by 20 % or more.  Raw medians
then spread wider than any useful bound.

While the benchmark measures, `SpeedSampler` runs a fixed piece of
interpreter work, `reference_work`, every INTERVAL_S seconds from a
SIGALRM handler, so the samples interleave with the measured calls
themselves, even during a single ten-second search.  Every measured
interval is then rescaled by how long the reference work took around
it:

    corrected = raw seconds * REF_SECONDS / mean reference cost in the interval

i.e. corrected seconds are seconds at the speed at which the reference
work takes exactly REF_SECONDS (about the speed of an idle host).  The
reference work does not touch the package, so a change to the package
moves corrected times exactly as it moves raw ones.  The handler's own
cost, about 2 % of every interval, is inside both.  The package must
leave SIGALRM and ITIMER_REAL alone for this to hold.
"""

from __future__ import annotations

import bisect
import signal
import time

REF_ITERATIONS = 20_000
REF_SECONDS = 0.001
INTERVAL_S = 0.05


def reference_work() -> int:
    x = 0
    for i in range(REF_ITERATIONS):
        x += i & 7
    return x


class SpeedSampler:
    """Samples the cost of `reference_work` from a timer signal, in the main thread."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.times.append(start)
        self.costs.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REF_SECONDS over the mean reference cost sampled in [start, end].

        An interval shorter than the sampling period may hold no sample;
        it then takes the mean of the samples just before and after it.
        """
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        if first == last:
            first, last = max(first - 1, 0), first + 1
        costs = self.costs[first:last]
        return REF_SECONDS * len(costs) / sum(costs)

    def corrected(self, intervals) -> float:
        """Sum of the (start, end) intervals, each rescaled to reference speed."""
        return sum((end - start) * self.factor(start, end) for start, end in intervals)
