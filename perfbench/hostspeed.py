"""Host-speed correction for timings taken on a shared machine.

On a virtual machine that shares its cores with other tenants, the same
code runs at different speeds from one moment to the next: a fixed
pure-Python loop took from 8.4 to 12.5 ms within seconds, and a tall
cold build from 2.8 to 5.2 s within a minute, on a 2-vCPU Xeon guest at
2.0 GHz. CPU time moves with wall time there, so it does not help.

``SpeedProbe`` samples the speed of the benchmark's own thread while it
works. A timer signal (``ITIMER_REAL``, every ``PERIOD_S``) runs a fixed
probe in the main thread and records when it ran and how long it took.
The probe is ``PROBE_ITERATIONS`` turns of an arithmetic Python loop,
which stays in the L1 cache, so its speed depends on the host and not on
what the program left in the cache. (A probe of random reads over a
large array tracked the search path a little better, but ran twice as
fast whenever the program had left it cached: a change to the program's
memory use would have moved the correction.) ``corrected(start, end)``
turns a timed interval into seconds at the reference speed:

    (end - start - probe time inside the interval)
        * REFERENCE_PROBE_S / mean probe duration within WINDOW_S of it

so a stretch where the host runs the loop 1.4x slower counts 1.4x less.
A change that makes the program itself do more work still shows in
full, since it does not slow the probe. The correction is not exact:
code that waits (on the stub provider, on fsync) or runs in C (hashing)
slows less than the loop when the host is busy and is over-corrected,
while numpy and dictionary-heavy code slows more. Over a minute on the
host above, the coefficient of variation of the medians of 100-call
search batches fell from 0.23 raw to 0.13 corrected, and that of tall
cold builds from 0.17 to between 0.045 and 0.07.

The probe costs about 2% of the CPU time of the run. Its own time is
taken out of every interval it falls in.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from typing import Callable

PROBE_ITERATIONS = 2000
PERIOD_S = 0.01
# the probe's duration on an uncontended 2.0 GHz Xeon vCPU (2-vCPU guest);
# corrected times are seconds at that speed
REFERENCE_PROBE_S = 150e-6
# short intervals (one search call) take the speed of the probes around them
WINDOW_S = 0.05


class SpeedProbe:
    """Runs the probe on a timer signal while started."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._prefix: list[float] | None = None

    @staticmethod
    def probe() -> int:
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        return total

    def _fire(self, signum: int, frame: object) -> None:
        started = self.clock()
        self.probe()
        self.starts.append(started)
        self.durations.append(self.clock() - started)

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _window(self, lo: float, hi: float) -> tuple[int, float]:
        """Count and total duration of the probes that started in [lo, hi)."""
        if self._prefix is None or len(self._prefix) != len(self.durations) + 1:
            self._prefix = [0.0, *itertools.accumulate(self.durations)]
        i = bisect.bisect_left(self.starts, lo)
        j = bisect.bisect_left(self.starts, hi)
        return j - i, self._prefix[j] - self._prefix[i]

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran around [start, end]."""
        n, total = self._window(start - WINDOW_S, end + WINDOW_S)
        if n == 0:
            n, total = len(self.durations), sum(self.durations)
        if n == 0:
            raise RuntimeError("the speed probe never ran")
        return total / n / REFERENCE_PROBE_S

    def corrected(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at the reference speed."""
        _, inside = self._window(start, end)
        return (end - start - inside) / self.factor(start, end)
