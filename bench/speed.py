"""A fixed probe of how fast the machine runs pure Python at the moment.

The machine the benchmark runs on may be shared with other jobs.  On a
2-core virtual machine the same 0.9 s op took from 0.60 s to 1.18 s within
100 s, and a 25 s run could read 20% slower than the one before it on the
same inputs.  The speed changes within a fraction of a second: two probes
0.4 s apart correlate at about 0.3, and the two cores do not slow down
together.  The probe is a fixed amount of the kind of work the program does
(Fraction arithmetic, tuple-keyed dicts).  A Sampler runs it on either side
of each timed interval and, from a timer signal, every INTERVAL_S seconds
within it; the probes' own time is taken out of the interval.  An op's time
is scaled by REFERENCE_PROBE_S divided by the mean of the probes beside and
within it: times are reported in seconds at the speed at which the probe
takes REFERENCE_PROBE_S.  The probe is benchmark code, so a change to the
program does not change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the unit of scaled times: seconds at the speed at which the probe takes this
# long (0.004-0.005 s in a measuring process on a 2-core Intel Xeon virtual
# machine with Python 3.11.7)
REFERENCE_PROBE_S = 0.0041
INTERVAL_S = 0.2  # between probes within a timed interval
BESIDE = 4  # probes on each side of a timed interval


def probe() -> float:
    """Seconds the fixed probe takes now; the collector is off meanwhile, so
    the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 500):
            acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
        for _ in range(2):  # small tables, so the probe barely moves peak memory
            table = {}
            for i in range(2000):
                table[(i, i % 7)] = i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes around and within timed intervals, in the process it runs in.

    Use: begin(), then the timed work, then end(); end() returns the work's
    seconds without the probes in it and the mean probe time.  Only one
    Sampler may exist in a process: it owns SIGALRM."""

    def __init__(self, periodic: bool):
        self.periodic = periodic  # without it, probes run only beside the work
        self.probes = []  # every probe time, for the run's record
        self.spent = 0.0  # seconds all probes took
        self._times = []
        self._spent_before = 0.0
        self._start = 0.0
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())

    def _sample(self):
        start = perf_counter()
        self._times.append(probe())
        self.spent += perf_counter() - start

    def begin(self):
        """Probe, then start timing."""
        self._times = []
        for _ in range(BESIDE):
            self._sample()
        self._spent_before = self.spent
        self._start = perf_counter()
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end(self):
        """Stop timing, then probe: (seconds, mean probe time)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - self._start - (self.spent - self._spent_before)
        for _ in range(BESIDE):
            self._sample()
        self.probes += self._times
        return seconds, statistics.fmean(self._times)


def scaled(seconds: float, probe_beside: float) -> float:
    """A time measured while the probe took `probe_beside`, as it would read
    while the probe took REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_beside
