"""Host-speed probe of the end-to-end loop.

The cores of a shared VM run this process at a speed that changes every
few seconds with what other tenants run beside it (up to 1.8x on the
machine the benchmark was tuned on).  While the loop is timed, an interval
timer interrupts the process every PERIOD_S seconds and times a fixed
pure-Python loop, PROBE_LOOPS iterations long, in the signal handler.  The
probes sit between the bytecodes of the measured code, so they see the
speed the program itself was given at that moment.  ``metrics.host_factor``
turns the probes of one visit into the visit's slowdown relative to
REFERENCE_PROBE_S.

The probes add about 0.6% to every timed interval they fall in, the same
share on every commit.
"""

import signal
import time

PERIOD_S = 0.05
PROBE_LOOPS = 3000
# typical probe time on the 2-vCPU Xeon VM the benchmark was tuned on
# (Python 3.11); it only fixes the reference speed, so any constant would do
REFERENCE_PROBE_S = 3.0e-4


def probe():
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class HostSpeed:
    """Context manager that probes the host's speed every `period` seconds
    of wall time and keeps each probe's start and duration."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
